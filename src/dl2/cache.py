"""Portable on-disk cache for character tables.

Files are keyed by (p, k, r, mode, flavor) and carry a format-version
field; a table is returned only after `CharacterTable.verify()` accepts it,
and anything that fails to read or to verify is recomputed and overwritten.
Each cached table's group is also written out (`save_group`), but nothing
reads that file.  The cache directory comes from an explicit argument or
the DL2_CACHE_DIR environment variable; with neither set, everything stays
in process memory only.
"""

from __future__ import annotations

import gzip
import json
import os
import zlib
from pathlib import Path

import numpy as np

from .characters import CharacterTable, VerificationError, character_table
from .cyclotomic import phi
from .groups import MatrixGroup, make_group

GROUP_FORMAT = "dl2-group/1"
TABLE_FORMAT = "dl2-table/1"
ENV_VAR = "DL2_CACHE_DIR"


def resolve_cache_dir(explicit: str | None = None) -> Path | None:
    d = explicit or os.environ.get(ENV_VAR)
    if not d:
        return None
    path = Path(d)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _stem(p, k, r, mode, flavor) -> str:
    return f"p{p}k{k}r{r}-{mode}-{flavor}"


def group_cache_path(cache_dir: Path, p, k, r, mode, flavor) -> Path:
    return cache_dir / f"group-{_stem(p, k, r, mode, flavor)}.npz"


def table_cache_path(cache_dir: Path, p, k, r, mode, flavor) -> Path:
    return cache_dir / f"table-{_stem(p, k, r, mode, flavor)}.json.gz"


def save_group(group: MatrixGroup, cache_dir: Path):
    cd = group.conjugacy()
    R = group.ring
    meta = {
        "format": GROUP_FORMAT,
        "p": R.p,
        "k": R.k,
        "r": R.r,
        "mode": R.mode,
        "flavor": group.flavor,
        "order": group.order,
    }
    path = group_cache_path(cache_dir, R.p, R.k, R.r, R.mode, group.flavor)
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        codes=group.codes,
        class_of_codes=cd.class_of[group.codes],
        reps=cd.reps,
        sizes=cd.sizes,
    )
    return path


def save_table(table: CharacterTable, cache_dir: Path):
    g = table.group
    R = g.ring
    payload = {
        "format": TABLE_FORMAT,
        "p": R.p,
        "k": R.k,
        "r": R.r,
        "mode": R.mode,
        "flavor": g.flavor,
        "exponent": table.exponent,
        "class_reps": [int(c) for c in table.conjugacy.reps],
        "degrees": [int(d) for d in table.degrees],
        "coeffs": table.coeffs.tolist(),
    }
    path = table_cache_path(cache_dir, R.p, R.k, R.r, R.mode, g.flavor)
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps(payload))  # one write: json.dump makes ~10^5 small ones
    return path


def load_table(p, k, r, mode, flavor, cache_dir: Path) -> CharacterTable | None:
    """The cached table, verified, or None when the file is missing, cannot
    be read, is not a table of this group's classes, exponent and shape, or
    holds a table that fails verification."""
    path = table_cache_path(cache_dir, p, k, r, mode, flavor)
    if not path.exists():
        return None
    try:
        with gzip.open(path, "rt") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("format") != TABLE_FORMAT:
            return None
        group = make_group(p, k, r, mode, flavor)
        cd = group.conjugacy()
        n, e = cd.n_classes, cd.exponent
        if payload["class_reps"] != [int(c) for c in cd.reps] or payload["exponent"] != e:
            return None
        coeffs = np.array(payload["coeffs"], dtype=np.int64)
        degrees = np.array(payload["degrees"], dtype=np.int64)
        if coeffs.shape != (n, n, phi(e)) or degrees.shape != (n,):
            return None
        table = CharacterTable(group, parts=(coeffs, e, degrees))
        del payload, coeffs  # free the parsed lists before verify() allocates
        table.verify()
    # EOFError and zlib.error: what a truncated or damaged gzip stream raises;
    # TypeError: a null or an object where numpy needs an integer
    except (VerificationError, OSError, EOFError, zlib.error, ValueError, TypeError, KeyError, json.JSONDecodeError):
        return None
    return table


def cached_character_table(p, k, r, mode, flavor, cache_dir=None) -> CharacterTable:
    """Character table with optional disk persistence."""
    cdir = resolve_cache_dir(cache_dir)
    if cdir is not None:
        tab = load_table(p, k, r, mode, flavor, cdir)
        if tab is not None:
            return tab
    tab = character_table(make_group(p, k, r, mode, flavor))
    if cdir is not None:
        save_table(tab, cdir)
        save_group(tab.group, cdir)
    return tab
