"""Portable on-disk cache for character tables.

Each table is one `np.savez_compressed` file, `table-<p,k,r,mode,flavor>.npz`,
with the members
  meta        0-d unicode array: JSON of format ("dl2-table/2"), p, k, r,
              mode, flavor and exponent e;
  class_reps  int64 codes of the class representatives;
  degrees     int64 degrees;
  coeffs      the (n, n, phi(e)) Z[zeta_e] coefficient tensor, in the
              narrowest signed integer dtype that holds its largest entry.
It is read back with `allow_pickle=False`, so no member is ever unpickled.
A table is returned only when its format, exponent, representatives,
dtypes and shapes match the freshly enumerated group and then
`CharacterTable.verify()` accepts it; anything else is recomputed and
overwritten.  Files of an older format (`table-*.json.gz`) are never
opened.  Each cached table's group is also written out (`save_group`), but
nothing reads that file.  The cache directory comes from an explicit
argument or the DL2_CACHE_DIR environment variable; with neither set,
everything stays in process memory only.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .characters import CharacterTable, VerificationError, character_table
from .cyclotomic import phi
from .groups import MatrixGroup, make_group

GROUP_FORMAT = "dl2-group/1"
TABLE_FORMAT = "dl2-table/2"
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


def group_cache_path(cache_dir: Path | str, p, k, r, mode, flavor) -> Path:
    return Path(cache_dir) / f"group-{_stem(p, k, r, mode, flavor)}.npz"


def table_cache_path(cache_dir: Path | str, p, k, r, mode, flavor) -> Path:
    return Path(cache_dir) / f"table-{_stem(p, k, r, mode, flavor)}.npz"


def save_group(group: MatrixGroup, cache_dir: Path | str):
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


def save_table(table: CharacterTable, cache_dir: Path | str):
    g = table.group
    R = g.ring
    meta = {
        "format": TABLE_FORMAT,
        "p": R.p,
        "k": R.k,
        "r": R.r,
        "mode": R.mode,
        "flavor": g.flavor,
        "exponent": table.exponent,
    }
    bound = int(np.abs(table.coeffs).max(initial=0))
    narrow = next(t for t in (np.int8, np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)
    path = table_cache_path(cache_dir, R.p, R.k, R.r, R.mode, g.flavor)
    np.savez_compressed(
        path,
        meta=np.array(json.dumps(meta)),
        class_reps=table.conjugacy.reps,
        degrees=table.degrees,
        coeffs=table.coeffs.astype(narrow),
    )
    return path


def load_table(p, k, r, mode, flavor, cache_dir: Path | str) -> CharacterTable | None:
    """The cached table, verified, or None when the file is missing, cannot
    be read, is not a table of this group's classes, exponent and shape, or
    holds a table that fails verification."""
    path = table_cache_path(cache_dir, p, k, r, mode, flavor)
    if not path.exists():
        return None
    try:
        with np.load(path, allow_pickle=False) as z:
            meta, reps, coeffs, degrees = (z[m] for m in ("meta", "class_reps", "coeffs", "degrees"))
        meta = json.loads(meta.item()) if meta.dtype.kind == "U" and meta.shape == () else None
        if not isinstance(meta, dict) or meta.get("format") != TABLE_FORMAT:
            return None
        group = make_group(p, k, r, mode, flavor)
        cd = group.conjugacy()
        n, e = cd.n_classes, cd.exponent
        if meta.get("exponent") != e or any(a.dtype.kind != "i" for a in (reps, coeffs, degrees)):
            return None
        if not np.array_equal(reps, cd.reps) or coeffs.shape != (n, n, phi(e)) or degrees.shape != (n,):
            return None
        table = CharacterTable(group, parts=(coeffs.astype(np.int64), e, degrees.astype(np.int64)))
        table.verify()
    # BadZipFile, EOFError and zlib.error: what a truncated or damaged file
    # raises, RuntimeError when the damage hits a member's compression or
    # encryption flags; KeyError: a missing member; ValueError: an object
    # array, which allow_pickle=False refuses, or meta that is not JSON
    except (
        VerificationError, OSError, EOFError, zlib.error, zipfile.BadZipFile, RuntimeError, KeyError, ValueError
    ):
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
