"""Command line interface.

Subcommands:
  classify-torus   one JSON record per torus character
  predict          one JSON prediction record per torus character
  verify           run the verification checks for one case or a manifest
  sweep-conjecture level-one sign sweep over type A torus classes
  dump-table       character table as TSV or structured JSON

Exit codes: 0 when every law holds (for `verify`, when no check that
applies fails), 1 when a law fails, 2 on bad input, with one line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from .abelian import factorise, unique
from .cache import cached_character_table, resolve_cache_dir
from .characters import TABLE_BOUND
from .groups import gl2_order, sl2_order
from .predictor import predict_gl2, predict_sl2
from .rings import MAX_TABLE_RING, is_prime
from .torus import classify_all, make_torus
from .verifier import run_case, run_suite
from .weyl import sweep_classical_signs


def _out_stream(path):
    """The `--out` file, closed on leaving its `with`, or stdout, left open."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def _classification_records(cl) -> list[dict]:
    """One JSON record per theta, in the order of the torus dual group."""
    theta0 = [None] * len(cl)
    for r0 in unique(cl.r0).tolist():
        for i, row in zip(np.flatnonzero(cl.r0 == r0).tolist(), cl.theta0_rows(r0).tolist()):
            theta0[i] = row
    columns = {
        "theta": cl.theta.tolist(),
        "tau": [None] * len(cl) if cl.tau is None else cl.tau.tolist(),
        "regular": cl.regular.tolist(),
        "r0": cl.r0.tolist(),
        "theta0": theta0,
        "alpha": cl.alpha.tolist(),
        "n_minimizing_twists": cl.n_minimizing_twists.tolist(),
        "general_position": cl.general_position.tolist(),
        "stabilizer": cl.stab_size.tolist(),
        "sl_sigma_fixed": cl.sl_sigma_fixed.tolist(),
        "sl_quadratic": cl.sl_quadratic.tolist(),
    }
    orders = list(cl.torus.group.orders)
    return [dict(zip(columns, rec), basis_orders=orders) for rec in zip(*columns.values())]


def cmd_classify_torus(args) -> int:
    torus = make_torus(args.p, args.k, args.r, args.mode)
    with _out_stream(args.out) as out:
        for rec in _classification_records(classify_all(torus, psi_scale=args.psi_scale)):
            out.write(json.dumps(rec, sort_keys=True) + "\n")
    return 0


def cmd_predict(args) -> int:
    cl = classify_all(make_torus(args.p, args.k, args.r, args.mode))
    values, which = (predict_gl2 if args.flavor == "gl" else predict_sl2)(cl)
    with _out_stream(args.out) as out:
        for theta, k in zip(cl.theta.tolist(), which.tolist()):
            rec = {"theta": theta, "flavor": args.flavor}
            rec.update(values[k].to_dict())
            out.write(json.dumps(rec, sort_keys=True) + "\n")
    return 0


class _RaisingParser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _parse_manifest(path) -> list[tuple]:
    """Cases (p, k, r, flavor, mode), one `p= k= r= flavor= mode=` line
    each, checked by the rules of the single-case options; a bad line raises
    ValueError naming the file and line."""
    # each `key=value` token is read as the option `--key=value`
    case_args = _RaisingParser(prog="manifest", add_help=False, allow_abbrev=False)
    _add_case_args(case_args)
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip().lower()
            if not line:
                continue
            try:
                a = case_args.parse_args(["--" + tok for tok in line.split()])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            out.append((a.p, a.k, a.r, a.flavor, a.mode))
    return out


def cmd_verify(args) -> int:
    if args.manifest:
        try:
            manifest = _parse_manifest(args.manifest)
        except (OSError, ValueError) as exc:
            print(f"dl2: {exc}", file=sys.stderr)
            return 2
        result = run_suite(manifest, cache_dir=args.cache_dir)
    else:
        required = [args.p, args.k, args.r, args.flavor, args.mode]
        if any(v is None for v in required):
            print("verify needs --manifest or all of --p --k --r --flavor --mode", file=sys.stderr)
            return 2
        rep = run_case(args.p, args.k, args.r, args.flavor, args.mode,
                       cache_dir=args.cache_dir)
        result = {"all_pass": rep.all_pass(), "cases": [rep.to_dict()], "suite_checks": []}
    text = json.dumps(result, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if result["all_pass"] else 1


def _prime_powers(text: str) -> list[int]:
    """The --q list; ValueError unless every entry is a prime power."""
    qs = []
    for tok in text.split(","):
        try:
            q = int(tok)
        except ValueError:
            raise ValueError(f"--q: {tok!r} is not an integer") from None
        if q < 2 or len(factorise(q)) != 1:
            raise ValueError(f"--q: {q} is not a prime power")
        qs.append(q)
    return qs


def cmd_sweep_conjecture(args) -> int:
    cases = sweep_classical_signs(args.n_max, _prime_powers(args.q))
    with _out_stream(args.out) as out:
        if args.format == "json":
            out.write(json.dumps([c.to_dict() for c in cases], indent=2) + "\n")
        else:
            cols = [
                "flavor", "n", "cycle_type", "q", "p", "dim",
                "dim_p_part", "rk_T", "rk_G", "sign", "classical_sign", "verdict",
            ]
            out.write("\t".join(cols) + "\n")
            for c in cases:
                d = c.to_dict()
                d["cycle_type"] = "+".join(map(str, c.cycle_type))
                out.write("\t".join(str(d[col]) for col in cols) + "\n")
    bad = [c for c in cases if c.sign != c.classical_sign]
    return 1 if bad else 0


def cmd_dump_table(args) -> int:
    tab = cached_character_table(
        args.p, args.k, args.r, args.mode, args.flavor, args.cache_dir
    )
    with _out_stream(args.out) as out:
        if args.format == "json":
            out.write(json.dumps(tab.to_json_dict(), sort_keys=True) + "\n")
        else:
            out.write(tab.to_tsv())
    return 0


def prime_int(text: str) -> int:
    p = int(text)
    try:
        prime = is_prime(p)
    except ValueError as exc:  # beyond the proven range of the test
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not prime:
        raise argparse.ArgumentTypeError(f"{p} is not a prime")
    return p


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is not >= 1")
    return n


def _check_input(args) -> None:
    """Raise ValueError, with a one-line reason, on input that the option
    types cannot judge alone: a case past the table limits, a --n-max below
    2 (no rank to sweep), a --q entry that is not a prime power, or a cache
    directory that cannot be made."""
    cmd = args.command
    if cmd in ("classify-torus", "predict") and (size := args.p ** (args.k * args.r)) > MAX_TABLE_RING:
        raise ValueError(f"|O_r| = {size} exceeds the table limit {MAX_TABLE_RING}")
    if cmd == "dump-table":
        order = (gl2_order if args.flavor == "gl" else sl2_order)(args.p**args.k, args.r)
        if order > TABLE_BOUND:
            group = f"{args.flavor.upper()}2(O_{args.r})"
            raise ValueError(f"|{group}| = {order} exceeds the table bound {TABLE_BOUND}")
    if cmd == "sweep-conjecture":
        if args.n_max < 2:
            raise ValueError(f"--n-max: {args.n_max} is below 2, the least n swept")
        _prime_powers(args.q)
    if cmd in ("verify", "dump-table"):
        try:
            resolve_cache_dir(args.cache_dir)
        except OSError as exc:
            raise ValueError(f"cannot use cache directory {exc.filename!r}: {exc.strerror}") from None


def _add_case_args(sp, need_flavor=True, required=True):
    sp.add_argument("--p", type=prime_int, required=required)
    sp.add_argument("--k", type=positive_int, required=required)
    sp.add_argument("--r", type=positive_int, required=required)
    if need_flavor:
        sp.add_argument("--flavor", choices=["gl", "sl"], required=required)
    sp.add_argument("--mode", choices=["mixed", "equal"], required=required)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="dl2")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = classify = sub.add_parser("classify-torus", help="classify all torus characters")
    _add_case_args(sp, need_flavor=False)
    sp.add_argument("--psi-scale", type=int, default=1)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_classify_torus)

    sp = sub.add_parser("predict", help="predictions for all torus characters")
    _add_case_args(sp)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_predict)

    sp = sub.add_parser("verify", help="run verification checks")
    _add_case_args(sp, required=False)
    sp.add_argument("--manifest")
    sp.add_argument("--report")
    sp.add_argument("--cache-dir")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("sweep-conjecture", help="level-one sign sweep, type A")
    sp.add_argument("--n-max", type=int, default=5)
    sp.add_argument("--q", default="2,3,4,5,7,8,9")
    sp.add_argument("--format", choices=["tsv", "json"], default="tsv")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_sweep_conjecture)

    sp = sub.add_parser("dump-table", help="dump a character table")
    _add_case_args(sp)
    sp.add_argument("--format", choices=["tsv", "json"], default="tsv")
    sp.add_argument("--cache-dir")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_dump_table)

    args = ap.parse_args(argv)
    if args.command == "classify-torus":
        # psi_scale is the code of an element of F_q, and must be a unit
        q = args.p**args.k
        if not 1 <= args.psi_scale < q:
            classify.error(f"--psi-scale must be a nonzero element code of F_{q}, in 1..{q - 1}")
    try:
        _check_input(args)
    except ValueError as exc:
        print(f"dl2 {args.command}: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
