"""The dl2 benchmark: time to a verified verdict, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0
    python3 perfbench/run.py --record

It drives dl2 from outside, through its public API and CLI, as one
sequential caller (a closed loop with one client).  Each repetition runs in
a fresh worker process (`worker.py`), so dl2's process-lifetime caches start
empty every time; this process only spawns workers one at a time and checks
their outputs, with no threads of its own.  The seed permutes the order of
the cases within each workload; dl2 receives only the generated manifest.

Repetitions run until the next one would end after `--seconds` (at least one
runs).  The end-to-end metrics are medians over the repetitions; `setup_s`
adds eight import-only workers, after one that fills the bytecode cache.
With `--trace 1` every repetition is a pair, one worker untraced and one
traced (`spans.py`), alternating which goes first, and the per-layer metrics
come from the traced workers; the untraced ones give the tracing overhead.

Every output is checked against `reference/`, recorded from the seed code
with `--record`: the report minus `runtime_s` per check, a SHA-256 of each
table's `to_json_dict()`, and the cache round trip.  An operation (one
check, or one table) fails on a `fail` or `error` verdict, an exception, or
an output that differs from the reference; a check with no reference entry
is attempted but not compared.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Details of every run, with the
environment, go to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
STATE = ROOT / ".perfbench"
DEADLINE_S = 170.0  # no single run may take three minutes
SETUP_PROBES = 8

sys.path.insert(0, str(HERE))
from spans import CHECK_IDS, VERDICTS  # noqa: E402


def _cases(spec: str):
    """'p,k,r flavor mode; ...' -> [(p, k, r, flavor, mode), ...]"""
    out = []
    for item in spec.split(";"):
        pkr, flavor, mode = item.split()
        p, k, r = map(int, pkr.split(","))
        out.append((p, k, r, flavor, mode))
    return out


# The default 24-case manifest without its GL2 cases of order 3888 and
# above: GL2(Z/9), GL2(F_3[t]/t^2), GL2(GR(4,2)) and GL2(F_4[t]/t^2).
VERIFY_CASES = [
    (p, k, r, flavor, mode)
    for (p, k, r) in [(2, 1, 1), (3, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)]
    for flavor in ("gl", "sl")
    for mode in ("mixed", "equal")
    if flavor == "sl" or (p, k, r) not in ((3, 1, 2), (2, 2, 2))
]

# Each workload is a list of steps; "tables" steps build, cache, reload and
# verify character tables, "verify" steps run `dl2 verify --manifest`.
# Every workload keeps one repetition to a few seconds, so that one run
# holds several repetitions (see README.md for the cases left out).
WORKLOADS = {
    # groups, dixon, orthogonality and both cache paths; no class-function
    # calculus
    "tables": [{"kind": "tables", "cases": _cases("3,1,2 gl mixed; 2,1,3 gl equal")}],
    # the researcher's command with no cache directory; the inflation
    # adjunction (inflate / kernel_average / inner_product) leads, and
    # every table is small
    "verify-manifest": [{"kind": "verify", "cases": VERIFY_CASES}],
    # every table check is inapplicable: torus, abelian and predictor do
    # almost all the work (brute-force conductor over 2352 characters,
    # peeling, classify_all recomputed per check); a dixon or characters
    # change should leave it unchanged
    "torus-q5": [{"kind": "verify", "cases": _cases("5,1,2 gl mixed; 7,1,2 gl mixed")}],
    # harness self-test: a few seconds, every step kind
    "smoke": [
        {"kind": "tables", "cases": _cases("2,1,1 gl mixed; 3,1,1 sl equal")},
        {
            "kind": "verify",
            "cases": [
                (p, 1, 1, flavor, mode)
                for p in (2, 3)
                for flavor in ("gl", "sl")
                for mode in ("mixed", "equal")
            ]
            + _cases("2,1,2 gl mixed"),
        },
    ],
}
BENCHMARK_WORKLOADS = ("tables", "verify-manifest", "torus-q5")

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (span name, field of the span summary)
LAYER_SPANS = {
    # tables
    "groups.conjugacy_s": ("groups.conjugacy", "total_s"),
    "groups.power_map_s": ("groups.power_map", "total_s"),
    "dixon.class_matrix_s": ("dixon.class_matrix", "total_s"),
    "dixon.class_matrix_calls": ("dixon.class_matrix", "calls"),
    "dixon.mod_l_self_s": ("dixon.mod_l", "self_s"),
    "dixon.lift_self_s": ("dixon.lift", "self_s"),
    "dixon.verify_orthogonality_s": ("dixon.verify_orthogonality", "total_s"),
    "characters.table_init_s": ("characters.table_init", "total_s"),
    "cache.save_table_s": ("cache.save_table", "total_s"),
    "cache.save_group_s": ("cache.save_group", "total_s"),
    "cache.load_table_s": ("cache.load_table", "total_s"),
    # verify-manifest
    "characters.adjunction_check_s": ("characters.adjunction_check", "total_s"),
    "characters.adjunction_check_calls": ("characters.adjunction_check", "calls"),
    "characters.inner_product_s": ("characters.inner_product", "total_s"),
    "characters.inner_product_calls": ("characters.inner_product", "calls"),
    "characters.kernel_average_s": ("characters.kernel_average", "total_s"),
    "characters.inflate_s": ("characters.inflate", "total_s"),
    # torus-q5
    "torus.make_torus_s": ("torus.make_torus", "total_s"),
    "torus.classify_all_s": ("torus.classify_all", "total_s"),
    "torus.classify_all_calls": ("torus.classify_all", "calls"),
    "torus.conductor_brute_force_s": ("torus.conductor_brute_force", "total_s"),
    "torus.conductor_by_peeling_s": ("torus.conductor_by_peeling", "total_s"),
    "predictor.predict_s": ("predictor.predict", "total_s"),
    "predictor.predict_calls": ("predictor.predict", "calls"),
    "weyl.sweep_classical_signs_s": ("weyl.sweep_classical_signs", "total_s"),
    # every workload
    **{f"verifier.check.{c}_s": (f"verifier.check.{c}", "total_s") for c in CHECK_IDS},
}
PER_LAYER = {
    **{m: ("count" if m.endswith("_calls") else "s") for m in LAYER_SPANS},
    "cache.bytes_written": "bytes",
    **{f"verifier.checks_{v}": "count" for v in VERDICTS},
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


class HarnessError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def case_key(p, k, r, flavor, mode) -> str:
    return f"p={p} k={k} r={r} flavor={flavor} mode={mode}"


def _deterministic(check: dict) -> dict:
    return {k: v for k, v in check.items() if k != "runtime_s"}


def report_checks(report: dict):
    """(case key, or "suite", and check) for every check of a verify report."""
    for case in report["cases"]:
        key = case_key(**case["case"])
        for check in case["checks"]:
            yield key, check
    for check in report["suite_checks"]:
        yield "suite", check


def load_reference() -> dict:
    try:
        return {
            "checks": json.loads((REFERENCE / "checks.json").read_text()),
            "tables": json.loads((REFERENCE / "tables.json").read_text()),
        }
    except FileNotFoundError as exc:
        raise HarnessError(f"missing reference file {exc.filename}") from exc


# ---------------------------------------------------------------------------
# workers


def spawn_worker(steps, trace: bool, tmp: Path, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    tmp.mkdir(parents=True)
    spec = {
        "src": str(SRC),
        "steps": steps,
        "trace": trace,
        "work_dir": str(tmp),
        "result": str(tmp / "result.json"),
    }
    (tmp / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("no time left for another worker")
    argv = [sys.executable, str(HERE / "worker.py"), str(tmp / "spec.json")]
    try:
        proc = subprocess.run(
            argv + [repr(time.monotonic())],
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not (tmp / "result.json").exists():
        raise HarnessError(
            f"worker exited with code {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads((tmp / "result.json").read_text())


# ---------------------------------------------------------------------------
# correctness gate


def check_tables(out: dict, ref: dict, problems: list) -> tuple[int, int]:
    failed = 0
    for row in out["tables"]:
        key = case_key(*row["case"])
        bad = []
        if "error" in row:
            bad.append("exception:\n" + row["error"])
        else:
            if not row["loaded"]:
                bad.append("load_table returned None")
            elif not row["verified"]:
                bad.append("verify() failed")
            if not row["round_trip_equal"]:
                bad.append("cache round trip differs")
            expected = ref.get(key, {}).get("sha256")
            if expected is not None and row["sha256"] != expected:
                bad.append("table differs from the reference")
        if bad:
            failed += 1
            problems.append(f"table {key}: " + "; ".join(bad))
    return len(out["tables"]), failed


def check_verify(out: dict, ref: dict, problems: list) -> tuple[int, int]:
    keys = [case_key(*c) for c in out["cases"]]
    if "error" in out:
        n = max(1, sum(len(ref.get(k, {})) for k in keys))
        problems.append("dl2 verify raised:\n" + out["error"])
        return n, n
    attempted = failed = 0
    seen = set()
    for key, check in report_checks(out["report"]):
        attempted += 1
        seen.add((key, check["check_id"]))
        expected = ref.get(key, {}).get(check["check_id"])
        if check["verdict"] in ("fail", "error"):
            failed += 1
            problems.append(f"{key} {check['check_id']}: verdict {check['verdict']}")
        elif expected is not None and _deterministic(check) != expected:
            failed += 1
            problems.append(f"{key} {check['check_id']}: differs from the reference")
    for key in keys:
        for check_id in ref.get(key, {}):
            if (key, check_id) not in seen:
                attempted += 1
                failed += 1
                problems.append(f"{key} {check_id}: missing from the report")
    return attempted, failed


def check_outputs(result: dict, reference: dict, problems: list) -> tuple[int, int]:
    attempted = failed = 0
    for out in result["steps"]:
        if out["kind"] == "tables":
            a, f = check_tables(out, reference["tables"], problems)
        else:
            a, f = check_verify(out, reference["checks"], problems)
        attempted += a
        failed += f
    return attempted, failed


# ---------------------------------------------------------------------------
# one run of one workload


def layer_metrics(result: dict) -> dict:
    spans = result["spans"]
    out = {}
    for metric, (name, field) in LAYER_SPANS.items():
        out[metric] = spans.get(name, {}).get(field, 0)
    out["cache.bytes_written"] = sum(s.get("bytes_written", 0) for s in result["steps"])
    for v in VERDICTS:
        out[f"verifier.checks_{v}"] = result["verdicts"][v]
    out["trace.spans"] = result["span_count"]
    return out


def generated_steps(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    steps = []
    for step in WORKLOADS[workload]:
        cases = list(step["cases"])
        rng.shuffle(cases)
        steps.append({**step, "cases": cases})
    return steps


def run_workload(workload, seed, seconds, trace, reference, tmp, deadline) -> dict:
    steps = generated_steps(workload, seed)
    counter = itertools.count()

    def spawn(steps_, traced):
        return spawn_worker(steps_, traced, tmp / f"w{next(counter)}", deadline)

    spawn([], False)  # fills the bytecode cache; not measured
    probes = [spawn([], False) for _ in range(SETUP_PROBES)]
    setups = [p["setup_s"] for p in probes]
    env = probes[0]["env"]

    problems: list[str] = []
    attempted = failed = 0
    untraced, traced, durations = [], [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        modes = [False, True] if trace else [False]
        if trace and len(durations) % 2:
            modes.reverse()
        for traced_mode in modes:
            result = spawn(steps, traced_mode)
            a, f = check_outputs(result, reference, problems)
            attempted += a
            failed += f
            (traced if traced_mode else untraced).append(result)
        durations.append(time.monotonic() - t0)
        now = time.monotonic()
        next_end = now + statistics.median(durations)
        if next_end > start + seconds or next_end > deadline:
            break

    setups += [r["setup_s"] for r in untraced]
    med = statistics.median
    e2e = {
        "wall_s": med(r["wall_s"] for r in untraced),
        "cpu_s": med(r["cpu_s"] for r in untraced),
        "setup_s": med(setups),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced),
    }
    layers = {}
    if trace:
        per_rep = [layer_metrics(r) for r in traced]
        layers = {
            # a count stays a whole number: the lower median is one of the samples
            m: (statistics.median_low if PER_LAYER[m] in ("count", "bytes") else med)(
                rep[m] for rep in per_rep
            )
            for m in per_rep[0]
        }
        layers["trace.wall_s"] = med(r["wall_s"] for r in traced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / e2e["wall_s"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "repetitions": len(durations),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": e2e,
        "per_layer": layers,
        "samples": {
            "setup_s": setups,
            "wall_s": [r["wall_s"] for r in untraced],
            "cpu_s": [r["cpu_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "traced_wall_s": [r["wall_s"] for r in traced],
        },
        "span_tree": traced[0]["span_tree"] if traced else None,
        "env": env,
    }


# ---------------------------------------------------------------------------
# reference recording


def record_reference(tmp: Path, deadline: float):
    """Write reference/ from the outputs of the current code, one worker
    per workload.  Only for code whose verdicts are known to be right."""
    checks, tables = {}, {}
    for i, workload in enumerate(WORKLOADS):
        result = spawn_worker(WORKLOADS[workload], False, tmp / f"r{i}", deadline)
        for out in result["steps"]:
            if out["kind"] == "tables":
                for row in out["tables"]:
                    if "error" in row or not (row["verified"] and row["round_trip_equal"]):
                        raise HarnessError(f"{workload}: table {row['case']} is not valid")
                    tables[case_key(*row["case"])] = {"sha256": row["sha256"]}
                continue
            if "error" in out:
                raise HarnessError(f"{workload}: dl2 verify raised:\n{out['error']}")
            for key, check in report_checks(out["report"]):
                if check["verdict"] in ("fail", "error"):
                    raise HarnessError(f"{workload}: {key} {check['check_id']} failed")
                checks.setdefault(key, {})[check["check_id"]] = _deterministic(check)
        print(f"recorded {workload}", flush=True)
    REFERENCE.mkdir(exist_ok=True)
    for name, data in (("checks", checks), ("tables", tables)):
        text = json.dumps(data, indent=1, sort_keys=True)
        (REFERENCE / f"{name}.json").write_text(text + "\n")


# ---------------------------------------------------------------------------
# command line


def host_speed_s() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host is right now."""
    t0 = time.monotonic()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return time.monotonic() - t0


def environment_record(env: dict, before, after) -> dict:
    """before/after: (load average, host_speed_s()) at the start and end."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(before[0]),
        "loadavg_end": list(after[0]),
        "host_speed_s_start": before[1],
        "host_speed_s_end": after[1],
        **env,
    }


def report_run(run: dict) -> dict:
    """Print one run's metrics, one per line with its unit; return them."""
    fail_frac = run["failed"] / max(1, run["attempted"])
    print(
        f"{run['workload']}: {run['repetitions']} repetition(s), "
        f"{run['attempted']} operations attempted, {run['failed']} failed"
    )
    for problem in run["problems"][:20]:
        print("  FAIL " + problem.splitlines()[0])
    if run["trace"]:
        metrics = {m: (run["per_layer"][m], PER_LAYER[m]) for m in PER_LAYER}
    else:
        metrics = {m: (run["end_to_end"][m], unit) for m, unit in END_TO_END.items()}
    lines = dict(metrics)
    lines["fail_frac"] = (fail_frac, "ratio")
    for name, (value, unit) in lines.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true", help="rewrite reference/ from this code")
    args = ap.parse_args(argv)
    if not args.record and args.workload is None:
        ap.error("--workload is required")
    t_begin = time.monotonic()

    if sys.flags.optimize:
        print("refusing to run under -O: CharacterTable.verify() decides by assert",
              file=sys.stderr)
        return 2
    if not (SRC / "dl2" / "__init__.py").is_file():
        print(f"no dl2 sources under {SRC}", file=sys.stderr)
        return 2

    tmp = STATE / f"tmp-{os.getpid()}"
    try:
        if args.record:
            record_reference(tmp, t_begin + 600)
            return 0
        reference = load_reference()
        before = (os.getloadavg(), host_speed_s())
        names = BENCHMARK_WORKLOADS if args.workload == "all" else [args.workload]
        deadline = t_begin + DEADLINE_S * len(names)
        runs = [
            run_workload(name, args.seed, args.seconds, bool(args.trace), reference,
                         tmp / name, deadline)
            for name in names
        ]
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = environment_record(runs[0]["env"], before, (os.getloadavg(), host_speed_s()))
    print("environment: " + json.dumps(env, sort_keys=True))
    metrics = {}
    for run in runs:
        run["env"] = env
        shown = report_run(run)
        prefix = f"{run['workload']}." if len(runs) > 1 else ""
        metrics.update({prefix + name: m for name, m in shown.items()})
        results = STATE / "results"
        results.mkdir(parents=True, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        path = results / f"{run['workload']}-seed{args.seed}-trace{args.trace}-{stamp}.json"
        path.write_text(json.dumps(run, indent=1, sort_keys=True) + "\n")

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
