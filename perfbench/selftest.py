"""Self-test of the benchmark harness, on the few-second `smoke` workload.

    python3 perfbench/selftest.py

Checks that
  * with `--trace 0` and `--trace 1` the last line of output is a correct
    result carrying every metric BENCHMARK.json names, with its unit;
  * a reference with one check and one table corrupted makes exactly those
    operations fail;
  * the benchmark refuses to run under `python -O`, and without the dl2
    sources, printing no result in either case.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SMOKE = ["--workload", "smoke", "--seed", "7", "--seconds", "1"]


def benchmark_cli(args, python_flags=(), cwd=run.ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, *python_flags, str(script), *args],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


def last_json_line(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def test_every_metric_is_printed_with_its_unit():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = benchmark_cli(SMOKE + ["--trace", str(trace)])
        assert proc.returncode == 0, proc.stderr
        result = last_json_line(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        expected = {m["name"]: m["unit"] for m in bench[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == expected, (trace, set(printed) ^ set(expected))
        shown = {
            (words[0], words[-1])
            for words in map(str.split, proc.stdout.splitlines()[:-1])
            if len(words) == 3
        }
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
            assert (name, metric["unit"]) in shown, name


def test_corrupted_reference_is_a_failure():
    reference = copy.deepcopy(run.load_reference())
    key = run.case_key(2, 1, 1, "gl", "mixed")
    reference["checks"][key]["group-order"]["computed"]["order"] += 1
    reference["tables"][key]["sha256"] = "0" * 64
    tmp = run.STATE / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        out = run.run_workload("smoke", 7, 0.1, False, reference, tmp, time.monotonic() + 170)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    reps = out["repetitions"]
    assert out["failed"] == 2 * reps, out["problems"]
    assert sum("group-order: differs" in p for p in out["problems"]) == reps
    assert sum("differs from the reference" in p and p.startswith("table") for p in out["problems"]) == reps


def test_refuses_under_optimize():
    proc = benchmark_cli(SMOKE + ["--trace", "0"], python_flags=["-O"])
    assert proc.returncode != 0
    assert last_json_line(proc.stdout) is None


def test_fails_without_dl2_sources():
    bare = run.STATE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = benchmark_cli(SMOKE + ["--trace", "0"], cwd=bare,
                             script=bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert last_json_line(proc.stdout) is None


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            t0 = time.monotonic()
            fn()
            print(f"ok  {name}  ({time.monotonic() - t0:.1f} s)")
