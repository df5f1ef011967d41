"""One benchmark repetition, in a fresh interpreter.

    python3 perfbench/worker.py SPEC_JSON SPAWN_TIME

`run.py` starts one worker per repetition, so no process-lifetime cache of
dl2 (`make_group`, `make_torus`, `_TABLE_CACHE`, ...) survives from one
repetition to the next.  SPAWN_TIME is the parent's `time.monotonic()` just
before the spawn; the clock is system-wide on Linux, so set-up time is
measured from the spawn until `import dl2` returns.

The worker runs the steps of the spec, times them from the first call into
dl2 to the last verdict, and writes the outputs to the spec's result file.
Checking the outputs against the reference is left to `run.py`.
"""

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def table_digest(table) -> str:
    text = json.dumps(table.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_tables(step, work_dir):
    """cached_character_table into a fresh cache, load_table, verify()."""
    import dl2.cache

    cache_dir = Path(work_dir) / "cache"
    cache_dir.mkdir()
    done = []
    for case in step["cases"]:
        p, k, r, flavor, mode = case
        row = {"case": case}
        try:
            built = dl2.cache.cached_character_table(p, k, r, mode, flavor, str(cache_dir))
            loaded = dl2.cache.load_table(p, k, r, mode, flavor, cache_dir)
            row["loaded"] = loaded is not None
            if loaded is not None:
                try:
                    loaded.verify()
                    row["verified"] = True
                except AssertionError:
                    row["verified"] = False
            done.append((row, built, loaded))
        except Exception:
            row["error"] = traceback.format_exc()
            done.append((row, None, None))
    return {"kind": "tables", "cache_dir": cache_dir, "done": done}


def finish_tables(pending):
    rows = []
    for row, built, loaded in pending["done"]:
        if built is not None:
            row["sha256"] = table_digest(built)
            row["round_trip_equal"] = (
                loaded is not None and loaded.to_json_dict() == built.to_json_dict()
            )
        rows.append(row)
    written = sum(f.stat().st_size for f in pending["cache_dir"].iterdir())
    return {"kind": "tables", "tables": rows, "bytes_written": written}


def run_verify(step, work_dir):
    """`dl2 verify --manifest` on the step's cases, with no cache directory."""
    import dl2.cli

    manifest = Path(work_dir) / "manifest.txt"
    manifest.write_text(
        "".join(f"p={p} k={k} r={r} flavor={f} mode={m}\n" for p, k, r, f, m in step["cases"])
    )
    report = Path(work_dir) / "report.json"
    out = {"kind": "verify", "cases": step["cases"], "report_path": report}
    try:
        out["exit_code"] = dl2.cli.main(
            ["verify", "--manifest", str(manifest), "--report", str(report)]
        )
    except Exception:
        out["error"] = traceback.format_exc()
    return out


def finish_verify(pending):
    out = {k: v for k, v in pending.items() if k != "report_path"}
    if "error" not in out:
        out["report"] = json.loads(pending["report_path"].read_text())
    return out


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(spec_path: str, spawn_time: float) -> int:
    if sys.flags.optimize:
        print("worker: refusing to run with -O; table verification uses assert", file=sys.stderr)
        return 2
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"])
    sys.path.insert(0, str(src))
    import dl2
    import dl2.cache
    import dl2.cli

    setup_s = time.monotonic() - spawn_time
    if Path(dl2.__file__).resolve().parent != (src / "dl2").resolve():
        print(f"worker: imported dl2 from {dl2.__file__}, not {src}", file=sys.stderr)
        return 2

    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    runners = {"tables": run_tables, "verify": run_verify}
    finishers = {"tables": finish_tables, "verify": finish_verify}
    work_dir = Path(spec["work_dir"])
    pending = []
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.monotonic()
    for i, step in enumerate(spec["steps"]):
        step_dir = work_dir / f"step{i}"
        step_dir.mkdir()
        pending.append(runners[step["kind"]](step, step_dir))
    wall_s = time.monotonic() - t0
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
        "peak_rss_mb": cpu1.ru_maxrss / 1024.0,
        "steps": [finishers[p["kind"]](p) for p in pending],
        "env": environment(),
    }
    if recorder is not None:
        result["spans"] = recorder.summary()
        result["span_tree"] = recorder.tree()
        result["span_count"] = len(recorder.finished)
        result["verdicts"] = recorder.verdicts
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], float(sys.argv[2])))
