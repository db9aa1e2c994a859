"""Seconds-long check of the benchmark code itself, on tiny grids.

    python3 perfbench/smoke.py

Runs every workload through run.py at ``--scale smoke`` with and without
tracing and checks the shape of what comes back: the last line's keys, the
metric names and units against BENCHMARK.json, that every round finished
and reproduced its digest, and that the traced counts are present.  The
convergence checks are computed but not required to pass on grids this
coarse.  Also checks the self-time arithmetic on hand-made spans, and that
the benchmark refuses to run without the program's sources.  Exits non-zero
on the first mismatch.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from tracing import Span, self_times  # noqa: E402


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def fail(message: str) -> None:
    raise SystemExit(f"smoke: {message}")


def check_self_times() -> None:
    spans = [Span(1, "outer", 0.0, 10.0, 1, None),
             Span(2, "child", 1.0, 3.0, 1, 1),
             Span(3, "child", 2.0, 4.0, 1, 1),    # overlaps the first child
             Span(4, "grandchild", 2.5, 3.5, 1, 3)]
    got = self_times(spans)
    if got != {1: 7.0, 2: 2.0, 3: 1.0, 4: 1.0}:
        fail(f"self times {got}")


def check_refuses_without_sources() -> None:
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, lines = run(["--workload", "sweep-drift", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or lines:
        fail(f"ran without sources: exit {code}, output {lines}")


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_self_times()
    check_refuses_without_sources()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            _, lines = run(["--workload", workload, "--seed", "7",
                            "--seconds", "0", "--trace", str(trace),
                            "--scale", "smoke"])
            if len(lines) < 2:
                fail(f"{workload} trace {trace}: no result")
            last = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(last)}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            if got != want:
                fail(f"{workload} trace {trace}: metrics {got}")
            if last["failed"] or last["attempted"] != len(record["rounds"]):
                fail(f"{workload} trace {trace}: {last['failed']} of "
                     f"{last['attempted']} rounds failed")
            for rd in record["rounds"]:
                if not rd["reproduced"] or not rd["checks"]:
                    fail(f"{workload} round {rd['round']}: {rd}")
                if rd["traced"] and "kinetic_fv.steps" not in rd["counts"]:
                    fail(f"{workload} round {rd['round']}: no traced counts")
            print(f"{workload} trace {trace}: {last['attempted']} rounds, "
                  f"checks {'pass' if last['correct'] else 'computed'}")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
