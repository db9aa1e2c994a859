"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload sweep-drift --runs 10

Runs the benchmark once per seed (fresh ``run.py`` process each) and prints,
per end-to-end metric, the median over the runs and the distance between
the first and third quartiles as a share of that median, next to the bound
from BENCHMARK.json.  A benchmark is steady when every share except that
of setup_s is below a third of its bound.  Also prints the failed share of
operations of every run, which must be identical between runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=200)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(last)
        print(json.dumps({"seed": seed, "exit": proc.returncode, **last}),
              flush=True)

    summary = {"workload": args.workload, "runs": len(results),
               "correct": all(r["correct"] for r in results),
               "failed_shares": sorted({r["failed"] / r["attempted"]
                                        for r in results})}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[metric["name"]] = {"median": med,
                                   "iqr_share": (q3 - q1) / med,
                                   "bound": metric["bound"]}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
