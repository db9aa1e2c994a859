"""The heavykin benchmark: run one workload for a set time, print its metrics.

    python3 perfbench/run.py --workload sweep-drift --seed 12345 \
        --seconds 30 --trace 0

Rounds of the workload run back to back, each in a fresh process
(worker.py) with the BLAS thread count pinned to 1, until ``--seconds`` have
passed (and at least three rounds ran).  With ``--trace 0`` the last line of
stdout reports the end-to-end metrics as medians over the rounds; with
``--trace 1`` untraced and traced rounds alternate, and it reports the
per-layer metrics (medians over the traced rounds) and the tracing overhead.
Metric names and units come from BENCHMARK.json.  The line before it is a
record of every round (environment, checks, fragile verdicts, digests), also
written under perfbench/out/runs/.

One operation is one round: it fails when its process does not finish, or
when its report digest or exact counts differ from the first round's.
``correct`` says whether every check of every finished round passed.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
WORKLOADS = ("sweep-drift", "sweep-degenerate", "particle-xcheck")
ACCEPTANCE_SEEDS = {"sweep-drift": 12345, "sweep-degenerate": 12345,
                    "particle-xcheck": 999}
MIN_ROUNDS = 3
DEADLINE_S = 170.0   # a run must be over within 180 s


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_round(workload: str, seed: int, index: int, traced: bool,
              scale: str, timeout: float) -> dict | None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    spawned = monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--spawned", repr(spawned),
           "--round", str(index), "--scale", scale]
    if traced:
        cmd.append("--trace")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"round {index}: timed out after {timeout:.0f} s",
              file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"round {index}: worker exited {proc.returncode}\n{err[-4000:]}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def reproduces(rec: dict, reference: dict) -> bool:
    """Digest and exact counts equal to the first round that reported them."""
    ok = rec["digest"] == reference.setdefault("digest", rec["digest"])
    for key, value in rec["counts"].items():
        ok = ok and value == reference.setdefault(key, value)
    return ok


def provenance() -> dict:
    """Which program was measured: git commit if any, and a source digest."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def end_to_end(rounds: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rounds)
            for k in ("wall_s", "setup_s", "peak_rss_mb")}


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    out = {k: statistics.median(r["layers"][k] for r in traced)
           for k in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the acceptance seed)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full", choices=("full", "smoke"),
                    help="smoke: tiny grids, for checking the benchmark code")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "heavykin" / "__init__.py").is_file():
        print(f"no heavykin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    if args.seed is None:
        args.seed = ACCEPTANCE_SEEDS[args.workload]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    started = monotonic()
    rounds: list[dict] = []
    reference: dict = {}
    attempted = failed = 0
    longest = 0.0
    while True:
        elapsed = monotonic() - started
        enough = elapsed >= args.seconds and attempted >= (
            2 if args.trace else MIN_ROUNDS)
        if enough and not (args.trace and attempted % 2):
            break
        if elapsed + 1.5 * longest > DEADLINE_S:
            break
        t0 = monotonic()
        rec = run_round(args.workload, args.seed, attempted,
                        bool(args.trace and attempted % 2), args.scale,
                        DEADLINE_S - elapsed)
        longest = max(longest, monotonic() - t0)
        attempted += 1
        if rec is None:
            failed += 1
            continue
        rec["reproduced"] = reproduces(rec, reference)
        if not rec["reproduced"]:
            failed += 1
        rounds.append(rec)

    if not rounds:
        print("no round finished", file=sys.stderr)
        return 1
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if args.trace:
        if not traced or not plain:
            print("a traced run needs a traced and an untraced round",
                  file=sys.stderr)
            return 1
        values, units = per_layer(traced, plain), declared["per_layer"]
    else:
        values, units = end_to_end(plain), declared["end_to_end"]
    if set(values) != set(units):
        print(f"metrics {sorted(values)} do not match BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    correct = all(c["ok"] for r in rounds for c in r["checks"].values())

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "scale": args.scale,
              "environment": rounds[0]["environment"], **provenance(),
              "rounds": [{k: v for k, v in r.items() if k != "environment"}
                         for r in rounds]}
    runs_dir = ROOT / "perfbench" / "out" / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    with open(runs_dir / f"{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": int(values[k]) if units[k] == "count"
                        else values[k], "unit": units[k]}
                    for k in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
