"""One round of one workload, in a fresh process.

Started by run.py with the spawn time on the system-wide monotonic clock, so
that set-up time covers process start, ``import heavykin``, config parse and
grid construction.  Prints one JSON record as its last line of stdout.

    python3 perfbench/worker.py --workload sweep-drift --seed 12345 \
        --spawned <CLOCK_MONOTONIC seconds> [--trace] [--scale smoke]
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment() -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--scale", default="full", choices=("full", "smoke"))
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import heavykin
    if Path(heavykin.__file__).resolve().parent != SRC / "heavykin":
        raise SystemExit(f"heavykin imported from {heavykin.__file__}, "
                         f"not from {SRC}")
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from tracing import EXACT_COUNTS, Tracer, layer_metrics

    rd = workloads.setup(args.workload, args.seed, args.scale)
    setup_s = monotonic() - args.spawned

    tracer = Tracer().install() if args.trace else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        started = time.perf_counter()
        try:
            workloads.run(rd)
        finally:
            wall_s = time.perf_counter() - started
            if tracer is not None:
                tracer.restore()

    digest, counts = workloads.fingerprint(rd)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "round": args.round,
        "traced": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "checks": workloads.check(rd),
        "fragile": workloads.fragile(rd),
        "verdicts": workloads.verdicts(rd),
        "digest": digest,
        "counts": counts,
        "warnings": sorted({str(w.message) for w in caught}),
        "environment": environment(),
    }
    if tracer is not None:
        layers = layer_metrics(tracer.spans)
        record["layers"] = layers
        record["counts"].update({k: layers[k] for k in EXACT_COUNTS})
        spans_dir = ROOT / "perfbench" / "out" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_dir / f"{args.workload}-seed{args.seed}"
                                f"-round{args.round}.json")
    # ru_maxrss is in KiB on Linux; the metric is in 10^6 bytes
    record["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
