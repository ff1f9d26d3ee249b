"""Run one workload of the gradedfve solver benchmark.

    python3 perfbench/run.py --workload pgmres_large --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.
Workloads: ``pgmres_large``, ``qscan_direct``, ``spectral_diag`` (see
``perfbench/workloads.py``).  The report goes to standard output and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``
(which also writes its spans under ``perfbench/out/``).  BLAS threads are
capped at the number of usable processors.  Exits 2 without a result when
``src/gradedfve`` cannot be imported.

Tests of the benchmark itself: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every size (self-tests)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(nproc)
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import gradedfve
    except ImportError as exc:
        print(f"cannot import gradedfve from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(gradedfve.__file__).resolve().parents:
        print(f"gradedfve was imported from {gradedfve.__file__}, not {src}", file=sys.stderr)
        return 2

    from perfbench import harness, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return harness.setup_probe(args.workload, args.seed, args.tiny)
    result = harness.run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), tiny=args.tiny,
        out_dir=ROOT / "perfbench" / "out",
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
