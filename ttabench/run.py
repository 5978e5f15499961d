#!/usr/bin/env python3
"""ttalab benchmark: build a stack from nothing, then time run_tta on one workload.

    python3 ttabench/run.py --workload ood-grid --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; ttalab is imported from ./src. The last line
of stdout is the result: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics when --trace 0 and the per-layer metrics when
--trace 1. The line before it carries run information (seed, thread count,
numpy and BLAS versions, triggered count, failing checks, raw wall-clock
figures). Workloads: ood-grid, ood-fs, id-stream (see README.md).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="ood-grid, ood-fs or id-stream")
    p.add_argument("--seed", type=int, required=True,
                   help="feeds the data spec and the model seed")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="run_tta time to measure; whole rounds, so a run ends at or past it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="BLAS threads; one is the steadiest (see README)")
    p.add_argument("--build-stack", metavar="DIR",
                   help="set-up process mode: build one stack in DIR and print its record")
    return p


def main() -> int:
    p = build_parser()
    args = p.parse_args()
    if not 1 <= args.threads <= len(os.sched_getaffinity(0)):
        p.error("--threads must be between 1 and the number of available CPUs")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "ttalab" / "__init__.py").is_file():
        print(f"ttabench: no ttalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(args.threads)
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    if args.workload not in harness.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; pick one of {sorted(harness.WORKLOADS)}")
    if args.build_stack:
        harness.setup_child(args.workload, args.seed, Path(args.build_stack))
        return 0
    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), args.threads)


if __name__ == "__main__":
    sys.exit(main())
