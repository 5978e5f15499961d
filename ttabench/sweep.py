#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 ttabench/sweep.py --workloads ood-grid ood-fs id-stream --seeds 0-9

For every workload and metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, the quartile spread as a share
of the median, and the failed share of attempted samples over all runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("0-9"), help="a range such as 0-9")
    args = p.parse_args()
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)],
                capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
                return 1
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        print(f"== {workload}: {len(args.seeds)} runs, failed {failed}/{attempted}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{name:36s} median {med:10.4g} {units[name]:10s} q1 {q1:10.4g} "
                  f"q3 {q3:10.4g} spread {spread:6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
