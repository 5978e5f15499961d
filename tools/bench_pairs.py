#!/usr/bin/env python3
"""Alternating parent/change pairs of ttabench runs, summarised into one record.

    python3 tools/bench_pairs.py --parent 78741b7 --change HEAD \
        --workloads ood-grid ood-fs id-stream ood-grid@7 --out BENCH_7.json

Each side is a git revision, exported into a fresh directory with
`git archive` (no worktree is registered in the repository), or a path to an
existing checkout. A workload runs at seed 0 unless it is named as
WORKLOAD@SEED. Each run lasts BENCHMARK.json's run_seconds. Pair i of 10
runs `ttabench/run.py` once on each side, the parent first on even i and the
change first on odd i, so a drift in host speed lands on both sides alike.

The record's header names the environment variables that shape a run: every
MALLOC_* variable that is set, and the BLAS thread counts, bytecode and hash
seed variables (null where unset). The runs inherit them.

The record keeps the raw info and result line of every run and, per workload,
seed and end-to-end metric of BENCHMARK.json: both medians, the parent's
quartiles (statistics.quantiles with n=4), the change/parent ratio of the
medians, and the number of pairs in which the change was better. Per
workload it also counts each side's incorrect runs and failed samples.

The record is written after every pair, so a run that fails loses none of the
pairs before it: the record then names the failed run (side, workload, seed,
pair index, exit code, the tail of its stderr) under "failed", and the tool
exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PAIRS = 10
STDERR_TAIL_LINES = 40
RUN_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
           "PYTHONDONTWRITEBYTECODE", "PYTHONHASHSEED")


def export(rev: str, into: Path) -> Path:
    """A checkout of rev: the directory itself if rev names one, else a git archive of it."""
    if Path(rev).is_dir():
        return Path(rev).resolve()
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_env() -> dict:
    """The set MALLOC_* variables and RUN_ENV's variables (None where unset)."""
    env = {k: os.environ.get(k) for k in RUN_ENV}
    return env | {k: v for k, v in sorted(os.environ.items()) if k.startswith("MALLOC_")}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The run's info and result lines, or, if it failed, its exit code and stderr tail."""
    cmd = [sys.executable, "ttabench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"exit_code": proc.returncode,
                "stderr_tail": proc.stderr.splitlines()[-STDERR_TAIL_LINES:]}
    return {"info": json.loads(lines[-2])["info"], "result": json.loads(lines[-1])}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: medians, the parent's quartiles, the ratio and the win count."""
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        vals = {side: [r[side]["result"]["metrics"][name]["value"] for r in runs]
                for side in ("parent", "change")}
        q1, _, q3 = statistics.quantiles(vals["parent"], n=4)
        med_p, med_c = statistics.median(vals["parent"]), statistics.median(vals["change"])
        wins = sum((c > p) if higher else (c < p) for p, c in zip(vals["parent"], vals["change"]))
        out[name] = {"unit": m["unit"], "better": m["better"], "parent_median": med_p,
                     "change_median": med_c, "parent_q1": q1, "parent_q3": q3,
                     "ratio": med_c / med_p, "change_wins": wins, "pairs": len(runs)}
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision or checkout directory")
    p.add_argument("--change", required=True, help="git revision or checkout directory")
    p.add_argument("--workloads", nargs="+", default=["ood-grid", "ood-fs", "id-stream"],
                   help="workload names, each optionally as WORKLOAD@SEED")
    p.add_argument("--out", required=True, help="JSON record to write")
    args = p.parse_args()
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        sides = {"parent": export(args.parent, scratch / "parent"),
                 "change": export(args.change, scratch / "change")}
        record = {"parent": args.parent, "change": args.change, "seconds": seconds,
                  "pairs": PAIRS, "env": run_env(), "results": []}

        def save() -> None:
            Path(args.out).write_text(json.dumps(record, indent=1) + "\n")

        for spec in args.workloads:
            workload, _, seed = spec.partition("@")
            seed = int(seed or 0)
            runs = []
            entry = {"workload": workload, "seed": seed, "runs": runs}
            record["results"].append(entry)
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {}
                for side in order:
                    pair[side] = run_once(sides[side], workload, seed, seconds)
                    if "result" not in pair[side]:
                        record["failed"] = {"side": side, "workload": workload, "seed": seed,
                                            "pair": i, **pair[side]}
                        save()
                        print(f"{workload}@{seed} pair {i + 1}/{PAIRS}: {side} failed "
                              f"({pair[side]['exit_code']}); see {args.out}", file=sys.stderr)
                        return 1
                runs.append(pair)
                save()
                print(f"{workload}@{seed} pair {i + 1}/{PAIRS}: " + ", ".join(
                    f"{side} {pair[side]['result']['metrics']['samples_per_s']['value']:.3f}"
                    for side in ("parent", "change")), file=sys.stderr, flush=True)
            entry["summary"] = summarise(runs, metrics)
            entry["checks"] = {
                side: {"incorrect_runs": sum(not r[side]["result"]["correct"] for r in runs),
                       "failed": sum(r[side]["result"]["failed"] for r in runs),
                       "attempted": sum(r[side]["result"]["attempted"] for r in runs)}
                for side in ("parent", "change")}
            save()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
