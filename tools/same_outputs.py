#!/usr/bin/env python3
"""Byte-compare the run outputs of two revisions on one small config.

    python3 tools/same_outputs.py d5d5a49 HEAD

Each side is a git revision, exported into a fresh directory with
bench_pairs.export, or a path to an existing checkout. In each, `ttalab
pipeline` runs the config of tests/test_cli.py at percentile 60 with traces
dumped, once per strategy, all in one workdir. rand10 also runs at seeds 5
and 6, so that its arm averages three runs when `ttalab compare` then takes
every run directory; `ttalab evaluate` runs on each of them. Every
report.csv, budget.csv and traces/*.json, the comparison's .csv and .json,
each evaluate stdout and each summary.json without its wall times
(stage_seconds and runtime_seconds) are then compared byte for byte, as are
the set-up artifacts they rest on: each run manifest's task_checksum and
suite_checksum, and the workdir's dataset content_sha256 (data/index.json).
The tool names each output that differs or exists on one side only, and
exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export

# the config of tests/test_cli.py
CONFIG = {
    "seed": 4,
    "data": {"kind": "denoise", "image_size": 16, "train": 20, "calib": 12,
             "id_test": 8, "ood_test": 8, "noise_sigma": 0.2, "noise_mix": 0.5,
             "shift": {"noise_mult": 2.0, "gamma": 1.0, "blur": 0.0}, "seed": 4},
    "task_hold": 2, "task_decay": 2,
    "recon_hold": 1, "recon_decay": 2,
    "steps": 2,
}
# (strategy, extra flags)
RUNS = [(s, []) for s in ("grid", "rand10", "rand50", "fs", "fs-literal", "be", "tpe",
                          "static-all")]
RUNS += [("rand10", ["--seed", str(seed)]) for seed in (5, 6)]
# set-up artifacts, by file pattern: the fields that do not name the workdir
SETUP_FIELDS = {"*/runs/*/manifest.json": ("task_checksum", "suite_checksum"),
                "*/data/index.json": ("content_sha256",)}
# summary.json fields that differ from run to run of one tree
TIMED_FIELDS = ("stage_seconds", "runtime_seconds")
MAIN = "import sys; from ttalab.cli import main; sys.exit(main(sys.argv[1:]))"


def ttalab(checkout: Path, *args: str) -> bytes:
    """stdout of `ttalab ARGS` run from checkout's source; exits if the command fails."""
    proc = subprocess.run([sys.executable, "-c", MAIN, *args], cwd=checkout,
                          capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(checkout / "src")})
    if proc.returncode != 0:
        sys.exit(f"{checkout}: ttalab {' '.join(args)} failed "
                 f"({proc.returncode}):\n{proc.stderr.decode()}")
    return proc.stdout


def run_all(checkout: Path, work: Path) -> dict[str, bytes]:
    """Every compared output of the runs in checkout, by path relative to work."""
    cfg = work / "config.json"
    work.mkdir(parents=True)
    cfg.write_text(json.dumps(CONFIG))
    for strategy, extra in RUNS:
        ttalab(checkout, "pipeline", "--config", str(cfg), "--workdir", str(work / "w"),
               "--strategy", strategy, "--percentile", "60", "--dump-traces", *extra)
    run_dirs = sorted((work / "w" / "runs").iterdir())
    ttalab(checkout, "compare", *map(str, run_dirs), "--out", str(work / "comparison"))
    patterns = ("*/runs/*/report.csv", "*/runs/*/budget.csv", "*/runs/*/traces/*.json",
                "comparison.*")
    outputs = {str(p.relative_to(work)): p.read_bytes()
               for pattern in patterns for p in work.glob(pattern)}
    for pattern, keys in SETUP_FIELDS.items():
        for p in work.glob(pattern):
            record = json.loads(p.read_text())
            outputs.update({f"{p.relative_to(work)} {key}": record[key].encode()
                            for key in keys})
    for p in work.glob("*/runs/*/summary.json"):
        summary = {k: v for k, v in json.loads(p.read_text()).items() if k not in TIMED_FIELDS}
        outputs[f"{p.relative_to(work)} (untimed)"] = json.dumps(summary, indent=2).encode()
    for d in run_dirs:
        outputs[f"{d.relative_to(work)} (evaluate stdout)"] = ttalab(checkout, "evaluate", str(d))
    return outputs


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="git revision or checkout directory")
    p.add_argument("change", help="git revision or checkout directory")
    args = p.parse_args()
    scratch = Path(tempfile.mkdtemp(prefix="same_outputs-"))
    try:
        outputs = {side: run_all(export(rev, scratch / side), scratch / f"{side}-work")
                   for side, rev in (("parent", args.parent), ("change", args.change))}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    parent, change = outputs["parent"], outputs["change"]
    differing = sorted(name for name in parent.keys() | change.keys()
                       if parent.get(name) != change.get(name))
    for name in differing:
        where = "differs" if name in parent and name in change else \
            f"only in {'parent' if name in parent else 'change'}"
        print(f"{name}: {where}")
    same = sum(change.get(name) == blob for name, blob in parent.items())
    print(f"{same} outputs byte-identical, {len(differing)} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
