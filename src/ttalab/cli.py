"""Command-line interface.

Every subcommand reads an optional JSON config (--config) and applies flag
overrides on top; the workflow is gen-data -> train-task -> train-recon ->
calibrate -> pipeline -> evaluate -> compare. `pipeline` runs the whole chain,
reusing what the earlier steps left in the workdir.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

from .data import gen_dataset
from .pipeline import (RunConfig, RunConflict, arm_labels, calibrate_tau,
                       compare_strategies, ensure_dataset, ensure_suite, ensure_task,
                       metrics_summary, open_run_dir, pipeline_run, read_report_csv, run_tta,
                       write_wilcoxon_csv)
from .search import STRATEGY_NAMES


# flags for a field of the data's shift (a flag named after a RunConfig field sets it)
_SHIFT_FLAGS = {"noise_mult": "noise_mult", "shift_gamma": "gamma", "shift_blur": "blur"}


def _load_config(args) -> RunConfig:
    """The --config file, or the defaults, with every given flag on top."""
    cfg = RunConfig.from_dict(json.loads(Path(args.config).read_text())) if args.config \
        else RunConfig()
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if getattr(args, f.name, None) is not None}
    shift = {field: getattr(args, flag) for flag, field in _SHIFT_FLAGS.items()
             if getattr(args, flag, None) is not None}
    if shift:
        overrides["data"] = replace(cfg.data, shift=replace(cfg.data.shift, **shift))
    return cfg.with_overrides(**overrides)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--workdir", help="working directory for artifacts")
    p.add_argument("--seed", type=int, help="global seed")


def _add_tta_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=STRATEGY_NAMES)
    p.add_argument("--percentile", type=float, help="threshold percentile in (0, 100)")
    p.add_argument("--steps", type=int, help="adaptation steps M per configuration")
    p.add_argument("--adaptor-lr", dest="adaptor_lr", type=float)
    # store_true flags default to None, so an unset flag leaves the config alone
    p.add_argument("--tau-transductive", dest="tau_transductive", action="store_true",
                   default=None, help="calibrate tau on the test set instead of the held-out split")
    p.add_argument("--dump-traces", dest="dump_traces", action="store_true", default=None)
    p.add_argument("--noise-mult", dest="noise_mult", type=float,
                   help="OOD noise sigma multiplier")
    p.add_argument("--shift-gamma", dest="shift_gamma", type=float)
    p.add_argument("--shift-blur", dest="shift_blur", type=float)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ttalab",
                                     description="sample-aware TTA engine and benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in [
        ("gen-data", "generate the synthetic dataset"),
        ("train-task", "train the translation task model"),
        ("train-recon", "train the reconstruction suite"),
        ("calibrate", "compute the trigger threshold tau"),
        ("evaluate", "recompute aggregates from a run's report.csv"),
        ("compare", "pairwise Wilcoxon comparison of runs"),
        ("dump-traces", "re-run listed samples and dump their step traces"),
        ("pipeline", "gate and adapt the test set, building what the workdir lacks"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name in ("pipeline", "calibrate", "dump-traces"):
            _add_tta_flags(p)
        if name == "gen-data":
            p.add_argument("--dump-pgm", action="store_true",
                           help="also write 8-bit PGM previews")
        if name == "evaluate":
            p.add_argument("run_dir", help="run directory containing report.csv")
        if name == "compare":
            p.add_argument("run_dirs", nargs="+", help="two or more run directories")
            p.add_argument("--out", default="comparison", help="output path stem")
        if name == "dump-traces":
            p.add_argument("--sample-id", dest="sample_ids", action="append", required=True,
                           help="sample id to trace (repeatable)")

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args) if args.command != "evaluate" else None
    except (OSError, ValueError) as err:  # a --config file that does not read, or a bad value
        parser.error(f"invalid config: {err}")
    # the pipeline's reasons for reusing or rebuilding an artifact go to stderr
    log = logging.getLogger("ttalab")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    caught = (OSError, ValueError) if args.command in ("evaluate", "compare") else RunConflict
    try:
        return _run(args, cfg)
    except caught as err:
        print(f"ttalab: error: {err}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _run_config(run_dir: Path) -> dict:
    """The config that run_dir's manifest.json records; ValueError names the file."""
    path = run_dir / "manifest.json"
    try:
        return json.loads(path.read_text())["config"]
    except ValueError as err:  # cut off midway
        raise ValueError(f"{path}: {err}") from None
    except (KeyError, TypeError):
        raise ValueError(f"{path}: records no config") from None


def _run(args, cfg: RunConfig | None) -> int:
    if args.command == "gen-data":
        ds = gen_dataset(cfg.data, Path(cfg.workdir) / "data", dump_pgm=args.dump_pgm)
        total = sum(len(v) for v in ds.samples.values())
        print(f"wrote {total} sample pairs under {cfg.workdir}/data")
        return 0

    if args.command in ("train-task", "train-recon", "calibrate", "dump-traces"):
        # a dump shares its run's directory, so it is claimed before any work
        out_dir = open_run_dir(cfg) / "traces" if args.command == "dump-traces" else None
        dataset = ensure_dataset(cfg)
        task = ensure_task(cfg, dataset)
        if args.command == "train-task":
            print(f"task model ready under {cfg.workdir}/task")
            return 0
        suite = ensure_suite(cfg, task, dataset)
        if args.command == "train-recon":
            print(f"reconstruction suite ready under {cfg.workdir}/recon")
            return 0
        tau = calibrate_tau(cfg, task, suite, dataset)
        if args.command == "calibrate":
            print(f"tau (p{cfg.percentile:g}, {'transductive' if cfg.tau_transductive else 'calib split'}) = {tau:.6f}")
            return 0
        wanted = set(args.sample_ids)
        rows = run_tta(cfg, task, suite, dataset, tau, trace_dir=out_dir, sample_ids=wanted)
        quiet = [r["sample_id"] for r in rows if not r["triggered"]]
        if quiet:
            print(f"not triggered, so not traced: {quiet}", file=sys.stderr)
        missing = wanted - {r["sample_id"] for r in rows}
        if missing:
            print(f"warning: sample ids not found: {sorted(missing)}", file=sys.stderr)
        print(f"wrote {len(rows) - len(quiet)} trace files under {out_dir}")
        return 0

    if args.command == "pipeline":
        report = pipeline_run(cfg)
        s = report.summary
        print(f"run {cfg.run_name()}: tau={report.tau:.6f} "
              f"triggered={s['n_triggered']}/{s['n_test']}")
        for scope in ("A", "B"):
            w = s["with_tta"][scope]
            b = s["no_tta"][scope]
            print(f"  {scope}: MAE {b['mae']['mean']:.4f} -> {w['mae']['mean']:.4f}  "
                  f"SSIM {b['ssim']['mean']:.4f} -> {w['ssim']['mean']:.4f}  "
                  f"PSNR {b['psnr']['mean']:.3f} -> {w['psnr']['mean']:.3f}")
        print(f"artifacts: {report.run_dir}")
        return 0

    if args.command == "evaluate":
        run_dir = Path(args.run_dir)
        rows = read_report_csv(run_dir / "report.csv")
        for which, label in (("base", "no-TTA"), ("tta", "with-TTA")):
            summary = metrics_summary(rows, which)
            a, b = summary["A"], summary["B"]
            print(f"{label}: A mae={a['mae']['mean']:.4f} ssim={a['ssim']['mean']:.4f} "
                  f"psnr={a['psnr']['mean']:.3f} | B mae={b['mae']['mean']:.4f} "
                  f"ssim={b['ssim']['mean']:.4f} psnr={b['psnr']['mean']:.3f}")
        return 0

    if args.command == "compare":
        run_dirs = [Path(d) for d in args.run_dirs]
        configs = [_run_config(d) for d in run_dirs]
        labels = arm_labels(configs, [d.name for d in run_dirs])
        comparison = compare_strategies([(label, read_report_csv(d / "report.csv"))
                                         for label, d in zip(labels, run_dirs)])
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        write_wilcoxon_csv(comparison, out.with_suffix(".csv"))
        out.with_suffix(".json").write_text(json.dumps(comparison, indent=2))
        print(f"alpha_corr = {comparison['alpha_corr']:.6g} over m = {comparison['m']} pairs")
        print(f"wrote {out.with_suffix('.csv')} and {out.with_suffix('.json')}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
