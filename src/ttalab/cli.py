"""Command-line interface.

Every subcommand reads an optional JSON config (--config) and applies flag
overrides on top; the workflow is gen-data -> train-task -> train-recon ->
calibrate -> run-tta -> evaluate -> compare. `pipeline` runs the whole chain.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import SyntheticTaskSpec
from .pipeline import (RunConfig, _runner, calibration_errors, compare_strategies,
                       ensure_dataset, ensure_suite, ensure_task, metrics_report,
                       pipeline_run, read_report_csv, write_wilcoxon_csv)
from .search import calibrate_threshold


def _load_config(args) -> RunConfig:
    if args.config:
        cfg = RunConfig.from_dict(json.loads(Path(args.config).read_text()))
    else:
        cfg = RunConfig()
    overrides = {}
    for key in ("workdir", "seed", "strategy", "percentile", "steps", "adaptor_lr"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            overrides[key] = val
    if getattr(args, "tau_transductive", False):
        overrides["tau_transductive"] = True
    if getattr(args, "fs_faithful_pseudocode", False):
        overrides["fs_faithful_pseudocode"] = True
    if getattr(args, "psnr_max", None):
        overrides["psnr_max"] = args.psnr_max
    if getattr(args, "dump_traces", False):
        overrides["dump_traces"] = True
    data_overrides = {}
    for key in ("noise_mult", "shift_gamma", "shift_blur"):
        val = getattr(args, key, None)
        if val is not None:
            data_overrides[key] = val
    if data_overrides:
        shift = cfg.data.shift
        from dataclasses import replace as _replace
        shift = _replace(shift,
                         noise_mult=data_overrides.get("noise_mult", shift.noise_mult),
                         gamma=data_overrides.get("shift_gamma", shift.gamma),
                         blur=data_overrides.get("shift_blur", shift.blur))
        overrides["data"] = SyntheticTaskSpec.from_dict({**cfg.data.to_dict(),
                                                         "shift": shift.__dict__})
    return cfg.with_overrides(**overrides) if overrides else cfg


def _percentile(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 100.0:
        raise argparse.ArgumentTypeError(f"{text} is not in (0, 100)")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--workdir", help="working directory for artifacts")
    p.add_argument("--seed", type=int, help="global seed")


def _add_tta_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=["grid", "rand10", "rand50", "fs", "be",
                                          "tpe", "static-all"])
    p.add_argument("--percentile", type=_percentile, help="threshold percentile in (0, 100)")
    p.add_argument("--steps", type=int, help="adaptation steps M per configuration")
    p.add_argument("--adaptor-lr", dest="adaptor_lr", type=float)
    p.add_argument("--tau-transductive", dest="tau_transductive", action="store_true",
                   help="calibrate tau on the test set instead of the held-out split")
    p.add_argument("--fs-faithful-pseudocode", dest="fs_faithful_pseudocode",
                   action="store_true", help="literal forward-selection variant")
    p.add_argument("--psnr-max", dest="psnr_max", choices=["generated", "range"])
    p.add_argument("--dump-traces", dest="dump_traces", action="store_true")
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
        ("run-tta", "gate and adapt the test set"),
        ("evaluate", "recompute aggregates from a run's report.csv"),
        ("compare", "pairwise Wilcoxon comparison of runs"),
        ("dump-traces", "re-run listed samples and dump their step traces"),
        ("pipeline", "run the whole chain end to end"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        if name in ("run-tta", "pipeline", "calibrate", "dump-traces"):
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
    cfg = _load_config(args) if args.command != "evaluate" else None

    if args.command == "gen-data":
        from .data import gen_dataset
        ds = gen_dataset(cfg.data, Path(cfg.workdir) / "data", dump_pgm=args.dump_pgm)
        total = sum(len(v) for v in ds.samples.values())
        print(f"wrote {total} sample pairs under {cfg.workdir}/data")
        return 0

    if args.command == "train-task":
        dataset = ensure_dataset(cfg)
        ensure_task(cfg, dataset)
        print(f"task model ready under {cfg.workdir}/task")
        return 0

    if args.command == "train-recon":
        dataset = ensure_dataset(cfg)
        task = ensure_task(cfg, dataset)
        ensure_suite(cfg, task, dataset)
        print(f"reconstruction suite ready under {cfg.workdir}/recon")
        return 0

    if args.command == "calibrate":
        dataset = ensure_dataset(cfg)
        task = ensure_task(cfg, dataset)
        suite = ensure_suite(cfg, task, dataset)
        errors = calibration_errors(task, suite, dataset, transductive=cfg.tau_transductive)
        tau = calibrate_threshold(errors, cfg.percentile)
        print(f"tau (p{cfg.percentile:g}, {'transductive' if cfg.tau_transductive else 'calib split'}) = {tau:.6f}")
        return 0

    if args.command in ("run-tta", "pipeline"):
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
            rep = metrics_report(rows, which)
            summary = rep.summary()
            a, b = summary["A"], summary["B"]
            print(f"{label}: A mae={a['mae']['mean']:.4f} ssim={a['ssim']['mean']:.4f} "
                  f"psnr={a['psnr']['mean']:.3f} | B mae={b['mae']['mean']:.4f} "
                  f"ssim={b['ssim']['mean']:.4f} psnr={b['psnr']['mean']:.3f}")
        return 0

    if args.command == "compare":
        named = []
        for d in args.run_dirs:
            run_dir = Path(d)
            manifest = json.loads((run_dir / "manifest.json").read_text())
            named.append((manifest["config"]["strategy"],
                          read_report_csv(run_dir / "report.csv")))
        comparison = compare_strategies(named)
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        write_wilcoxon_csv(comparison, out.with_suffix(".csv"))
        out.with_suffix(".json").write_text(json.dumps(comparison, indent=2))
        print(f"alpha_corr = {comparison['alpha_corr']:.6g} over m = {comparison['m']} pairs")
        print(f"wrote {out.with_suffix('.csv')} and {out.with_suffix('.json')}")
        return 0

    if args.command == "dump-traces":
        dataset = ensure_dataset(cfg)
        task = ensure_task(cfg, dataset)
        suite = ensure_suite(cfg, task, dataset)
        errors = calibration_errors(task, suite, dataset, transductive=cfg.tau_transductive)
        tau = calibrate_threshold(errors, cfg.percentile)
        wanted = set(args.sample_ids)
        out_dir = Path(cfg.workdir) / "traces"
        index = 0
        found = set()
        runner = _runner(cfg, task, suite)
        out_dir.mkdir(parents=True, exist_ok=True)
        for split in ("id_test", "ood_test"):
            for sid, x, _ in dataset.samples[split]:
                if sid in wanted:
                    sink = []
                    runner.run_sample(x, cfg.strategy, tau, sample_index=index,
                                      trace_sink=sink)
                    payload = {"sample_id": sid,
                               "traces": [t.to_dict() for t in sink]}
                    (out_dir / f"{sid}.json").write_text(json.dumps(payload, indent=2))
                    found.add(sid)
                index += 1
        missing = wanted - found
        if missing:
            print(f"warning: sample ids not found: {sorted(missing)}", file=sys.stderr)
        print(f"wrote {len(found)} trace files under {out_dir}")
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
