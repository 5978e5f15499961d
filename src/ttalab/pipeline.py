"""End-to-end pipelines: train, calibrate, adapt, evaluate, compare.

A run is fully reproducible from its manifest: the config, the dataset
content hash, and the checkpoint hashes are all recorded. Stages reuse
existing artifacts when their configuration matches, so threshold sweeps
share one trained stack.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .checkpoint import load_suite, load_task, save_suite, save_task
from .data import Dataset, SyntheticTaskSpec, from_json, gen_dataset, load_dataset
from .metrics import bonferroni, mae, psnr, ssim, untested_label, wilcoxon_signed_rank
from .recon import ReconSuite, train_recon_suite
from .search import STRATEGY_NAMES, TtaRunner, calibrate_threshold
from .tasknet import TaskModel, default_layer_plan, train_task
from .tensor import LrSchedule

log = logging.getLogger(__name__)

REPORT_SCHEMA_VERSION = 1
REPORT_COLUMNS = [
    "sample_id", "split", "triggered", "omega", "eps_unadapted", "eps_best",
    "configs_evaluated", "adapt_steps_total", "forwards_total",
    "mae_base", "psnr_base", "ssim_base", "mae_tta", "psnr_tta", "ssim_tta",
]
BUDGET_COLUMNS = ["sample_id", "triggered", "configs_evaluated", "adapt_steps_total",
                  "forwards_total"]


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs; serialises to a single JSON object."""

    workdir: str = "runs/default"
    seed: int = 0
    data: SyntheticTaskSpec = field(default_factory=SyntheticTaskSpec)
    # task model
    n_layers: int = 7
    base_channels: int = 16
    max_channels: int = 64
    # training (hold/decay epochs follow the 50/50 and 20/80 schedule shapes)
    task_lr: float = 2e-4
    task_hold: int = 15
    task_decay: int = 15
    recon_lr: float = 1e-3
    recon_hold: int = 6
    recon_decay: int = 24
    # test-time adaptation
    strategy: str = "grid"
    percentile: float = 95.0
    steps: int = 5
    adaptor_lr: float = 3e-4
    tau_transductive: bool = False
    # reporting
    dump_traces: bool = False

    # fixed settings, not fields, so no config or flag sets them; they stay
    # attributes because the training stages read cfg.batch_size, and run_tta
    # and the benchmark harness read cfg.adaptor_width and cfg.loss_weights
    batch_size = 8
    adaptor_width = 8
    loss_weights = (1.0, 1.0, 1.0)

    def __post_init__(self):
        if self.strategy not in STRATEGY_NAMES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0.0 < self.percentile < 100.0:
            raise ValueError(f"percentile {self.percentile} is not in (0, 100)")
        if not 5 <= self.n_layers <= 9:
            raise ValueError(f"n_layers must be in 5..9, got {self.n_layers}")
        # level k = (n_layers-1)//2 is image_size/2^(k-1) wide; its recon member halves it twice
        size_step = 2 ** ((self.n_layers - 1) // 2 + 1)
        if self.data.image_size % size_step != 0:
            raise ValueError(f"data.image_size {self.data.image_size} must be divisible by "
                             f"{size_step} with n_layers {self.n_layers}")
        for name in ("base_channels", "max_channels", "steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0 or self.adaptor_lr < 0:
            raise ValueError("seed and adaptor_lr must be non-negative")
        self.task_schedule(), self.recon_schedule()  # they check lr and epoch counts

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        return from_json(RunConfig, d)

    def with_overrides(self, **kw) -> "RunConfig":
        return replace(self, **kw)

    def task_schedule(self) -> LrSchedule:
        return LrSchedule(self.task_lr, self.task_hold, self.task_decay)

    def recon_schedule(self) -> LrSchedule:
        return LrSchedule(self.recon_lr, self.recon_hold, self.recon_decay)

    def run_name(self) -> str:
        return f"{self.strategy}_p{self.percentile:g}_M{self.steps}_seed{self.seed}"


class RunConflict(ValueError):
    """A run directory already belongs to a run of another config."""


# fields that do not change what a run computes: runs differing only in them
# repeat one arm, and may share a run directory (seed is part of its name)
_REPEAT_KEYS = ("seed", "workdir", "dump_traces")


def _differing_keys(a: dict, b: dict, prefix: str = "") -> list[str]:
    """Dotted names of the keys whose values differ, nested dicts walked."""
    out = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if isinstance(va, dict) and isinstance(vb, dict):
            out += _differing_keys(va, vb, f"{prefix}{key}.")
        elif va != vb:  # no config field is None, so a missing key differs too
            out.append(prefix + key)
    return out


def open_run_dir(cfg: RunConfig) -> Path:
    """<workdir>/runs/<run_name>, claimed for cfg before anything is written there.

    The name carries only the strategy, percentile, steps and seed, so the
    directory's manifest.json records the config that owns it. Once the
    directory holds a run's outputs (report.csv or traces), a config that
    differs from that one in any field of what a run computes (all but
    _REPEAT_KEYS) is refused with RunConflict naming those fields, and so is
    every config when no manifest reads, instead of replacing those files. A
    claim without outputs, left by a run that failed or a dump that traced
    nothing, passes to the new config.
    """
    run_dir = Path(cfg.workdir) / "runs" / cfg.run_name()
    manifest = run_dir / "manifest.json"
    config = cfg.to_dict()
    if (run_dir / "report.csv").exists() or (run_dir / "traces").exists():
        try:
            saved = json.loads(manifest.read_text()).get("config", {})
        except (OSError, ValueError) as err:  # no manifest, or one cut off midway
            raise RunConflict(f"{run_dir} holds outputs but no readable manifest ({err})")
        fields = [k for k in _differing_keys(saved, config) if k not in _REPEAT_KEYS]
        if fields:
            raise RunConflict(f"{run_dir} holds a run whose config differs in "
                              f"{', '.join(fields)}; use another workdir or remove that run")
    else:
        run_dir.mkdir(parents=True, exist_ok=True)
        manifest.write_text(json.dumps({"schema_version": REPORT_SCHEMA_VERSION,
                                        "config": config}, indent=2))
    return run_dir


# ---------------------------------------------------------------------------
# stage functions (each reuses an existing artifact only when everything that
# produced it matches: its config slice and the upstream artifact's hash)


def _reuse_or_build(record: Path, key: str, wanted: dict, load, build, rebuild: str):
    """load() when the JSON file record holds `wanted` under key and loads; else build().

    A missing record builds silently. A different record, one that does not
    parse (a save cut off midway), or one whose artifact does not load (load
    raises ValueError or FileNotFoundError), is logged with the reason, ending
    in the word rebuild.
    """
    if record.exists():
        try:
            saved = json.loads(record.read_text()).get(key)
            if saved == wanted:
                return load()
            log.info("%s was built from %s, the config asks for %s; %s",
                     record.parent, saved, wanted, rebuild)
        except (ValueError, FileNotFoundError) as err:
            log.warning("%s does not load (%s); %s", record.parent, err, rebuild)
    return build()


def ensure_dataset(cfg: RunConfig) -> Dataset:
    ddir = Path(cfg.workdir) / "data"
    return _reuse_or_build(ddir / "index.json", "spec", cfg.data.to_dict(),
                           lambda: load_dataset(ddir), lambda: gen_dataset(cfg.data, ddir),
                           "regenerating")


def _dataset_sha(cfg: RunConfig) -> str:
    return json.loads((Path(cfg.workdir) / "data" / "index.json").read_text())["content_sha256"]


def ensure_task(cfg: RunConfig, dataset: Dataset) -> TaskModel:
    tdir = Path(cfg.workdir) / "task"
    # the layer plan, not the channel settings: settings that give one plan
    # give one model
    plan = default_layer_plan(cfg.n_layers, 1, cfg.base_channels, cfg.max_channels)
    provenance = {"dataset_sha256": _dataset_sha(cfg),
                  "schedule": asdict(cfg.task_schedule()), "batch_size": cfg.batch_size,
                  "layer_plan": [asdict(spec) for spec in plan], "seed": cfg.seed}

    def build():
        model = TaskModel(n_layers=cfg.n_layers, io_channels=1, image_size=cfg.data.image_size,
                          base_channels=cfg.base_channels, max_channels=cfg.max_channels,
                          seed=cfg.seed)
        train_task(model, dataset.pairs("train"), cfg.task_schedule(),
                   seed=cfg.seed, batch_size=cfg.batch_size)
        save_task(model, tdir, provenance=provenance)
        return model

    return _reuse_or_build(tdir / "manifest.json", "provenance", provenance,
                           lambda: load_task(tdir), build, "retraining")


def ensure_suite(cfg: RunConfig, task: TaskModel, dataset: Dataset) -> ReconSuite:
    sdir = Path(cfg.workdir) / "recon"
    provenance = {"task_checksum": task.checksum(),
                  "schedule": asdict(cfg.recon_schedule()), "batch_size": cfg.batch_size}

    def load():
        suite = load_suite(sdir, task)
        if not suite.all_trained():
            raise ValueError("not fully trained")
        return suite

    def build():
        suite = ReconSuite(task, seed=cfg.seed)
        train_recon_suite(suite, task, dataset.pairs("train"), cfg.recon_schedule(),
                          seed=cfg.seed, batch_size=cfg.batch_size)
        save_suite(suite, sdir, provenance=provenance)
        return suite

    return _reuse_or_build(sdir / "manifest.json", "provenance", provenance, load, build,
                           "retraining")


def calibration_errors(task: TaskModel, suite: ReconSuite, dataset: Dataset,
                       transductive: bool = False) -> list[float]:
    """The gate statistic, unadapted eps_y, on the calibration split (or the
    whole test set), gated in blocks of the training batch size."""
    runner = TtaRunner(task=task, suite=suite)
    splits = ("id_test", "ood_test") if transductive else ("calib",)
    xs = [x for split in splits for x, _ in dataset.pairs(split)]
    step = RunConfig.batch_size
    return [eps for i in range(0, len(xs), step)
            for eps in runner.gate(np.stack(xs[i:i + step]))[1]]


def calibrate_tau(cfg: RunConfig, task: TaskModel, suite: ReconSuite,
                  dataset: Dataset) -> float:
    errors = calibration_errors(task, suite, dataset, transductive=cfg.tau_transductive)
    return calibrate_threshold(errors, cfg.percentile)


def _to_unit(img: np.ndarray) -> np.ndarray:
    return (np.asarray(img, dtype=np.float64) + 1.0) / 2.0


def _image_metrics(output: np.ndarray, target: np.ndarray) -> tuple[float, float, float]:
    o, t = _to_unit(output), _to_unit(target)
    try:
        p = psnr(o, t)
    except ValueError:
        p = float("nan")
    return mae(o, t), p, ssim(o, t)


def run_tta(cfg: RunConfig, task: TaskModel, suite: ReconSuite, dataset: Dataset,
            tau: float, trace_dir: Path | None = None,
            sample_ids: set[str] | None = None) -> list[dict]:
    """Gate and adapt every test sample; returns one report row per sample.

    Each row carries the REPORT_COLUMNS plus failed_configs, which feeds the
    summary and is not written to report.csv. trace_dir gets one trace JSON
    per triggered sample. With sample_ids, only those samples run; every
    sample keeps its index in the stream, so its adaptor seeds and trace are
    those of a full run.
    """
    runner = TtaRunner(task=task, suite=suite, m_steps=cfg.steps,
                       adaptor_lr=cfg.adaptor_lr, adaptor_width=cfg.adaptor_width,
                       loss_weights=cfg.loss_weights, seed=cfg.seed)
    rows = []
    stream = [(split, *s) for split in ("id_test", "ood_test") for s in dataset.samples[split]]
    for sample_index, (split, sid, x, y) in enumerate(stream):
        if sample_ids is not None and sid not in sample_ids:
            continue
        sink = [] if trace_dir is not None else None
        outcome = runner.run_sample(x, cfg.strategy, tau,
                                    sample_index=sample_index, trace_sink=sink)
        mae_b, psnr_b, ssim_b = base = _image_metrics(outcome.base_output, y)
        # the gate's own output, as on every untriggered row, scores as base
        mae_t, psnr_t, ssim_t = (base if outcome.output is outcome.base_output
                                 else _image_metrics(outcome.output, y))
        rows.append({
            "sample_id": sid, "split": split,
            "triggered": outcome.triggered,
            "omega": str(outcome.omega_star) if outcome.omega_star else "",
            "eps_unadapted": outcome.eps_unadapted, "eps_best": outcome.eps_best,
            **vars(outcome.budget),
            "mae_base": mae_b, "psnr_base": psnr_b, "ssim_base": ssim_b,
            "mae_tta": mae_t, "psnr_tta": psnr_t, "ssim_tta": ssim_t,
        })
        if trace_dir is not None and sink:
            trace_dir.mkdir(parents=True, exist_ok=True)
            payload = {"sample_id": sid, "traces": [t.to_dict() for t in sink]}
            (trace_dir / f"{sid}.json").write_text(json.dumps(payload, indent=2))
        elif trace_dir is not None:  # an earlier run's trace no longer describes it
            (trace_dir / f"{sid}.json").unlink(missing_ok=True)
    return rows


def _nan_mean_std(values: list[float]) -> tuple[float, float]:
    """NaN-ignoring mean and std; NaN, without numpy's empty-slice warning, when
    every value is NaN or there is none."""
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).all():
        return float("nan"), float("nan")
    return float(np.nanmean(values)), float(np.nanstd(values))


def metrics_summary(rows: list[dict], which: str) -> dict:
    """Mean and std of the {which} image metrics over every row (test set A)
    and over the triggered rows (subset B), and A's negative-SSIM count."""
    triggered = [r for r in rows if r["triggered"]]
    out = {}
    for scope, scoped in (("A", rows), ("B", triggered)):
        out[scope] = {}
        for m in ("mae", "psnr", "ssim"):
            mean, std = _nan_mean_std([r[f"{m}_{which}"] for r in scoped])
            out[scope][m] = {"mean": mean, "std": std}
    out["ssim_negative_count"] = sum(r[f"ssim_{which}"] < 0 for r in rows)
    out["n_A"] = len(rows)
    out["n_B"] = len(triggered)
    return out


@dataclass
class RunReport:
    tau: float
    rows: list[dict]
    summary: dict
    run_dir: Path


def write_csv(rows: list[dict], path: Path, columns: list[str]) -> None:
    """rows projected onto columns; a row without one of them raises KeyError."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns)
        writer.writeheader()
        for r in rows:
            writer.writerow({k: r[k] for k in columns})


def read_report_csv(path) -> list[dict]:
    """The typed rows of a report.csv; a row with missing or extra fields, or
    a file without rows, as a run killed midway leaves, raises ValueError
    naming the file (and the line)."""
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        for r in reader:
            if None in r or None in r.values():
                raise ValueError(f"{path}: line {reader.line_num} does not have the "
                                 f"header's {len(reader.fieldnames)} fields")
            r["triggered"] = r["triggered"] == "True"
            for key in REPORT_COLUMNS:
                if key in ("sample_id", "split", "omega", "triggered"):
                    continue
                r[key] = int(r[key]) if key.endswith(("_evaluated", "_total")) else float(r[key])
            rows.append(r)
    if not rows:
        raise ValueError(f"{path}: holds no sample rows")
    return rows


def build_summary(cfg: RunConfig, tau: float, rows: list[dict],
                  stage_seconds: dict[str, float]) -> dict:
    """Aggregates of one run; runtime_seconds is the tta stage alone."""
    triggered = [r for r in rows if r["triggered"]]
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "strategy": cfg.strategy,
        "percentile": cfg.percentile,
        "seed": cfg.seed,
        "tau": tau,
        "n_test": len(rows),
        "n_triggered": len(triggered),
        "triggered_by_split": {
            split: sum(1 for r in triggered if r["split"] == split)
            for split in ("id_test", "ood_test")
        },
        "with_tta": metrics_summary(rows, "tta"),
        "no_tta": metrics_summary(rows, "base"),
        "failed_configs": sum(r["failed_configs"] for r in rows),
        "runtime_seconds": stage_seconds["tta"],
        "stage_seconds": stage_seconds,
    }


def pipeline_run(cfg: RunConfig) -> RunReport:
    """train T -> train suite -> calibrate tau -> adapt test set -> artifacts."""
    stage_seconds: dict[str, float] = {}

    def stage(name, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        stage_seconds[name] = time.perf_counter() - start
        return out

    run_dir = open_run_dir(cfg)
    dataset = stage("data", ensure_dataset, cfg)
    task = stage("task", ensure_task, cfg, dataset)
    suite = stage("suite", ensure_suite, cfg, task, dataset)
    tau = stage("calibrate", calibrate_tau, cfg, task, suite, dataset)
    trace_dir = run_dir / "traces" if cfg.dump_traces else None
    rows = stage("tta", run_tta, cfg, task, suite, dataset, tau, trace_dir=trace_dir)
    summary = build_summary(cfg, tau, rows, stage_seconds)
    write_csv(rows, run_dir / "report.csv", REPORT_COLUMNS)
    write_csv(rows, run_dir / "budget.csv", BUDGET_COLUMNS)
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    manifest = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "config": cfg.to_dict(),
        "tau": tau,
        "dataset_sha256": _dataset_sha(cfg),
        "task_checksum": task.checksum(),
        "suite_checksum": suite.checksum(),
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return RunReport(tau=tau, rows=rows, summary=summary, run_dir=run_dir)


# ---------------------------------------------------------------------------
# strategy comparison (pairwise Wilcoxon + Bonferroni)

_COMPARE_METRICS = ("ssim", "mae", "psnr")
_ALPHA = 0.05  # family-wise significance level of each metric


def arm_labels(configs: list[dict], run_names: list[str]) -> list[str]:
    """The arm of each run, for compare_strategies.

    Runs whose configs differ only in seed, workdir or dump_traces repeat one
    arm. An arm is named by its strategy when no other arm has that strategy,
    and otherwise by its runs' directory names.
    """
    arms: dict[str, list[int]] = {}
    for i, c in enumerate(configs):
        key = json.dumps({k: v for k, v in c.items() if k not in _REPEAT_KEYS}, sort_keys=True)
        arms.setdefault(key, []).append(i)
    strategies = [configs[idx[0]]["strategy"] for idx in arms.values()]
    labels = [""] * len(configs)
    for idx, strategy in zip(arms.values(), strategies):
        unique = strategies.count(strategy) == 1
        for i in idx:
            labels[i] = strategy if unique else "+".join(run_names[j] for j in idx)
    if len(set(labels)) != len(arms):
        raise ValueError("runs with different configs share a directory name")
    return labels


def compare_strategies(named_rows: list[tuple[str, list[dict]]]) -> dict:
    """Pairwise Wilcoxon matrix over per-sample TTA metrics, Bonferroni-corrected.

    named_rows: (arm label, report rows) per run; every run must cover the
    first run's sample ids. Runs with the same label (repeat seeds of one
    config, see arm_labels) are averaged per sample before testing, into one
    vector per arm and metric in sorted-id order. Each metric is one family
    over every pair, flagged by metrics.bonferroni: m = number of pairs, an
    untested pair counts in m and is never significant, and alpha_corr =
    0.05/m.
    """
    if len(named_rows) < 2:
        raise ValueError("need at least two reports to compare")
    ids = sorted({r["sample_id"] for r in named_rows[0][1]})
    arms: dict[str, list[dict[str, dict]]] = {}
    for name, rows in named_rows:
        by_id = {r["sample_id"]: r for r in rows}
        if sorted(by_id) != ids:
            raise ValueError(f"sample-id mismatch: a run of {name} covers other samples")
        arms.setdefault(name, []).append(by_id)
    vectors = {name: {m: [_nan_mean_std([run[sid][f"{m}_tta"] for run in runs])[0]
                          for sid in ids] for m in _COMPARE_METRICS}
               for name, runs in arms.items()}
    names = sorted(vectors)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    if not pairs:
        raise ValueError("need at least two distinct strategies")
    cells = {f"{a}|{b}": {} for a, b in pairs}
    for m in _COMPARE_METRICS:
        ps, notes = [], []
        for a, b in pairs:
            try:
                ps.append(wilcoxon_signed_rank(vectors[a][m], vectors[b][m]))
                notes.append({})
            except ValueError as err:
                ps.append(None)
                notes.append({"note": str(err)})
        for (a, b), (p, significant), note in zip(pairs, bonferroni(ps, _ALPHA), notes):
            cells[f"{a}|{b}"][m] = {"p": p, "significant": significant, **note}
    return {"alpha": _ALPHA, "m": len(pairs), "alpha_corr": _ALPHA / len(pairs),
            "strategies": names, "cells": cells}


def write_wilcoxon_csv(comparison: dict, path: Path) -> None:
    names = comparison["strategies"]
    header_note = (f"alpha={comparison['alpha']} m={comparison['m']} "
                   f"alpha_corr={comparison['alpha_corr']:.6g}")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([header_note] + names)
        for a in names:
            row = [a]
            for b in names:
                if a == b:
                    row.append("-")
                    continue
                key = f"{a}|{b}" if f"{a}|{b}" in comparison["cells"] else f"{b}|{a}"
                cell = comparison["cells"][key]
                parts = []
                for m in _COMPARE_METRICS:
                    entry = cell[m]
                    if entry["p"] is None:
                        parts.append(f"{m}:{untested_label(entry['note'])}")
                    else:
                        flag = "*" if entry["significant"] else ""
                        parts.append(f"{m}:{entry['p']:.4g}{flag}")
                row.append(" ".join(parts))
            writer.writerow(row)
