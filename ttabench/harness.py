"""Workloads, stack building, the measured rounds and the result line.

Imported by run.py after the BLAS thread count is pinned and ./src is on the
path. Everything goes through ttalab's public API; nothing under src/ is
edited or monkeypatched except by tracing.py in a traced run.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ttalab
from ttalab import pipeline as P
from ttalab.checkpoint import load_suite, load_task
from ttalab.data import ShiftParams, SyntheticTaskSpec, load_dataset
from ttalab.search import TtaRunner, calibrate_threshold

import checks
import hostspeed

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".ttabench_work"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    """A stream of id_test in-distribution plus ood_test shifted samples.

    tau is calibrated transductively on the stream at the nearest-rank
    percentile between the two counts, and the run gates with run_tau, which
    sits midway between that error and the next, so exactly ood_test samples
    exceed it on every seed: the adaptation work per round is fixed by the
    workload, not by how well a seconds-sized stack happens to separate the
    shift.
    """

    strategy: str
    id_test: int
    ood_test: int

    @property
    def percentile(self) -> float:
        return 100.0 * (self.id_test - 0.5) / (self.id_test + self.ood_test)


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "ood-grid": Workload("grid", 1, 4),
    "ood-fs": Workload("fs", 1, 8),
    "id-stream": Workload("grid", 1023, 1),
}

# A stack that builds in seconds: fields that differ from the RunConfig and
# SyntheticTaskSpec defaults. The architecture (7 layers, k=3, 32x32) and M=5
# stay at the defaults; training is brief at raised learning rates.
STACK = {"data": dict(train=64),
         "run": dict(task_lr=2e-3, task_hold=2, task_decay=2,
                     recon_lr=3e-3, recon_hold=2, recon_decay=2)}
# Toy sizes for the self-test: the same code path in a fraction of a second.
TOY_STACK = {"data": dict(train=8, image_size=16),
             "run": dict(n_layers=5, base_channels=4, max_channels=8, task_lr=2e-3,
                         task_hold=1, task_decay=0, recon_lr=3e-3, recon_hold=1,
                         recon_decay=0)}
# Shifted samples carry ten times the training noise.
NOISE_MULT = 10.0


def make_config(workload: Workload, seed: int, workdir: Path, stack: dict = STACK) -> P.RunConfig:
    spec = SyntheticTaskSpec(calib=1, id_test=workload.id_test, ood_test=workload.ood_test,
                             shift=ShiftParams(noise_mult=NOISE_MULT), seed=seed,
                             **stack["data"])
    return P.RunConfig(workdir=str(workdir), seed=seed, data=spec, strategy=workload.strategy,
                       percentile=workload.percentile, tau_transductive=True, **stack["run"])


def build_stack(cfg: P.RunConfig) -> dict:
    """Data -> task model -> recon suite -> tau: one set-up from nothing.

    The reference is timed between stages, outside the stage timings, so
    each stage is rescaled by the host speed around it.
    """
    ref = hostspeed.Reference()
    refs, stage_s = [ref.seconds()], []

    def stage(fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        stage_s.append(time.perf_counter() - start)
        refs.append(ref.seconds())
        return out

    dataset = stage(P.ensure_dataset, cfg)
    task = stage(P.ensure_task, cfg, dataset)
    suite = stage(P.ensure_suite, cfg, task, dataset)

    def calibrate():
        errors = P.calibration_errors(task, suite, dataset, transductive=cfg.tau_transductive)
        return errors, calibrate_threshold(errors, cfg.percentile)

    errors, tau = stage(calibrate)
    scaled = sum(t * hostspeed.scale(a, b) for t, a, b in zip(stage_s, refs, refs[1:]))
    return {"setup_s": scaled, "setup_wall_s": sum(stage_s), "calibrate_s": stage_s[-1],
            "tau": tau, "errors": errors, "checksums": [task.checksum(), suite.checksum()],
            "dataset": dataset, "task": task, "suite": suite}


def run_tau(cfg: P.RunConfig, setup: dict) -> float:
    """The threshold run_tta gets: checks.margin_tau over the set-up's errors,
    so no sample's gate error lies on it."""
    return checks.margin_tau(setup["errors"], cfg.data.id_test)


def peak_rss_mb() -> float:
    """This process's own resident high-water mark. VmHWM belongs to the address
    space, so unlike ru_maxrss it does not inherit the spawning process's peak."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def setup_child(workload: str, seed: int, workdir: Path) -> None:
    """Entry of a set-up process: build one stack, print its record as JSON."""
    rec = build_stack(make_config(WORKLOADS[workload], seed, workdir))
    print(json.dumps({key: rec[key] for key in ("setup_s", "setup_wall_s", "tau", "errors",
                                                "checksums")} | {"peak_mb": peak_rss_mb()}))


def spawn_setup(workload: str, seed: int, threads: int, workdir: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(seed), "--threads", str(threads), "--build-stack", str(workdir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_stack(cfg: P.RunConfig):
    root = Path(cfg.workdir)
    task = load_task(root / "task")
    return load_dataset(root / "data"), task, load_suite(root / "recon", task)


def run_rounds(cfg, dataset, task, suite, tau: float, seconds: float):
    """Whole run_tta calls over the stream until `seconds` of run_tta time.

    Returns the rows of the rounds that completed, each round's wall time, the
    host-speed scale of each round (reference timed before and after it) and
    the number of rounds that raised.
    """
    rows, times, raised = [], [], 0
    ref = hostspeed.Reference()
    refs = [ref.seconds()]
    while sum(times) < seconds:
        start = time.perf_counter()
        try:
            rows.extend(P.run_tta(cfg, task, suite, dataset, tau))
        except Exception:  # a raising round counts as failed samples, not as a crash
            traceback.print_exc(file=sys.stderr)
            raised += 1
        times.append(time.perf_counter() - start)
        refs.append(ref.seconds())
    scales = [hostspeed.scale(a, b) for a, b in zip(refs, refs[1:])]
    return rows, times, scales, raised


def samples_per_s(stream_len: int, times: list[float], scales: list[float]) -> float:
    """Stream length over the median round time on the nominal host. Every
    round does the same work; the median drops rounds that a sudden change
    of host speed caught between two reference timings."""
    return stream_len / statistics.median(t * s for t, s in zip(times, scales))


def recompute_mae(cfg, dataset, task, suite, tau: float, rows: list[dict]) -> list:
    """Rerun the first triggered and first untriggered sample of the stream and
    compare the reported MAEs with numpy's on the outputs."""
    stream = [(x, y) for split in ("id_test", "ood_test") for _, x, y in dataset.samples[split]]
    runner = TtaRunner(task=task, suite=suite, m_steps=cfg.steps, adaptor_lr=cfg.adaptor_lr,
                       adaptor_width=cfg.adaptor_width, loss_weights=cfg.loss_weights,
                       seed=cfg.seed)
    pairs = []
    for flag in (True, False):
        i = next((i for i, r in enumerate(rows[:len(stream)]) if r["triggered"] == flag), None)
        if i is None:
            continue
        x, y = stream[i]
        adapted = runner.run_sample(x, cfg.strategy, tau, sample_index=i).output
        pairs.append((rows[i]["mae_tta"], checks.numpy_mae(adapted, y)))
        pairs.append((rows[i]["mae_base"], checks.numpy_mae(runner.unadapted(x)[0], y)))
    return pairs


def judge(cfg, dataset, task, suite, setups: list[dict], rows: list[dict]) -> dict:
    """Row and run checks; returns the failing check names and failed row count."""
    tau = run_tau(cfg, setups[0])
    row_fail = checks.row_failures(rows, tau, cfg.strategy, task.num_levels, cfg.steps)
    run_fail = checks.run_failures(
        rows=rows, setups=setups, percentile=cfg.percentile,
        checksums_after=(task.checksum(), suite.checksum()),
        expect_mae_gain=cfg.data.ood_test > cfg.data.id_test,
        recomputed_mae=recompute_mae(cfg, dataset, task, suite, tau, rows))
    bad_rows = {i for idx in row_fail.values() for i in idx}
    return {"failed_checks": sorted(row_fail) + run_fail, "failed_rows": len(bad_rows)}


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _metric(value: float, unit: str) -> dict:
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"non-finite metric value {value}")
    return {"value": value, "unit": unit}


def _measure(workload_name: str, cfg, seconds: float, threads: int, workdir: Path):
    """Untraced: set up SETUP_REPEATS times, each in its own process so that its
    peak memory is its own, then time the rounds on the first stack here."""
    setups = [spawn_setup(workload_name, cfg.seed, threads, workdir / f"stack{i}")
              for i in range(SETUP_REPEATS)]
    dataset, task, suite = load_stack(cfg)
    rows, times, scales, raised = run_rounds(cfg, dataset, task, suite,
                                             run_tau(cfg, setups[0]), seconds)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "samples_per_s": (samples_per_s(cfg.data.id_test + cfg.data.ood_test, times, scales),
                          "samples/s"),
        "setup_peak_mb": (statistics.median(s["peak_mb"] for s in setups), "MB"),
        "run_peak_mb": (peak_rss_mb(), "MB"),
    }
    return setups, (dataset, task, suite), rows, times, scales, raised, metrics


def _measure_traced(cfg, seconds: float):
    """Traced: one set-up and the same rounds with spans installed, then the
    direct calls at the model's shapes."""
    import tracing

    tr = tracing.Tracer()
    tracing.install_setup_spans(tr)
    try:
        rec = build_stack(cfg)
    finally:
        tr.restore()
    metrics = tracing.setup_metrics(tr, cfg, rec["calibrate_s"])
    stack = rec["dataset"], rec["task"], rec["suite"]
    tr = tracing.Tracer()
    tracing.install_run_spans(tr)
    try:
        rows, times, scales, raised = run_rounds(cfg, *stack, run_tau(cfg, rec), seconds)
    finally:
        tr.restore()
    metrics.update(tracing.run_metrics(
        tr, rows, samples_per_s(cfg.data.id_test + cfg.data.ood_test, times, scales),
        statistics.median(scales)))
    x = rec["dataset"].samples["id_test"][0][1]
    metrics.update(tracing.direct_metrics(rec["task"], rec["suite"], x, cfg.batch_size,
                                          cfg.steps))
    return [rec], stack, rows, times, scales, raised, metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool, threads: int) -> int:
    """One benchmark run in a fresh work directory; prints the info and result lines."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-{seed}-", dir=WORK_ROOT))
    try:
        cfg = make_config(WORKLOADS[workload_name], seed, workdir / "stack0")
        if trace:
            setups, stack, rows, times, scales, raised, metrics = _measure_traced(cfg, seconds)
        else:
            setups, stack, rows, times, scales, raised, metrics = _measure(
                workload_name, cfg, seconds, threads, workdir)
        verdict = judge(cfg, *stack, setups, rows)
        stream_len = cfg.data.id_test + cfg.data.ood_test
        attempted = len(times) * stream_len
        failed = raised * stream_len + verdict["failed_rows"]
        info = {"workload": workload_name, "seed": seed, "trace": trace, "rounds": len(times),
                "round_s": times, "round_host_speed": scales,
                "samples_per_wall_s": stream_len / statistics.median(times),
                "attempted": attempted, "failed": failed,
                "triggered": sum(r["triggered"] for r in rows),
                "configs": sum(r["configs_evaluated"] for r in rows),
                "adapt_steps": sum(r["adapt_steps_total"] for r in rows),
                "tau": setups[0]["tau"], "run_tau": run_tau(cfg, setups[0]),
                "percentile": cfg.percentile,
                "setup_s": [s["setup_s"] for s in setups],
                "setup_wall_s": [s["setup_wall_s"] for s in setups],
                "failed_checks": verdict["failed_checks"], "blas_threads": threads,
                "numpy": np.__version__, "blas": blas_info(), "ttalab": ttalab.__version__}
        print(json.dumps({"info": info}))
        print(json.dumps({"correct": not verdict["failed_checks"], "attempted": attempted,
                          "failed": failed,
                          "metrics": {k: _metric(v, u) for k, (v, u) in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
