import os
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from ttalab.data import SyntheticTaskSpec, synthesize
from ttalab.pipeline import (RunConfig, calibration_errors, ensure_dataset,
                             ensure_suite, ensure_task, pipeline_run)
from ttalab.recon import ReconSuite, train_recon_suite
from ttalab.search import TtaRunner, calibrate_threshold
from ttalab.tasknet import TaskModel, train_task
from ttalab.tensor import LrSchedule


@pytest.fixture(scope="session")
def small_stack():
    """Briefly trained 16x16 stack for wiring/invariant tests (not quality)."""
    spec = SyntheticTaskSpec(train=32, calib=16, id_test=16, ood_test=16,
                             image_size=16, noise_sigma=0.15, seed=101)
    ds = synthesize(spec)
    task = TaskModel(n_layers=7, image_size=16, seed=7)
    train_task(task, ds.pairs("train"), LrSchedule(2e-4, 2, 2), seed=7)
    suite = ReconSuite(task, seed=7)
    train_recon_suite(suite, task, ds.pairs("train"), LrSchedule(1e-3, 1, 3), seed=7)
    return ds, task, suite


@dataclass
class DefaultStack:
    """Fully trained stack at package defaults, shared across test modules."""

    cfg: RunConfig
    dataset: object
    task: object
    suite: object
    calib_errors: list
    tau: float
    eps_id: np.ndarray
    eps_ood: np.ndarray
    build_seconds: float
    _runs: dict = field(default_factory=dict)

    def run(self, strategy: str, **overrides):
        """pipeline_run with memoisation; returns (RunReport, wall seconds)."""
        key = (strategy, tuple(sorted(overrides.items())))
        if key not in self._runs:
            t0 = time.time()
            report = pipeline_run(self.cfg.with_overrides(strategy=strategy,
                                                          **overrides))
            self._runs[key] = (report, time.time() - t0)
        return self._runs[key]


@pytest.fixture(scope="session")
def default_stack(tmp_path_factory) -> DefaultStack:
    workdir = os.environ.get("TTALAB_TEST_CACHE") or str(tmp_path_factory.mktemp("stack"))
    cfg = RunConfig(workdir=workdir)
    t0 = time.time()
    dataset = ensure_dataset(cfg)
    task = ensure_task(cfg, dataset)
    suite = ensure_suite(cfg, task, dataset)
    errors = calibration_errors(task, suite, dataset)
    tau = calibrate_threshold(errors, cfg.percentile)
    gate = TtaRunner(task=task, suite=suite)
    eps_id = np.array([gate.unadapted(x)[1] for x, _ in dataset.pairs("id_test")])
    eps_ood = np.array([gate.unadapted(x)[1] for x, _ in dataset.pairs("ood_test")])
    return DefaultStack(cfg=cfg, dataset=dataset, task=task, suite=suite,
                        calib_errors=errors, tau=tau, eps_id=eps_id,
                        eps_ood=eps_ood, build_seconds=time.time() - t0)
