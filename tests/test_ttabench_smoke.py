"""The benchmark in ttabench/ drives ttalab through its public API and wraps
some of its functions; these smoke tests fail when a change to ttalab breaks
what the benchmark relies on."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ttalab.recon import ReconSuite
from ttalab.tasknet import TaskModel

BENCH = Path(__file__).resolve().parent.parent / "ttabench"


def test_selftest_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=BENCH.parent,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.rstrip().endswith("0 misses")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


def test_traced_run_reports_every_metric(tracing, tmp_path):
    import harness
    workload = harness.Workload("grid", id_test=1, ood_test=2)
    cfg = harness.make_config(workload, 0, tmp_path / "stack", stack=harness.TOY_STACK)
    *_, raised, metrics = harness._measure_traced(cfg, seconds=0.1)
    assert raised == 0
    assert all(math.isfinite(value) for value, _ in metrics.values())
    assert metrics["pipeline.gate_calls_per_sample"][0] == 1


def test_direct_metrics_cover_every_depth(tracing):
    task = TaskModel(n_layers=5, image_size=16, base_channels=4, max_channels=8, seed=3)
    suite = ReconSuite(task, seed=3)
    x = np.random.default_rng(3).normal(size=(1, 16, 16)).astype(np.float32)
    out = tracing.direct_metrics(task, suite, x, batch_size=2, m_steps=2)
    for kind in ("fwd", "bwd", "train_bwd"):
        depths = sorted(k for k in out if k.startswith(f"tensor.conv2d_{kind}_ms.d"))
        assert depths == [f"tensor.conv2d_{kind}_ms.d{i}" for i in range(1, 6)]
    value, unit = out["layers.bias_act_ms"]
    assert unit == "ms" and math.isfinite(value)
