"""Distribution-level properties of the trained default stack.

These checks exercise the trained models the way the benchmark uses them;
they share the session-scoped default stack with the acceptance suite.
"""

import numpy as np
import pytest

import ttalab.tensor as T
from ttalab.adaptors import Configuration, adapted_forward, init_adaptors
from ttalab.data import make_pair
from ttalab.search import TtaRunner, calibrate_threshold
from ttalab.tasknet import TaskModel, translate
from ttalab.tensor import Tensor


def test_trained_model_beats_untrained_on_id(default_stack):
    ds, task = default_stack.dataset, default_stack.task
    untrained = TaskModel(n_layers=task.n_layers, image_size=task.image_size,
                          seed=task.seed)
    trained_mae, untrained_mae = [], []
    with T.no_grad():
        for x, y in ds.pairs("id_test")[:48]:
            trained_mae.append(np.abs(translate(task, Tensor(x)).output.data - y).mean())
            untrained_mae.append(np.abs(translate(untrained, Tensor(x)).output.data - y).mean())
    assert np.mean(trained_mae) < np.mean(untrained_mae)


def test_training_set_components_below_own_p95(default_stack):
    ds, task, suite = default_stack.dataset, default_stack.task, default_stack.suite
    comps = {key: [] for key in suite.member_keys()}
    # fresh adaptors are an exact identity: these are the unadapted errors
    full = Configuration.of(range(1, task.num_levels + 1))
    for x, _ in ds.pairs("train")[:128]:
        _, errors = adapted_forward(task, suite, init_adaptors(task), full, x)
        comps["x"].append(errors.eps_x)
        comps["y"].append(errors.eps_y)
        for i, v in errors.eps_i.items():
            comps[i].append(v)
    for key, vals in comps.items():
        p95 = calibrate_threshold(vals, 95)
        frac_below = np.mean([v < p95 for v in vals])
        assert frac_below >= 0.90, f"member {key}: {frac_below:.2f}"


def test_mean_eps_y_higher_on_shifted_set(default_stack):
    assert default_stack.eps_ood.mean() > default_stack.eps_id.mean()


def test_pure_noise_inputs_trigger(default_stack):
    ds, task, suite = default_stack.dataset, default_stack.task, default_stack.suite
    sigma = 3.0 * ds.spec.noise_sigma
    rng = np.random.default_rng(404)
    size = ds.spec.image_size
    gate = TtaRunner(task=task, suite=suite)
    above = 0
    n = 32
    for _ in range(n):
        x = np.clip(sigma * rng.standard_normal((1, size, size)), -1, 1).astype(np.float32)
        eps = gate.unadapted(x)[1]
        above += eps > default_stack.tau
    assert above / n >= 0.80


def test_negative_control_shift_mult_one(default_stack):
    # OOD generated with multiplier 1.0 is statistically indistinguishable from ID
    ds, task, suite = default_stack.dataset, default_stack.task, default_stack.suite
    from dataclasses import replace
    spec_ctrl = replace(ds.spec, shift=replace(ds.spec.shift, noise_mult=1.0))
    gate = TtaRunner(task=task, suite=suite)
    eps_ctrl = []
    for i in range(96):
        x, _ = make_pair(spec_ctrl, "ood_test", i)
        eps_ctrl.append(gate.unadapted(x)[1])
    gap = abs(float(np.mean(eps_ctrl)) - float(default_stack.eps_id.mean()))
    assert gap < 0.005, f"negative-control gap {gap:.4f}"
    frac = np.mean([e > default_stack.tau for e in eps_ctrl])
    assert frac <= 0.15


def test_id_trigger_fraction_binomial_envelope(default_stack):
    # p95 threshold calibrated on held-out split: triggered fraction of an
    # equally-distributed test split stays near 5%
    frac = float(np.mean(default_stack.eps_id > default_stack.tau))
    assert 0.005 <= frac <= 0.12


def test_zero_lr_adaptation_returns_unadapted_output(default_stack):
    # identity adaptation cannot improve: snapshot semantics return step 1
    ds, task, suite = default_stack.dataset, default_stack.task, default_stack.suite
    runner = TtaRunner(task=task, suite=suite, adaptor_lr=0.0, seed=0)
    idx = int(np.argmax(default_stack.eps_ood))
    x = ds.pairs("ood_test")[idx][0]
    base, eps_unadapted = runner.unadapted(x)
    outcome = runner.run_sample(x, "grid", default_stack.tau, sample_index=idx)
    assert outcome.triggered
    assert np.array_equal(outcome.output, base)
    assert outcome.eps_best == eps_unadapted


@pytest.mark.parametrize("strategy", ["fs", "be", "tpe", "rand10"])
def test_all_strategies_respect_monotone_safety(default_stack, strategy):
    ds, task, suite = default_stack.dataset, default_stack.task, default_stack.suite
    runner = TtaRunner(task=task, suite=suite, seed=0)
    order = np.argsort(default_stack.eps_ood)[-3:]
    for idx in order:
        x = ds.pairs("ood_test")[int(idx)][0]
        _, eps_unadapted = runner.unadapted(x)
        outcome = runner.run_sample(x, strategy, default_stack.tau,
                                    sample_index=int(idx))
        assert outcome.triggered
        assert outcome.eps_best <= eps_unadapted
        assert outcome.budget.forwards_total == outcome.budget.adapt_steps_total


def test_suite_frozen_across_full_search(default_stack):
    ds, task, suite = default_stack.dataset, default_stack.task, default_stack.suite
    before = suite.checksum(), task.checksum()
    runner = TtaRunner(task=task, suite=suite, seed=0)
    idx = int(np.argmax(default_stack.eps_ood))
    runner.run_sample(ds.pairs("ood_test")[idx][0], "be", default_stack.tau,
                      sample_index=idx)
    assert (suite.checksum(), task.checksum()) == before
