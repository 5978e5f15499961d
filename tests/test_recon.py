import math
import tracemalloc

import numpy as np
import pytest

import ttalab.tensor as T
from ttalab.adaptors import Configuration, adapted_forward, init_adaptors
from ttalab.data import SyntheticTaskSpec, synthesize
from ttalab.layers import params_checksum
from ttalab.pipeline import calibration_errors
from ttalab.recon import (Autoencoder, ReconSuite, collect_level_tensors, concat_symmetric,
                          member_shapes, train_autoencoder, train_recon_suite)
from ttalab.search import TtaRunner
from ttalab.tasknet import TaskModel, train_task, translate
from ttalab.tensor import LrSchedule, Tensor

rng = np.random.default_rng(17)


def identity_errors(task, suite, x, levels=None):
    """Per-level errors of the unadapted pass: fresh adaptors are an exact
    identity, so adapted_forward at init scores the unadapted features."""
    omega = Configuration.of(levels or range(1, task.num_levels + 1))
    return adapted_forward(task, suite, init_adaptors(task), omega, x)[1]


def gate_error(task, suite, x):
    return TtaRunner(task=task, suite=suite).unadapted(x)[1]


class IdentityRecon:
    """Member stub that reconstructs perfectly."""

    def forward(self, x):
        return x

    def params(self):
        return []


class TestConcatSymmetric:
    def test_shape_arithmetic(self, small_stack):
        ds, task, _ = small_stack
        trace = translate(task, Tensor(ds.pairs("id_test")[0][0]))
        out = concat_symmetric(trace, 1, task.n_layers)
        h1 = trace.features[1].data
        h6 = trace.features[6].data
        assert out.data.shape == (h1.shape[0] + h6.shape[0], *h1.shape[1:])

    def test_block_layout_leading_is_first(self, small_stack):
        _, task, _ = small_stack
        from ttalab.tasknet import FeatureTrace
        a = Tensor(np.ones((3, 4, 4), np.float32))
        b = Tensor(np.full((5, 4, 4), 2.0, np.float32))
        trace = FeatureTrace(features={1: a, 6: b}, output=b)
        out = concat_symmetric(trace, 1, 7).data
        assert np.all(out[:3] == 1.0) and np.all(out[3:] == 2.0)

    def test_depth_out_of_range(self, small_stack):
        ds, task, _ = small_stack
        trace = translate(task, Tensor(ds.pairs("id_test")[0][0]))
        with pytest.raises(ValueError, match="depth out of range"):
            concat_symmetric(trace, 0, task.n_layers)
        with pytest.raises(ValueError, match="depth out of range"):
            concat_symmetric(trace, 4, task.n_layers)

    def test_order_sensitivity(self):
        from ttalab.tasknet import FeatureTrace
        a = Tensor(rng.normal(size=(2, 4, 4)).astype(np.float32))
        b = Tensor(rng.normal(size=(2, 4, 4)).astype(np.float32))
        t_ab = FeatureTrace(features={1: a, 6: b}, output=b)
        t_ba = FeatureTrace(features={1: b, 6: a}, output=a)
        assert not np.array_equal(concat_symmetric(t_ab, 1, 7).data,
                                  concat_symmetric(t_ba, 1, 7).data)


class TestReconSuite:
    def test_member_count(self, small_stack):
        _, task, suite = small_stack
        assert suite.num_levels == (task.n_layers - 1) // 2 == 3
        assert suite.member_keys() == ["x", 1, 2, 3, "y"]

    def test_untrained_task_rejected(self):
        task = TaskModel(image_size=16, seed=0)
        suite = ReconSuite(task, seed=0)
        with pytest.raises(ValueError, match="untrained"):
            train_recon_suite(suite, task, [(np.zeros((1, 16, 16), np.float32),) * 2],
                              LrSchedule(1e-3, 1, 1))

    def test_empty_dataset_rejected(self, small_stack):
        _, task, _ = small_stack
        suite = ReconSuite(task, seed=0)
        with pytest.raises(ValueError, match="empty"):
            train_recon_suite(suite, task, [], LrSchedule(1e-3, 1, 1))

    def test_training_reduces_eps_y_vs_untrained(self, small_stack):
        ds, task, suite = small_stack
        fresh = ReconSuite(task, seed=23)
        xs = ds.pairs("train")[:12]
        trained_err = np.mean([gate_error(task, suite, x) for x, _ in xs])
        fresh_err = np.mean([gate_error(task, fresh, x) for x, _ in xs])
        assert trained_err < fresh_err

    def test_member_independence_and_determinism(self, small_stack):
        ds, task, _ = small_stack
        data = [x for x, _ in ds.pairs("train")[:16]]
        a = Autoencoder((1, 16, 16), seed=3)
        b = Autoencoder((1, 16, 16), seed=3)
        ra = train_autoencoder(a, data, LrSchedule(1e-3, 1, 2), seed=5)
        rb = train_autoencoder(b, data, LrSchedule(1e-3, 1, 2), seed=5)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa.data, pb.data)
        assert ra.epoch_losses == rb.epoch_losses

    def test_training_one_member_leaves_others(self, small_stack):
        _, task, _ = small_stack
        suite = ReconSuite(task, seed=4)
        from ttalab.layers import params_checksum
        before = {k: params_checksum(suite.members[k].params())
                  for k in suite.member_keys()}
        data = [rng.normal(size=(1, 16, 16)).astype(np.float32) for _ in range(8)]
        train_autoencoder(suite.members["x"], data, LrSchedule(1e-3, 1, 1), seed=0)
        for k in suite.member_keys():
            now = params_checksum(suite.members[k].params())
            assert (now == before[k]) == (k != "x")


def traced_peak(fn, *args) -> int:
    """Peak bytes traced while fn(*args) runs, over what was allocated before."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrainingColumns:
    """Each member trains from one float32 [n, C, H, W] column, filled by the
    one translate pass and never copied."""

    def test_rows_match_the_translate_pass(self, small_stack):
        ds, task, suite = small_stack
        pairs = ds.pairs("train")[:6]
        columns = collect_level_tensors(task, pairs)
        assert list(columns) == suite.member_keys()
        for key, col in columns.items():
            assert col.dtype == np.float32 and col.flags.c_contiguous
            assert col.shape == (len(pairs), *suite.members[key].in_shape)
        for j, (x, y) in enumerate(pairs):
            with T.no_grad():
                trace = translate(task, Tensor(x))
            rows = {"x": x, "y": y, **{i: concat_symmetric(trace, i, task.n_layers).data
                                       for i in range(1, task.num_levels + 1)}}
            for key, row in rows.items():
                assert columns[key][j].tobytes() == np.ascontiguousarray(row).tobytes()

    def test_stacked_and_listed_columns_train_alike(self, small_stack):
        ds, task, suite = small_stack
        col = collect_level_tensors(task, ds.pairs("train")[:12])[1]
        before = col.copy()
        # per-sample features come channels-last, as the translate pass makes them
        listed = [np.ascontiguousarray(a.transpose(1, 2, 0)).transpose(2, 0, 1) for a in col]
        a, b = (Autoencoder(suite.members[1].in_shape, seed=3) for _ in range(2))
        ra = train_autoencoder(a, col, LrSchedule(1e-3, 1, 2), seed=5, batch_size=5)
        rb = train_autoencoder(b, listed, LrSchedule(1e-3, 1, 2), seed=5, batch_size=5)
        assert ra.epoch_losses == rb.epoch_losses
        assert params_checksum(a.params()) == params_checksum(b.params())
        assert np.array_equal(col, before)

    def test_suite_keeps_one_copy_of_each_column(self):
        # the benchmark's stack: 64 pairs, the default 7-layer 32x32 model
        pairs = synthesize(SyntheticTaskSpec(train=64, calib=1, id_test=1, ood_test=1,
                                             seed=5)).pairs("train")
        task = TaskModel(seed=0)
        schedule = LrSchedule(1e-3, 1, 0)
        train_task(task, pairs, schedule)
        shapes = member_shapes(task)
        columns = [len(pairs) * 4 * math.prod(shape) for shape in shapes.values()]
        r = np.random.default_rng(0)
        # one member's training (tape, batches, Adam state) on one batch of rows
        training = max(traced_peak(train_autoencoder, Autoencoder(shape, seed=1),
                                   r.normal(size=(8, *shape)).astype(np.float32), schedule)
                       for shape in shapes.values())
        peak = traced_peak(train_recon_suite, ReconSuite(task, seed=0), task, pairs, schedule)
        # a second copy of the largest column (R_1's, 8 MB) would cross this
        assert peak < sum(columns) + training + max(columns) / 2


class TestShiftErrors:
    def test_identity_stub_gives_zero(self, small_stack):
        ds, task, suite = small_stack
        import copy
        stubbed = copy.deepcopy(suite)
        for key in stubbed.member_keys():
            stubbed.members[key] = IdentityRecon()
        errors = identity_errors(task, stubbed, ds.pairs("id_test")[0][0])
        assert errors.eps_x == 0.0 and errors.eps_y == 0.0
        assert all(v == 0.0 for v in errors.eps_i.values())

    def test_all_errors_nonnegative_finite(self, small_stack):
        ds, task, suite = small_stack
        for x, _ in ds.pairs("ood_test")[:4]:
            errors = identity_errors(task, suite, x)
            vals = [errors.eps_x, errors.eps_y, *errors.eps_i.values()]
            assert all(np.isfinite(v) and v >= 0 for v in vals)

    def test_levels_subset(self, small_stack):
        ds, task, suite = small_stack
        errors = identity_errors(task, suite, ds.pairs("id_test")[0][0], levels=(1, 3))
        assert set(errors.eps_i) == {1, 3}


class TestUnadaptedOutputError:
    """The gate statistic: R_y's error on the unadapted output (TtaRunner.unadapted)."""

    def test_deterministic(self, small_stack):
        ds, task, suite = small_stack
        x = ds.pairs("id_test")[0][0]
        runner = TtaRunner(task=task, suite=suite)
        (out_a, eps_a), (out_b, eps_b) = runner.unadapted(x), runner.unadapted(x)
        assert eps_a == eps_b and np.array_equal(out_a, out_b)

    def test_equals_shift_errors_eps_y(self, small_stack):
        ds, task, suite = small_stack
        x = ds.pairs("id_test")[1][0]
        assert gate_error(task, suite, x) == identity_errors(task, suite, x).eps_y

    def test_finite_distribution_percentile(self, small_stack):
        ds, task, suite = small_stack
        from ttalab.search import calibrate_threshold
        errs = calibration_errors(task, suite, ds)
        assert errs == [gate_error(task, suite, x) for x, _ in ds.pairs("calib")]
        tau = calibrate_threshold(errs, 95)
        assert np.isfinite(tau) and tau > 0


class TestAutoencoder:
    def test_round_shape(self):
        ae = Autoencoder((6, 16, 16), seed=0)
        out = ae.forward(Tensor(rng.normal(size=(6, 16, 16)).astype(np.float32)))
        assert out.data.shape == (6, 16, 16)

    def test_undercomplete_bottleneck(self):
        ae = Autoencoder((8, 16, 16), seed=0)
        bottleneck = ae.layers[1].spec.out_ch
        assert bottleneck == 4  # half the input channels

    def test_spatial_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible by 4"):
            Autoencoder((1, 18, 18), seed=0)

    def test_wrong_input_shape(self):
        ae = Autoencoder((2, 16, 16), seed=0)
        with pytest.raises(ValueError, match="expects"):
            ae.forward(Tensor(np.zeros((3, 16, 16), np.float32)))
