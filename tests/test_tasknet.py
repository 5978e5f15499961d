import numpy as np
import pytest

import ttalab.tensor as T
from ttalab.data import SyntheticTaskSpec, synthesize
from ttalab.layers import train_epochs
from ttalab.tasknet import TaskModel, default_layer_plan, train_task, translate
from ttalab.tensor import LrSchedule, Tensor

rng = np.random.default_rng(42)


def make_input(size=32, scale=0.5):
    return Tensor((rng.normal(size=(1, size, size)) * scale).clip(-1, 1).astype(np.float32))


class TestArchitecture:
    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_symmetric_shapes(self, n):
        model = TaskModel(n_layers=n, image_size=32, seed=1)
        trace = translate(model, make_input())
        k = model.num_levels
        for i in range(1, k + 1):
            a = trace.features[i].data.shape
            b = trace.features[n - i].data.shape
            assert a == b, f"depth {i} vs {n - i}: {a} vs {b}"

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
    def test_depth_limited_pass_matches_full(self, n):
        model = TaskModel(n_layers=n, image_size=32, seed=1)
        x = make_input()
        full = translate(model, x)
        for d in range(1, n + 1):
            part = model.forward_trace(x, depth=d)
            assert list(part.features) == list(range(1, d + 1))
            for i, h in part.features.items():
                assert h.data.tobytes() == full.features[i].data.tobytes()
            assert part.output is part.features[d]

    def test_depth_out_of_range_rejected(self):
        model = TaskModel(n_layers=5, image_size=32, seed=1)
        for d in (0, 6):
            with pytest.raises(ValueError, match="depth out of range"):
                model.forward_trace(make_input(), depth=d)

    @pytest.mark.parametrize("n,size", [(5, 16), (6, 32), (7, 16), (7, 32), (8, 32), (9, 64)])
    def test_feature_shape_matches_the_pass(self, n, size):
        model = TaskModel(n_layers=n, image_size=size, seed=1)
        trace = translate(model, make_input(size))
        for d, h in trace.features.items():
            assert model.feature_shape(d) == h.data.shape

    def test_output_shape_and_range(self):
        model = TaskModel(seed=2)
        out = translate(model, make_input()).output.data
        assert out.shape == (1, 32, 32)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_zero_head_untrained_output_is_zero(self):
        model = TaskModel(seed=3)
        out = translate(model, make_input()).output.data
        assert np.array_equal(out, np.zeros_like(out))

    def test_deterministic_traces(self):
        model = TaskModel(seed=4)
        x = make_input()
        t1 = translate(model, x)
        t2 = translate(model, x)
        for d in t1.features:
            assert np.array_equal(t1.features[d].data, t2.features[d].data)

    def test_same_seed_same_model(self):
        m1, m2 = TaskModel(seed=5), TaskModel(seed=5)
        assert m1.checksum() == m2.checksum()

    def test_bad_layer_count(self):
        with pytest.raises(ValueError):
            default_layer_plan(4)
        with pytest.raises(ValueError):
            default_layer_plan(10)

    def test_shape_mismatch_rejected(self):
        model = TaskModel(seed=6)
        with pytest.raises(ValueError, match="input shape"):
            translate(model, Tensor(np.zeros((1, 16, 16), np.float32)))


class TestTrainTask:
    def test_identity_task_reaches_low_mae(self):
        # y == x (noise-free denoise spec degenerates to the identity task)
        spec = SyntheticTaskSpec(train=96, calib=8, id_test=24, ood_test=8,
                                 image_size=32, noise_sigma=0.0, seed=11)
        ds = synthesize(spec)
        model = TaskModel(image_size=32, seed=0)
        report = train_task(model, ds.pairs("train"), LrSchedule(2e-4, 15, 15), seed=0)
        assert report.epoch_losses[-1] < report.epoch_losses[0]
        errs = []
        with T.no_grad():
            for x, y in ds.pairs("id_test"):
                out = translate(model, Tensor(x)).output.data
                errs.append(np.abs(out - x).mean())
        assert float(np.mean(errs)) < 0.05

    def test_single_sample_overfit(self):
        spec = SyntheticTaskSpec(train=1, calib=1, id_test=1, ood_test=1,
                                 image_size=16, seed=12)
        ds = synthesize(spec)
        model = TaskModel(image_size=16, seed=0)
        report = train_task(model, ds.pairs("train"), LrSchedule(2e-4, 10, 10), seed=0)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_zero_decay_constant_lr(self):
        spec = SyntheticTaskSpec(train=4, calib=1, id_test=1, ood_test=1,
                                 image_size=16, seed=13)
        ds = synthesize(spec)
        model = TaskModel(image_size=16, seed=0)
        report = train_task(model, ds.pairs("train"), LrSchedule(2e-4, 3, 0), seed=0)
        assert report.lr_by_epoch == [2e-4, 2e-4, 2e-4]

    def test_stacked_columns_train_as_the_pair_list(self):
        spec = SyntheticTaskSpec(train=12, calib=1, id_test=1, ood_test=1,
                                 image_size=16, seed=15)
        pairs = synthesize(spec).pairs("train")
        listed, stacked = TaskModel(image_size=16, seed=0), TaskModel(image_size=16, seed=0)
        schedule = LrSchedule(2e-4, 2, 1)
        ra = train_task(listed, pairs, schedule, seed=3, batch_size=5)
        rb = train_epochs(stacked.params(), [np.stack([x for x, _ in pairs]),
                                             np.stack([y for _, y in pairs])],
                          lambda xb, yb: T.l1_distance(stacked.forward_trace(xb).output, yb),
                          schedule, 3, 5)
        assert ra.epoch_losses == rb.epoch_losses
        assert listed.checksum() == stacked.checksum()

    def test_empty_dataset(self):
        model = TaskModel(seed=0)
        with pytest.raises(ValueError, match="empty"):
            train_task(model, [], LrSchedule(1e-3, 1, 1))

    def test_frozen_after_training_and_during_inference(self):
        spec = SyntheticTaskSpec(train=4, calib=1, id_test=1, ood_test=1,
                                 image_size=16, seed=14)
        ds = synthesize(spec)
        model = TaskModel(image_size=16, seed=0)
        train_task(model, ds.pairs("train"), LrSchedule(2e-4, 2, 2), seed=0)
        before = model.checksum()
        for _ in range(3):
            translate(model, Tensor(ds.pairs("id_test")[0][0]))
        assert model.checksum() == before
        assert all(not p.requires_grad for p in model.params())

