import contextlib
import weakref

import numpy as np
import pytest

import ttalab.adaptors as A
import ttalab.tensor as T
from ttalab.adaptors import (Configuration, adapt_steps, adapted_forward,
                             identity_step, init_adaptors)
from ttalab.search import TtaRunner
from ttalab.tasknet import TaskModel, translate
from ttalab.tensor import Tensor


def sample_x(ds):
    return ds.pairs("ood_test")[0][0]


def all_params(adaptors):
    """The input adaptor's and every level adaptor's params."""
    return adaptors.trainable_params(Configuration.of(adaptors.level_adaptors))


class TestConfiguration:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            Configuration(())

    def test_of_sorts_and_dedupes(self):
        assert Configuration.of([3, 1, 3]).active == (1, 3)

    def test_code_bitmask(self):
        assert Configuration.of([1, 3]).code() == 0b101

    def test_str(self):
        assert str(Configuration.of([2, 3])) == "2+3"


class TestInitAdaptors:
    def test_fresh_set_is_identity_bitwise(self, small_stack):
        ds, task, suite = small_stack
        adaptors = init_adaptors(task, seed=0)
        x = sample_x(ds)
        base = translate(task, Tensor(x))
        for omega in (Configuration.of([1]), Configuration.of([2, 3]),
                      Configuration.of([1, 2, 3])):
            trace, _ = adapted_forward(task, suite, adaptors, omega, x)
            assert np.array_equal(trace.output.data, base.output.data)
            for d in base.features:
                assert np.array_equal(trace.features[d].data, base.features[d].data)

    def test_param_count_32_channel_tap(self, small_stack):
        _, task, _ = small_stack
        adaptors = init_adaptors(task, seed=0)
        # depth-2 taps have 32 channels in the default plan
        assert task.channels_at(2) == 32
        la = adaptors.level_adaptors[2]
        assert la.weight.data.size + la.bias.data.size == 32 * 32 + 32

    def test_same_seed_identical(self, small_stack):
        _, task, _ = small_stack
        a1 = init_adaptors(task, seed=5)
        a2 = init_adaptors(task, seed=5)
        for p1, p2 in zip(all_params(a1), all_params(a2)):
            assert np.array_equal(p1.data, p2.data)

    def test_mirror_sharing_when_channels_match(self, small_stack):
        _, task, _ = small_stack
        adaptors = init_adaptors(task, seed=0)
        for i, la in adaptors.level_adaptors.items():
            c = task.channels_at(i)
            assert la.params() == [la.weight, la.bias]
            assert la.weight.shape == (c, c, 1, 1) and la.bias.shape == (c,)

    @pytest.mark.parametrize("n_layers", [5, 6, 7, 8, 9])
    @pytest.mark.parametrize("base_channels, max_channels", [(16, 64), (4, 8), (3, 100)])
    def test_mirror_depths_have_equal_channels(self, n_layers, base_channels, max_channels):
        task = TaskModel(n_layers=n_layers, base_channels=base_channels,
                         max_channels=max_channels)
        for i in range(1, task.num_levels + 1):
            assert task.channels_at(i) == task.channels_at(n_layers - i)


class TestAdaptedForward:
    def test_selector_routing_inactive_params_ignored(self, small_stack):
        ds, task, suite = small_stack
        x = sample_x(ds)
        omega = Configuration.of([1])
        adaptors = init_adaptors(task, seed=0)
        base, _ = adapted_forward(task, suite, adaptors, omega, x)
        # perturbing an inactive adaptor must not change the output
        adaptors.level_adaptors[2].weight.data += 0.7
        after, _ = adapted_forward(task, suite, adaptors, omega, x)
        assert np.array_equal(base.output.data, after.output.data)
        # perturbing the active adaptor must change it
        adaptors.level_adaptors[1].weight.data += 0.3
        changed, _ = adapted_forward(task, suite, adaptors, omega, x)
        assert not np.array_equal(base.output.data, changed.output.data)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_level_adaptor_acts_at_depth_i_and_its_mirror(self, small_stack, level):
        ds, task, suite = small_stack
        adaptors = init_adaptors(task, seed=0)
        la = adaptors.level_adaptors[level]
        la.weight.data = np.zeros_like(la.weight.data)  # the map's output is its bias
        la.bias.data = np.arange(1, la.bias.data.size + 1, dtype=np.float32)
        trace, _ = adapted_forward(task, suite, adaptors, Configuration.of([level]),
                                   sample_x(ds))
        mirror = task.n_layers - level
        bias_map = np.broadcast_to(la.bias.data[:, None, None], trace.features[level].shape)
        for d, h in trace.features.items():
            assert np.array_equal(h.data, bias_map) == (d in (level, mirror)), d

    def test_shape_preservation(self, small_stack):
        ds, task, suite = small_stack
        x = sample_x(ds)
        base = translate(task, Tensor(x))
        adaptors = init_adaptors(task, seed=1)
        for p in all_params(adaptors):
            p.data = p.data + np.float32(0.01)  # arbitrary non-identity
        trace, _ = adapted_forward(task, suite, adaptors,
                                   Configuration.of([1, 2, 3]), x)
        for d in base.features:
            assert trace.features[d].data.shape == base.features[d].data.shape

    def test_errors_cover_active_levels_only(self, small_stack):
        ds, task, suite = small_stack
        adaptors = init_adaptors(task, seed=0)
        _, errors = adapted_forward(task, suite, adaptors, Configuration.of([2]),
                                    sample_x(ds))
        assert set(errors.eps_i) == {2}
        assert errors.eps_x >= 0 and errors.eps_y >= 0

    def test_identity_errors_match_unadapted_eps_y(self, small_stack):
        ds, task, suite = small_stack
        x = sample_x(ds)
        adaptors = init_adaptors(task, seed=0)
        _, errors = adapted_forward(task, suite, adaptors, Configuration.of([1]), x)
        assert errors.eps_y == TtaRunner(task=task, suite=suite).unadapted(x)[1]

    def test_out_of_range_level(self, small_stack):
        ds, task, suite = small_stack
        adaptors = init_adaptors(task, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            adapted_forward(task, suite, adaptors, Configuration.of([9]), sample_x(ds))


class TestAdaptSteps:
    def test_step_count_and_trace_length(self, small_stack):
        ds, task, suite = small_stack
        adaptors = init_adaptors(task, seed=0)
        trace = adapt_steps(task, suite, adaptors, Configuration.of([1]),
                            sample_x(ds), m_steps=1)
        assert len(trace.steps) == 1
        assert trace.steps[0].step == 1

    def test_single_step_takes_no_update(self, small_stack):
        ds, task, suite = small_stack
        adaptors = init_adaptors(task, seed=0)
        before = [p.data.copy() for p in all_params(adaptors)]
        trace = adapt_steps(task, suite, adaptors, Configuration.of([1, 2, 3]),
                            sample_x(ds), m_steps=1)
        assert [s.step for s in trace.steps] == [1]
        assert trace.best_step == 1 and not trace.failed
        for b, p in zip(before, all_params(adaptors)):
            assert np.array_equal(b, p.data)

    def test_last_forward_untaped_with_identical_records(self, small_stack, monkeypatch):
        ds, task, suite = small_stack
        omega = Configuration.of([1, 2, 3])
        taped = []
        inner = A._adapted_pass

        def recording(*args):
            taped.append(T.grad_enabled())
            return inner(*args)

        monkeypatch.setattr(A, "_adapted_pass", recording)
        trace = adapt_steps(task, suite, init_adaptors(task, seed=0), omega,
                            sample_x(ds), m_steps=4)
        assert taped == [True, True, True, False]
        # the same run with the last pass on the tape gives the same records
        monkeypatch.setattr(A.T, "no_grad", contextlib.nullcontext)
        ref = adapt_steps(task, suite, init_adaptors(task, seed=0), omega,
                          sample_x(ds), m_steps=4)
        assert taped[4:] == [True] * 4
        assert [s.to_dict() for s in trace.steps] == [s.to_dict() for s in ref.steps]
        assert trace.best_step == ref.best_step
        assert np.array_equal(trace.best_output, ref.best_output)

    def test_each_step_frees_the_previous_tape(self, small_stack, monkeypatch):
        ds, task, suite = small_stack
        refs, alive = [], []
        inner = A._adapted_pass

        def recording(*args):
            alive.append(sum(ref() is not None for ref in refs))
            ap = inner(*args)
            refs.append(weakref.ref(ap.eps_y.data))
            return ap

        monkeypatch.setattr(A, "_adapted_pass", recording)
        adapt_steps(task, suite, init_adaptors(task, seed=0), Configuration.of([1, 2, 3]),
                    sample_x(ds), m_steps=4)
        # no earlier pass, and so no earlier tape, is alive when a forward starts
        assert alive == [0, 0, 0, 0]

    def test_best_step_never_worse_than_first(self, small_stack):
        ds, task, suite = small_stack
        for idx, (x, _) in enumerate(ds.pairs("ood_test")[:4]):
            adaptors = init_adaptors(task, seed=idx)
            trace = adapt_steps(task, suite, adaptors, Configuration.of([1, 2]),
                                x, m_steps=4)
            assert trace.best_eps_y <= trace.steps[0].eps_y
            chosen = [s for s in trace.steps if s.chosen]
            assert len(chosen) == 1 and chosen[0].step == trace.best_step

    def test_first_step_evaluates_identity(self, small_stack):
        ds, task, suite = small_stack
        x = sample_x(ds)
        adaptors = init_adaptors(task, seed=0)
        trace = adapt_steps(task, suite, adaptors, Configuration.of([3]), x, m_steps=3)
        assert trace.steps[0].eps_y == TtaRunner(task=task, suite=suite).unadapted(x)[1]

    def test_gradient_isolation_inactive_unchanged(self, small_stack):
        ds, task, suite = small_stack
        adaptors = init_adaptors(task, seed=0)
        omega = Configuration.of([1])
        inactive_before = [p.data.copy() for i in (2, 3)
                           for p in adaptors.level_adaptors[i].params()]
        active_before = [p.data.copy() for p in adaptors.level_adaptors[1].params()]
        adapt_steps(task, suite, adaptors, omega, sample_x(ds), m_steps=3)
        inactive_after = [p.data for i in (2, 3)
                          for p in adaptors.level_adaptors[i].params()]
        for b, a in zip(inactive_before, inactive_after):
            assert np.array_equal(b, a)
        moved = any(not np.array_equal(b, a.data) for b, a in
                    zip(active_before, adaptors.level_adaptors[1].params()))
        assert moved

    def test_backbone_frozen_through_adaptation(self, small_stack):
        ds, task, suite = small_stack
        task_sum = task.checksum()
        suite_sum = suite.checksum()
        adaptors = init_adaptors(task, seed=0)
        adapt_steps(task, suite, adaptors, Configuration.of([1, 2, 3]),
                    sample_x(ds), m_steps=3)
        assert task.checksum() == task_sum
        assert suite.checksum() == suite_sum

    def test_per_sample_isolation(self, small_stack):
        ds, task, suite = small_stack
        (x1, _), (x2, _) = ds.pairs("ood_test")[:2]
        omega = Configuration.of([1])
        a = init_adaptors(task, seed=9)
        adapt_steps(task, suite, a, omega, x1, m_steps=2)
        b = init_adaptors(task, seed=9)
        t_fresh = adapt_steps(task, suite, b, omega, x2, m_steps=2)
        c = init_adaptors(task, seed=9)
        t_alone = adapt_steps(task, suite, c, omega, x2, m_steps=2)
        assert t_fresh.best_eps_y == t_alone.best_eps_y
        assert np.array_equal(t_fresh.best_output, t_alone.best_output)

    def test_m_zero_rejected(self, small_stack):
        ds, task, suite = small_stack
        adaptors = init_adaptors(task, seed=0)
        with pytest.raises(ValueError):
            adapt_steps(task, suite, adaptors, Configuration.of([1]),
                        sample_x(ds), m_steps=0)

    def test_trace_serialises(self, small_stack):
        import json
        ds, task, suite = small_stack
        adaptors = init_adaptors(task, seed=0)
        trace = adapt_steps(task, suite, adaptors, Configuration.of([1, 3]),
                            sample_x(ds), m_steps=2)
        payload = json.dumps(trace.to_dict())
        back = json.loads(payload)
        assert back["omega"] == [1, 3]
        assert len(back["steps"]) == 2
        assert {"step", "loss", "eps_x", "eps_i", "eps_y", "chosen"} <= set(back["steps"][0])


SHARED_OMEGAS = [Configuration.of([1]), Configuration.of([1, 2]), Configuration.of([1, 2, 3])]


class TestIdentityStep:
    """Step 1 taken from the sample's shared identity step against a taped step 1."""

    @pytest.mark.parametrize("omega", SHARED_OMEGAS, ids=str)
    def test_step_one_record_bitwise_equal(self, small_stack, omega):
        ds, task, suite = small_stack
        x = sample_x(ds)
        taped = adapt_steps(task, suite, init_adaptors(task, seed=4), omega, x, m_steps=2)
        shared = adapt_steps(task, suite, init_adaptors(task, seed=4), omega, x, m_steps=2,
                             identity=identity_step(task, suite, x))
        assert shared.steps[0].to_dict() == taped.steps[0].to_dict()
        assert set(shared.steps[0].eps_i) == set(omega.active)

    @pytest.mark.parametrize("omega", SHARED_OMEGAS, ids=str)
    def test_step_one_update_matches_taped(self, small_stack, omega):
        ds, task, suite = small_stack
        x = sample_x(ds)
        a, b = init_adaptors(task, seed=4), init_adaptors(task, seed=4)
        adapt_steps(task, suite, a, omega, x, m_steps=2)
        adapt_steps(task, suite, b, omega, x, m_steps=2, identity=identity_step(task, suite, x))
        for pa, pb in zip(a.trainable_params(omega), b.trainable_params(omega)):
            assert np.abs(pa.data - pb.data).max() <= 1e-6 * np.abs(pa.data).max()
        # the zero conv2 leaves conv1 exactly where it started, as in a taped step
        fresh = init_adaptors(task, seed=4)
        assert np.array_equal(b.input_adaptor.conv1.weight.data,
                              fresh.input_adaptor.conv1.weight.data)

    def test_inactive_levels_untouched(self, small_stack):
        ds, task, suite = small_stack
        x = sample_x(ds)
        adaptors = init_adaptors(task, seed=0)
        adapt_steps(task, suite, adaptors, Configuration.of([2]), x, m_steps=2,
                    identity=identity_step(task, suite, x))
        fresh = init_adaptors(task, seed=0)
        for i in (1, 3):
            for p, q in zip(adaptors.level_adaptors[i].params(),
                            fresh.level_adaptors[i].params()):
                assert np.array_equal(p.data, q.data)

    def test_keeps_no_tape(self, small_stack):
        ds, task, suite = small_stack
        step = identity_step(task, suite, sample_x(ds))
        kept = [step.passed.eps_x, step.passed.eps_y, step.passed.trace.output,
                *step.passed.eps_i.values()]
        assert all(not t.requires_grad and t._parents == () for t in kept)
        assert len(step.grads) == task.num_levels + 1

    def test_rejects_another_sample(self, small_stack):
        ds, task, suite = small_stack
        (x1, _), (x2, _) = ds.pairs("ood_test")[:2]
        with pytest.raises(ValueError, match="another sample"):
            adapt_steps(task, suite, init_adaptors(task), Configuration.of([1]), x2,
                        m_steps=2, identity=identity_step(task, suite, x1))


WEIGHTED_OMEGAS = [Configuration.of([1]), Configuration.of([1, 3]), Configuration.of([1, 2, 3])]


class TestWeightedIdentityStep:
    """The shared step 1 takes the gradient of the loss that a taped step 1
    records, with each weight paired with its own term."""

    @pytest.mark.parametrize("omega", WEIGHTED_OMEGAS, ids=str)
    def test_weighted_step_one_matches_taped(self, small_stack, omega):
        ds, task, suite = small_stack
        x = sample_x(ds)
        weights = (0.5, 2.0, 1.5)
        a, b = init_adaptors(task, seed=4), init_adaptors(task, seed=4)
        taped = adapt_steps(task, suite, a, omega, x, m_steps=2, loss_weights=weights)
        shared = adapt_steps(task, suite, b, omega, x, m_steps=2, loss_weights=weights,
                             identity=identity_step(task, suite, x, weights))
        assert shared.steps[0].to_dict() == taped.steps[0].to_dict()
        for pa, pb in zip(a.trainable_params(omega), b.trainable_params(omega)):
            assert np.abs(pa.data - pb.data).max() <= 1e-6 * np.abs(pa.data).max()


class _Injector:
    """Writes value into one element of the forward value, or of the incoming
    gradient, of the target-th tape node built while it is installed, and
    counts the nodes built before each Adam update. Every node is counted,
    a conv_layer's inner conv included; a forward value is written before
    the op's own finite check, if it has one, as if the op had made it."""

    def __init__(self, monkeypatch, target=-1, where="forward", value=np.inf):
        self.value = value
        self.built, self.applied, self.on_tape, self.updates = 0, False, False, []
        make, update = T._node, A.adam_step

        def node(data, parents, backward):
            n, self.built = self.built, self.built + 1
            if n == target and where == "forward":
                data = self._poison(data)
            out = make(data, parents, backward)
            if n == target:
                self.on_tape = out._backward is not None
            if n == target and where == "backward" and self.on_tape:
                inner = out._backward

                def poisoned(node):
                    if not self.applied:
                        node.grad = self._poison(node.grad)
                    inner(node)

                out._backward = poisoned
            return out

        def adam(*args):
            self.updates.append(self.built)
            return update(*args)

        monkeypatch.setattr(T, "_node", node)
        monkeypatch.setattr(A, "adam_step", adam)

    def _poison(self, arr):
        arr = np.array(arr, dtype=np.float32)
        arr.flat[arr.size // 2] = self.value
        self.applied = True
        return arr


class TestFaultInjection:
    """A NaN/Inf at any tape node of an adapted pass fails its configuration
    in the step it appears in, as a check after every op would: the run keeps
    the records of the steps before that step if the value is in a forward
    pass, and of that step too if it is in a backward pass."""

    M = 3
    OMEGA = Configuration.of([1, 2, 3])

    @pytest.fixture(scope="class")
    def clean(self, small_stack):
        """Per record count k, the to_dict and best output of the clean run
        cut after k records; and the node range of each step."""
        ds, task, suite = small_stack
        x = sample_x(ds)
        with pytest.MonkeyPatch.context() as mp:
            inj = _Injector(mp)
            adapt_steps(task, suite, init_adaptors(task), self.OMEGA, x, m_steps=self.M)
        bounds = [0, *inj.updates, inj.built]
        kept = {0: ({"omega": list(self.OMEGA.active), "best_step": 0,
                     "best_eps_y": float("inf"), "failed": True, "steps": []}, None)}
        for k in range(1, self.M):
            trace = adapt_steps(task, suite, init_adaptors(task), self.OMEGA, x, m_steps=k)
            kept[k] = (trace.to_dict() | {"failed": True}, trace.best_output)
        return x, bounds, kept

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("step,where", [(1, "forward"), (1, "backward"), (2, "forward"),
                                            (2, "backward"), (3, "forward")])
    def test_each_node_fails_its_step(self, small_stack, clean, monkeypatch, step, where,
                                      value):
        _, task, suite = small_stack
        x, bounds, kept = clean
        want, want_output = kept[step - (where == "forward")]
        injected = 0
        for n in range(bounds[step - 1], bounds[step]):
            with monkeypatch.context() as mp, np.errstate(all="ignore"):
                inj = _Injector(mp, n, where, value)
                trace = adapt_steps(task, suite, init_adaptors(task), self.OMEGA, x,
                                    m_steps=self.M)
            if where == "backward" and not inj.on_tape:
                continue  # every parent of the node is a constant: it has no backward
            assert inj.applied, n
            injected += 1
            assert trace.to_dict() == want, n
            if want_output is None:
                assert trace.best_output is None
            else:
                assert np.array_equal(trace.best_output, want_output), n
        assert injected > (bounds[step] - bounds[step - 1]) // 2

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    def test_each_node_of_the_identity_step(self, small_stack, monkeypatch, value):
        """The shared step 1 keeps no forward if its pass saw the value, and
        no gradients if its loss terms or a per-term backward did."""
        ds, task, suite = small_stack
        x = sample_x(ds)
        passed_at = []
        with monkeypatch.context() as mp:
            inj = _Injector(mp)
            inner = A._adapted_pass

            def recording(*args):
                ap = inner(*args)
                passed_at.append(inj.built)
                return ap

            mp.setattr(A, "_adapted_pass", recording)
            identity_step(task, suite, x)
        for where in ("forward", "backward"):
            for n in range(inj.built):
                with monkeypatch.context() as mp, np.errstate(all="ignore"):
                    node = _Injector(mp, n, where, value)
                    step = identity_step(task, suite, x)
                if where == "backward" and not node.on_tape:
                    continue
                assert node.applied, (where, n)
                if where == "forward" and n < passed_at[0]:
                    assert step.passed is None, n
                else:
                    assert step.passed is not None and step.grads is None, (where, n)
