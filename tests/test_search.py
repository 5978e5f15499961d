import itertools
import math

import numpy as np
import pytest

import ttalab.adaptors as A
import ttalab.search as S
import ttalab.tensor as T
from ttalab.adaptors import Configuration, adapt_steps, init_adaptors
from ttalab.search import (AdaptEvaluator, MockObjective, TtaRunner, backward_elimination,
                           bayesian_search, calibrate_threshold, enumerate_configurations,
                           forward_selection, grid_search, random_search, trigger)
from ttalab.tensor import NumericError


def all_subsets(k):
    out = []
    for size in range(1, k + 1):
        out.extend(itertools.combinations(range(1, k + 1), size))
    return out


def brute_force_winner(k, fn):
    """Independent enumeration in the same canonical order, strict <."""
    best, best_val = None, math.inf
    for combo in all_subsets(k):
        val = fn(Configuration(combo))
        if val < best_val:
            best, best_val = combo, val
    return best, best_val


def greedy_fs_reference(k, fn):
    """Independent forward-selection re-implementation."""
    selected, best_val, evals = [], math.inf, 0
    while len(selected) < k:
        cands = []
        for r in range(1, k + 1):
            if r in selected:
                continue
            combo = tuple(sorted(selected + [r]))
            cands.append((fn(Configuration(combo)), combo, r))
            evals += 1
        val, combo, r = min(cands, key=lambda t: t[0])
        if val < best_val:
            best_val = val
            selected.append(r)
            selected.sort()
            if best_val == 0.0:
                break
        else:
            break
    return tuple(selected), best_val, evals


def greedy_be_reference(k, fn):
    """Independent backward-elimination re-implementation."""
    selected = list(range(1, k + 1))
    best_val = fn(Configuration(tuple(selected)))
    evals = 1
    while len(selected) > 1 and best_val != 0.0:
        cands = []
        for r in selected:
            combo = tuple(i for i in selected if i != r)
            cands.append((fn(Configuration(combo)), combo, r))
            evals += 1
        val, combo, r = min(cands, key=lambda t: t[0])
        if val < best_val:
            best_val = val
            selected.remove(r)
        else:
            break
    return tuple(selected), best_val, evals


class TestCalibrateThreshold:
    def test_uniform_ranks(self):
        errors = [float(i) for i in range(1, 101)]
        assert calibrate_threshold(errors, 95) == 95.0

    def test_singleton(self):
        assert calibrate_threshold([7.0], 42.0) == 7.0

    def test_matches_sort_oracle(self):
        r = np.random.default_rng(5)
        for _ in range(20):
            vals = r.normal(size=r.integers(1, 60)).tolist()
            p = float(r.uniform(1, 99))
            got = calibrate_threshold(vals, p)
            ranked = sorted(vals)
            idx = math.ceil(p / 100 * len(vals))
            assert got == ranked[min(max(idx, 1), len(vals)) - 1]

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            calibrate_threshold([], 95)

    def test_percentile_range(self):
        with pytest.raises(ValueError):
            calibrate_threshold([1.0], 0.0)
        with pytest.raises(ValueError):
            calibrate_threshold([1.0], 100.0)


class TestTrigger:
    def test_equal_is_false(self):
        assert trigger(0.5, 0.5) is False

    def test_just_above(self):
        assert trigger(0.5 + 1e-9, 0.5) is True

    def test_below(self):
        assert trigger(0.0, 0.1) is False

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            trigger(float("nan"), 0.1)


class TestEnumeration:
    def test_cardinality(self):
        for k in (1, 2, 3, 4, 5):
            assert len(enumerate_configurations(k)) == 2 ** k - 1

    def test_order_size_then_lex(self):
        got = [c.active for c in enumerate_configurations(3)]
        assert got == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]

    def test_configuration_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            Configuration(())
        with pytest.raises(ValueError):
            Configuration((0, 1))
        with pytest.raises(ValueError):
            Configuration((2, 1))


class TestGridSearch:
    def test_sum_of_indices(self):
        ctx = MockObjective(3, lambda c: sum(c.active), steps_per_eval=5)
        out = grid_search(ctx)
        assert out.omega_star.active == (1,)
        assert out.eps_best == 1
        assert ctx.budget.configs_evaluated == 7
        assert ctx.budget.adapt_steps_total == 35
        assert ctx.budget.forwards_total == 35

    def test_tie_break_first_enumerated(self):
        vals = {(1,): 1.0, (2,): 1.0}
        ctx = MockObjective(3, lambda c: vals.get(c.active, 5.0))
        out = grid_search(ctx)
        assert out.omega_star.active == (1,)

    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_brute_force_on_random_objectives(self, k):
        r = np.random.default_rng(k)
        for _ in range(100):
            table = {c: r.random() for c in all_subsets(k)}
            fn = lambda cfg: table[cfg.active]
            ctx = MockObjective(k, fn)
            out = grid_search(ctx)
            ref_combo, ref_val = brute_force_winner(k, fn)
            assert out.omega_star.active == ref_combo
            assert out.eps_best == ref_val
            assert ctx.budget.configs_evaluated == 2 ** k - 1


class TestRandomSearch:
    def test_exhaustive_equals_grid(self):
        r = np.random.default_rng(0)
        table = {c: float(v) for c, v in zip(all_subsets(3), r.random(7))}
        fn = lambda cfg: table[cfg.active]
        g = grid_search(MockObjective(3, fn))
        rs = random_search(MockObjective(3, fn), n_config=10,
                           rng=np.random.default_rng(1))
        assert rs.omega_star.active == g.omega_star.active
        assert rs.eps_best == g.eps_best

    def test_exhaustive_equals_grid_with_ties(self):
        fn = lambda cfg: 1.0  # all tied: canonical order decides
        g = grid_search(MockObjective(3, fn))
        rs = random_search(MockObjective(3, fn), n_config=7,
                           rng=np.random.default_rng(2))
        assert rs.omega_star.active == g.omega_star.active == (1,)

    def test_n1_counts(self):
        ctx = MockObjective(3, lambda c: sum(c.active), steps_per_eval=4)
        out = random_search(ctx, n_config=1, rng=np.random.default_rng(3))
        assert ctx.budget.configs_evaluated == 1
        assert ctx.budget.adapt_steps_total == 4
        assert out.omega_star is not None

    def test_deterministic_given_seed(self):
        fn = lambda cfg: sum(cfg.active) * 0.1
        o1 = random_search(MockObjective(4, fn), 5, np.random.default_rng(7))
        o2 = random_search(MockObjective(4, fn), 5, np.random.default_rng(7))
        assert o1.omega_star.active == o2.omega_star.active
        assert o1.eps_best == o2.eps_best

    def test_budget_min_rule(self):
        for n, expect in ((3, 3), (20, 15)):
            ctx = MockObjective(4, lambda c: 1.0)
            random_search(ctx, n, np.random.default_rng(0))
            assert ctx.budget.configs_evaluated == expect


class TestForwardSelection:
    def test_symmetric_difference_target(self):
        fn = lambda cfg: len(set(cfg.active) ^ {1, 3})
        ctx = MockObjective(3, fn)
        out = forward_selection(ctx)
        assert out.omega_star.active == (1, 3)
        assert out.eps_best == 0
        assert ctx.budget.configs_evaluated == 5  # rounds of 3 then 2

    def test_increasing_objective_stops_at_singleton(self):
        fn = lambda cfg: float(len(cfg.active))
        ctx = MockObjective(3, fn)
        out = forward_selection(ctx)
        assert out.omega_star.active == (1,)
        assert out.eps_best == 1.0
        assert ctx.budget.configs_evaluated == 5  # 3 singletons + 2 pairs

    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_independent_reference(self, k):
        r = np.random.default_rng(10 + k)
        for _ in range(100):
            table = {c: r.random() for c in all_subsets(k)}
            fn = lambda cfg: table[cfg.active]
            ctx = MockObjective(k, fn)
            out = forward_selection(ctx)
            ref_combo, ref_val, ref_evals = greedy_fs_reference(k, fn)
            assert out.omega_star.active == ref_combo
            assert out.eps_best == ref_val
            assert ctx.budget.configs_evaluated == ref_evals

    def test_budget_bound(self):
        for k in (2, 3, 4, 5):
            r = np.random.default_rng(k)
            table = {c: r.random() for c in all_subsets(k)}
            ctx = MockObjective(k, lambda cfg: table[cfg.active])
            forward_selection(ctx)
            assert ctx.budget.configs_evaluated <= k * (k + 1) // 2

    def test_faithful_pseudocode_variant_differs(self):
        # literal pseudocode grows the candidate within a round: on a monotone
        # decreasing objective it reaches the full set in one round of k evals
        fn = lambda cfg: -float(len(cfg.active)) + 10.0
        ctx = MockObjective(3, fn)
        out = forward_selection(ctx, faithful_pseudocode=True)
        assert out.omega_star.active == (1, 2, 3)
        assert ctx.budget.configs_evaluated == 3

    def test_faithful_pseudocode_breaks_on_first_non_improvement(self):
        fn = lambda cfg: float(len(cfg.active))
        ctx = MockObjective(3, fn)
        out = forward_selection(ctx, faithful_pseudocode=True)
        # {1} improves over inf, {1,2} does not -> break
        assert out.omega_star.active == (1,)
        assert ctx.budget.configs_evaluated == 2


class TestBackwardElimination:
    def test_shrinks_to_singleton(self):
        fn = lambda cfg: float(len(cfg.active))
        ctx = MockObjective(3, fn)
        out = backward_elimination(ctx)
        assert len(out.omega_star.active) == 1
        assert ctx.budget.configs_evaluated == 1 + 3 + 2

    def test_full_set_optimal(self):
        fn = lambda cfg: 10.0 - float(len(cfg.active))
        ctx = MockObjective(3, fn)
        out = backward_elimination(ctx)
        assert out.omega_star.active == (1, 2, 3)
        assert ctx.budget.configs_evaluated == 1 + 3

    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_independent_reference(self, k):
        r = np.random.default_rng(20 + k)
        for _ in range(100):
            table = {c: r.random() for c in all_subsets(k)}
            fn = lambda cfg: table[cfg.active]
            ctx = MockObjective(k, fn)
            out = backward_elimination(ctx)
            ref_combo, ref_val, ref_evals = greedy_be_reference(k, fn)
            assert out.omega_star.active == ref_combo
            assert out.eps_best == ref_val
            assert ctx.budget.configs_evaluated == ref_evals

    def test_budget_bound(self):
        for k in (2, 3, 4, 5):
            r = np.random.default_rng(k + 40)
            table = {c: r.random() for c in all_subsets(k)}
            ctx = MockObjective(k, lambda cfg: table[cfg.active])
            backward_elimination(ctx)
            assert ctx.budget.configs_evaluated <= 1 + k * (k + 1) // 2


class TestBayesianSearch:
    def test_degenerate_equals_random_search_set(self):
        fn = lambda cfg: sum(cfg.active) * 1.0
        ctx = MockObjective(3, fn)
        out = bayesian_search(ctx, n_trials=5, n_start=5, rng=np.random.default_rng(4))
        assert ctx.budget.configs_evaluated == 5
        rs_ctx = MockObjective(3, fn)
        rs = random_search(rs_ctx, 5, np.random.default_rng(4))
        assert out.eps_best == rs.eps_best

    def test_deterministic(self):
        fn = lambda cfg: float(len(set(cfg.active) ^ {2}))
        o1 = bayesian_search(MockObjective(3, fn), rng=np.random.default_rng(11))
        o2 = bayesian_search(MockObjective(3, fn), rng=np.random.default_rng(11))
        assert o1.omega_star.active == o2.omega_star.active
        assert o1.eps_best == o2.eps_best

    def test_finds_optimum_k3_all_seeds(self):
        fn = lambda cfg: float(len(set(cfg.active) ^ {2}))
        wins = 0
        for seed in range(100):
            out = bayesian_search(MockObjective(3, fn), n_trials=20, n_start=5,
                                  rng=np.random.default_rng(seed))
            wins += out.omega_star.active == (2,)
        assert wins >= 80

    def test_guided_beats_exhaustion_k5(self):
        # |Omega| = 31 > 20 trials: success needs actual TPE guidance
        fn = lambda cfg: float(len(set(cfg.active) ^ {2, 4}))
        wins = 0
        for seed in range(100):
            out = bayesian_search(MockObjective(5, fn), n_trials=20, n_start=5,
                                  rng=np.random.default_rng(seed))
            wins += out.omega_star.active == (2, 4)
        assert wins >= 70

    def test_budget_linear(self):
        ctx = MockObjective(5, lambda c: float(sum(c.active)), steps_per_eval=3)
        bayesian_search(ctx, n_trials=12, n_start=4, rng=np.random.default_rng(0))
        assert ctx.budget.configs_evaluated <= 12
        assert ctx.budget.adapt_steps_total == 3 * ctx.budget.configs_evaluated

    def test_invalid_start(self):
        with pytest.raises(ValueError):
            bayesian_search(MockObjective(3, lambda c: 1.0), n_trials=3, n_start=5)


@pytest.fixture(scope="module")
def nine_layer():
    from ttalab.recon import ReconSuite
    from ttalab.tasknet import TaskModel
    task = TaskModel(n_layers=9, image_size=32, seed=3)
    task.trained_epochs = 1  # wiring only; quality is irrelevant here
    head = task.layers[-1].weight
    head.data = np.random.default_rng(3).normal(
        0.0, 0.05, size=head.data.shape).astype(np.float32)
    suite = ReconSuite(task, seed=3)
    for key in suite.trained:
        suite.trained[key] = True
    x = np.random.default_rng(0).normal(size=(1, 32, 32)).astype(np.float32) * 0.4
    return task, suite, x


class TestNineLayerIntegration:
    """k = 4 wiring: |Omega| = 15 > 10, so rand10 must spend strictly less."""

    def test_rand10_budget_strictly_smaller_than_grid(self, nine_layer):
        from ttalab.search import TtaRunner
        task, suite, x = nine_layer
        runner = TtaRunner(task=task, suite=suite, m_steps=1, seed=0)
        grid = runner.run_sample(x, "grid", tau=0.0, sample_index=0)
        rand = runner.run_sample(x, "rand10", tau=0.0, sample_index=0)
        assert grid.budget.configs_evaluated == 15
        assert grid.budget.adapt_steps_total == 15
        assert rand.budget.configs_evaluated == 10
        assert rand.budget.adapt_steps_total < grid.budget.adapt_steps_total
        assert rand.eps_best >= grid.eps_best  # grid is exhaustive

    def test_level_four_adaptor_routing(self, nine_layer):
        from ttalab.adaptors import Configuration, adapted_forward, init_adaptors
        task, suite, x = nine_layer
        adaptors = init_adaptors(task, seed=1)
        trace, errors = adapted_forward(task, suite, adaptors,
                                        Configuration.of([4]), x)
        assert set(errors.eps_i) == {4}
        from ttalab.tasknet import translate
        from ttalab.tensor import Tensor
        base = translate(task, Tensor(x))
        assert np.array_equal(trace.output.data, base.output.data)


def _counting(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestSharedIdentityStep:
    """AdaptEvaluator builds one identity step per sample and every
    configuration takes its step 1 from it."""

    @staticmethod
    def evaluator(small_stack, share: bool) -> AdaptEvaluator:
        ds, task, suite = small_stack
        runner = TtaRunner(task=task, suite=suite, m_steps=3, seed=0)
        x = ds.pairs("ood_test")[0][0]
        return AdaptEvaluator(runner=runner, x=x, gate=runner.unadapted(x), sample_index=2,
                              trace_sink=[], share_identity_step=share)

    def test_grid_matches_taped_step_one(self, small_stack, monkeypatch):
        built = _counting(monkeypatch, S, "identity_step")
        shared, taped = self.evaluator(small_stack, True), self.evaluator(small_stack, False)
        a, b = grid_search(shared), grid_search(taped)
        assert built == ["identity_step"]
        assert a.omega_star == b.omega_star
        assert a.eps_best == pytest.approx(b.eps_best, rel=1e-6)
        assert a.budget == b.budget
        assert (a.budget.configs_evaluated, a.budget.adapt_steps_total) == (7, 21)
        for ta, tb in zip(shared.trace_sink, taped.trace_sink):
            assert ta.steps[0].to_dict() == tb.steps[0].to_dict()

    @pytest.mark.parametrize("where", ["forward", "backward"])
    def test_numeric_error_fails_every_configuration(self, small_stack, monkeypatch, where):
        building = []  # non-empty while the shared step is built
        build = S.identity_step

        def tracked(*args, **kwargs):
            building.append(True)
            try:
                return build(*args, **kwargs)
            finally:
                building.pop()

        # conv2d_1x1 runs only in the level adaptors, so only in adapted forwards
        owner, name = (T, "conv2d_1x1") if where == "forward" else (A, "backward")
        inner, everywhere = getattr(owner, name), []

        def injected(*args, **kwargs):
            if building or everywhere:
                raise NumericError("injected")
            return inner(*args, **kwargs)

        monkeypatch.setattr(S, "identity_step", tracked)
        monkeypatch.setattr(owner, name, injected)
        shared = self.evaluator(small_stack, True)
        a = grid_search(shared)
        # before sharing, the same failure hit every configuration's own step 1
        everywhere.append(True)
        taped = self.evaluator(small_stack, False)
        b = grid_search(taped)
        assert a.budget == b.budget
        assert a.budget.failed_configs == a.budget.configs_evaluated == 7
        assert a.budget.adapt_steps_total == (0 if where == "forward" else 7)
        ds, task, suite = small_stack
        unadapted = TtaRunner(task=task, suite=suite).unadapted(shared.x)[0]
        for ta, tb in zip(shared.trace_sink, taped.trace_sink):
            assert ta.failed and ta.to_dict() == tb.to_dict()
            assert np.array_equal(ta.best_output, tb.best_output)
            assert np.array_equal(ta.best_output, unadapted)

    def test_static_all_and_direct_calls_never_build_it(self, small_stack, monkeypatch):
        ds, task, suite = small_stack
        by_search = _counting(monkeypatch, S, "identity_step")
        by_adaptors = _counting(monkeypatch, A, "identity_step")
        x = ds.pairs("ood_test")[0][0]
        runner = TtaRunner(task=task, suite=suite, m_steps=3)
        out = runner.run_sample(x, "static-all", tau=0.0)
        assert out.budget.configs_evaluated == 1 and out.budget.adapt_steps_total == 3
        adapt_steps(task, suite, init_adaptors(task), Configuration.of([1, 2]), x, m_steps=3)
        assert by_search == by_adaptors == []
        runner.run_sample(x, "fs", tau=0.0)
        assert by_search == ["identity_step"]


class _RecordingObjective(MockObjective):
    """A MockObjective that logs (omega, eps) for every evaluation, in order."""

    def __init__(self, k, fn):
        super().__init__(k, fn)
        self.log = []

    def evaluate(self, omega):
        ev = super().evaluate(omega)
        self.log.append((omega.active, ev.eps))
        return ev


def strict_first_minimum(log):
    best, best_val = None, math.inf
    for combo, val in log:
        if val < best_val:
            best, best_val = combo, val
    return best, best_val


def prefix_scan_reference(k, fn):
    """Independent literal forward selection: {1}, {1,2}, ... until no strict improvement."""
    best, best_val, evals = None, math.inf, 0
    for r in range(1, k + 1):
        combo = tuple(range(1, r + 1))
        val = fn(Configuration(combo))
        evals += 1
        if not val < best_val:
            break
        best, best_val = combo, val
    return best, best_val, evals


_SEARCHES = {
    "grid": lambda ctx, seed: grid_search(ctx),
    "rand3": lambda ctx, seed: random_search(ctx, 3, np.random.default_rng(seed)),
    "rand-all": lambda ctx, seed: random_search(ctx, 2 ** ctx.k, np.random.default_rng(seed)),
    "fs": lambda ctx, seed: forward_selection(ctx),
    "fs-literal": lambda ctx, seed: forward_selection(ctx, faithful_pseudocode=True),
    "be": lambda ctx, seed: backward_elimination(ctx),
    "tpe": lambda ctx, seed: bayesian_search(ctx, n_trials=8, n_start=3,
                                             rng=np.random.default_rng(seed)),
}


class TestSearchResultIsBestEvaluated:
    """Every strategy returns the strict-first minimum of its own evaluations."""

    @pytest.mark.parametrize("name", sorted(_SEARCHES))
    @pytest.mark.parametrize("k", [3, 4])
    def test_forced_ties(self, name, k):
        r = np.random.default_rng(100 * k + len(name))
        for seed in range(100):
            table = {c: float(r.choice([0.0, 0.25, 0.5, 1.0])) for c in all_subsets(k)}
            ctx = _RecordingObjective(k, lambda cfg: table[cfg.active])
            out = _SEARCHES[name](ctx, seed)
            best, best_val = strict_first_minimum(ctx.log)
            assert out.omega_star.active == best
            assert out.eps_best == best_val
            assert ctx.budget.configs_evaluated == len(ctx.log)

    @pytest.mark.parametrize("k", [1, 3, 4, 5])
    def test_literal_fs_is_a_prefix_scan(self, k):
        r = np.random.default_rng(30 + k)
        for trial in range(100):
            if trial % 2:
                table = {c: r.random() for c in all_subsets(k)}
            else:
                table = {c: float(r.choice([0.0, 0.5, 1.0])) for c in all_subsets(k)}
            fn = lambda cfg: table[cfg.active]
            ctx = MockObjective(k, fn, steps_per_eval=3)
            out = forward_selection(ctx, faithful_pseudocode=True)
            ref_combo, ref_val, ref_evals = prefix_scan_reference(k, fn)
            assert out.omega_star.active == ref_combo
            assert out.eps_best == ref_val
            assert ctx.budget.configs_evaluated == ref_evals
            assert ctx.budget.adapt_steps_total == ctx.budget.forwards_total == 3 * ref_evals


class TestEveryConfigurationFailing:
    """A level adaptor that always raises fails every configuration, and each
    one still yields the unadapted output with a finite eps."""

    @pytest.fixture
    def broken_level_adaptors(self, monkeypatch):
        def raising(*args, **kwargs):
            raise NumericError("injected")

        # conv2d_1x1 runs only in the level adaptors, so only in adapted forwards
        monkeypatch.setattr(T, "conv2d_1x1", raising)

    def test_evaluate_returns_the_unadapted_pass(self, small_stack, broken_level_adaptors):
        ds, task, suite = small_stack
        x = ds.pairs("ood_test")[0][0]
        runner = TtaRunner(task=task, suite=suite, m_steps=2)
        output, eps_unadapted = runner.unadapted(x)
        ctx = AdaptEvaluator(runner=runner, x=x, gate=(output, eps_unadapted))
        for omega in enumerate_configurations(ctx.k):
            ev = ctx.evaluate(omega)
            assert math.isfinite(ev.eps) and ev.eps == eps_unadapted
            assert ev.output is not None and np.array_equal(ev.output, output)
        assert ctx.budget.failed_configs == ctx.budget.configs_evaluated == 2 ** ctx.k - 1

    @pytest.mark.parametrize("strategy", S.STRATEGY_NAMES)
    def test_run_sample_adopts_a_configuration(self, small_stack, broken_level_adaptors,
                                               strategy):
        ds, task, suite = small_stack
        runner = TtaRunner(task=task, suite=suite, m_steps=2)
        out = runner.run_sample(ds.pairs("ood_test")[0][0], strategy, tau=0.0)
        assert out.triggered and out.omega_star is not None
        assert out.budget.failed_configs == out.budget.configs_evaluated >= 1
        assert out.eps_best == out.eps_unadapted
        assert np.array_equal(out.output, out.base_output)

    @pytest.mark.parametrize("strategy", S.STRATEGY_NAMES)
    def test_run_sample_gates_once(self, small_stack, broken_level_adaptors, monkeypatch,
                                   strategy):
        ds, task, suite = small_stack
        gates = _counting(monkeypatch, TtaRunner, "unadapted")
        TtaRunner(task=task, suite=suite, m_steps=2).run_sample(ds.pairs("ood_test")[0][0],
                                                               strategy, tau=0.0)
        assert gates == ["unadapted"]
