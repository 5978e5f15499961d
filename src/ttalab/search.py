"""Trigger threshold and the per-sample configuration search strategies.

All strategies minimise the per-configuration objective "best eps_y over M
adaptation steps with fresh adaptors". A strategy only picks the next
configuration and when to stop; the objective keeps the exact budget (one
forward per adaptation step) and the strict-< best, so the first-evaluated
optimum wins ties. Subsets are enumerated by cardinality, then lexicographically.

Greedy strategies stop early when eps_best reaches exactly 0.0: reconstruction
errors are non-negative, so no strictly better value exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import tensor as T
from .adaptors import (Configuration, IdentityStep, adapt_steps, identity_step,
                       init_adaptors)
from .layers import keyed_seed
from .recon import ReconSuite
from .tasknet import TaskModel, translate
from .tensor import Tensor


def calibrate_threshold(errors, percentile: float) -> float:
    """Nearest-rank percentile: sorted ascending, value at index ceil(p/100*N)."""
    vals = [float(e) for e in errors]
    if len(vals) == 0:
        raise ValueError("empty error list")
    if not 0.0 < percentile < 100.0:
        raise ValueError(f"percentile must be in (0,100), got {percentile}")
    vals.sort()
    rank = math.ceil(percentile / 100.0 * len(vals))
    rank = min(max(rank, 1), len(vals))
    return vals[rank - 1]


def trigger(eps_y: float, tau: float) -> bool:
    """Adaptation fires iff eps_y strictly exceeds tau."""
    if not (math.isfinite(eps_y) and math.isfinite(tau)):
        raise ValueError("trigger inputs must be finite")
    return eps_y > tau


def enumerate_configurations(k: int) -> list[Configuration]:
    """All 2^k - 1 non-empty subsets of {1..k}, by size then lexicographic."""
    if k < 1:
        raise ValueError("need at least one intermediate level")
    out = []
    for size in range(1, k + 1):
        for combo in combinations(range(1, k + 1), size):
            out.append(Configuration(combo))
    return out


@dataclass
class SearchBudget:
    configs_evaluated: int = 0
    adapt_steps_total: int = 0
    forwards_total: int = 0
    failed_configs: int = 0


@dataclass
class SearchOutcome:
    """A search's result; TtaRunner.run_sample also fills in its gate pass."""

    omega_star: Configuration | None
    eps_best: float
    output: np.ndarray
    budget: SearchBudget
    triggered: bool
    base_output: np.ndarray | None = None
    eps_unadapted: float = math.nan


class _Objective:
    """Bookkeeping of one search's objective: its budget and its best so far.

    The best is the first evaluation whose eps is strictly below every eps
    before it; while none is (no evaluation yet, or only inf and NaN) the
    outcome has no configuration and eps_best inf.
    """

    _best: tuple[Configuration | None, float, np.ndarray | None] = (None, math.inf, None)

    def _record(self, omega: Configuration, eps: float, output: np.ndarray | None,
                steps: int, failed: bool = False) -> float:
        self.budget.configs_evaluated += 1
        self.budget.adapt_steps_total += steps
        self.budget.forwards_total += steps
        self.budget.failed_configs += failed
        if eps < self._best[1]:
            self._best = (omega, eps, output)
        return eps

    def outcome(self) -> SearchOutcome:
        omega, eps, output = self._best
        return SearchOutcome(omega_star=omega, eps_best=eps, output=output,
                             budget=self.budget, triggered=True)


class MockObjective(_Objective):
    """Deterministic per-configuration objective for search tests."""

    def __init__(self, k: int, fn, steps_per_eval: int = 1):
        self.k = k
        self.fn = fn
        self.steps_per_eval = steps_per_eval
        self.budget = SearchBudget()

    def evaluate(self, omega: Configuration) -> float:
        return self._record(omega, float(self.fn(omega)), None, self.steps_per_eval)


def grid_search(ctx) -> SearchOutcome:
    """Exhaustive search over all 2^k - 1 configurations."""
    for cfg in enumerate_configurations(ctx.k):
        ctx.evaluate(cfg)
    return ctx.outcome()


def random_search(ctx, n_config: int, rng: np.random.Generator) -> SearchOutcome:
    """Evaluate min(n_config, |Omega|) distinct uniform configurations.

    The sampled set is evaluated in canonical enumeration order, so an
    exhausted sample reproduces grid_search exactly, ties included.
    """
    if n_config < 1:
        raise ValueError("n_config must be >= 1")
    space = enumerate_configurations(ctx.k)
    take = min(n_config, len(space))
    for i in sorted(rng.choice(len(space), size=take, replace=False).tolist()):
        ctx.evaluate(space[i])
    return ctx.outcome()


def forward_selection(ctx) -> SearchOutcome:
    """Greedy growth from the empty set, adding the best strictly-improving level.

    A round evaluates the current set plus each unselected level r, in
    ascending r; its best is the lowest eps, ties to the smallest r. The
    round is adopted only if that eps is strictly below the last adopted
    one; the search stops at the first round that is not (or when eps hits
    the 0.0 floor).
    """
    selected: list[int] = []
    last = math.inf
    while len(selected) < ctx.k:
        eps, r = min((ctx.evaluate(Configuration.of(selected + [r])), r)
                     for r in range(1, ctx.k + 1) if r not in selected)
        if not eps < last:
            break
        last = eps
        selected.append(r)
        if eps == 0.0:
            break
    return ctx.outcome()


def forward_selection_literal(ctx) -> SearchOutcome:
    """The pseudocode variant, a prefix scan: evaluates {1}, {1,2}, ... and
    stops at the first prefix whose eps is not strictly below its predecessor's
    (below inf, for {1})."""
    last = math.inf
    for r in range(1, ctx.k + 1):
        eps = ctx.evaluate(Configuration.of(range(1, r + 1)))
        if not eps < last:
            break
        last = eps
    return ctx.outcome()


def backward_elimination(ctx) -> SearchOutcome:
    """Greedy shrink from the full set via the best strictly-improving removal.

    The full set is evaluated once as the baseline; a round evaluates the set
    without each selected level r, in ascending r, and is adopted as in
    forward_selection. The search keeps omega non-empty by stopping at
    singletons.
    """
    selected = list(range(1, ctx.k + 1))
    last = ctx.evaluate(Configuration.of(selected))
    while len(selected) > 1 and last != 0.0:
        eps, r = min((ctx.evaluate(Configuration.of([i for i in selected if i != r])), r)
                     for r in selected)
        if not eps < last:
            break
        last = eps
        selected.remove(r)
    return ctx.outcome()


def bayesian_search(ctx, n_trials: int = 20, n_start: int = 5,
                    rng: np.random.Generator | None = None, gamma: float = 0.25,
                    candidates_per_trial: int = 24) -> SearchOutcome:
    """TPE over k independent inclusion bits.

    The first n_start trials sample Omega uniformly without replacement; later
    trials split the history at the gamma quantile, fit per-bit Bernoulli
    densities with add-1 smoothing, draw candidates from the good density and
    take the best good/bad likelihood ratio among not-yet-evaluated ones. The
    search stops early once every configuration has been evaluated.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if n_start < 1 or n_start > n_trials:
        raise ValueError("need 1 <= n_start <= n_trials")
    space = enumerate_configurations(ctx.k)
    init_count = min(n_start, len(space))
    init = [space[i] for i in rng.choice(len(space), size=init_count, replace=False)]
    history: list[tuple[Configuration, float]] = []
    evaluated: set[tuple[int, ...]] = set()
    for t in range(1, n_trials + 1):
        if len(evaluated) == len(space):
            break
        if t <= init_count:
            cfg = init[t - 1]
        else:
            cfg = _tpe_propose(history, ctx.k, rng, gamma, candidates_per_trial, evaluated, space)
            if cfg is None:
                break
        evaluated.add(cfg.active)
        history.append((cfg, ctx.evaluate(cfg)))
    return ctx.outcome()


def _tpe_propose(history, k: int, rng: np.random.Generator, gamma: float,
                 n_candidates: int, evaluated: set, space) -> Configuration | None:
    ordered = sorted(history, key=lambda he: he[1])
    n_good = max(1, math.ceil(gamma * len(ordered)))
    good = [cfg for cfg, _ in ordered[:n_good]]
    bad = [cfg for cfg, _ in ordered[n_good:]] or good
    p_good = _bit_density(good, k)
    p_bad = _bit_density(bad, k)

    candidates = []
    for _ in range(n_candidates):
        bits = rng.random(k) < p_good
        if not bits.any():
            bits[rng.integers(k)] = True
        candidates.append(tuple(i + 1 for i in range(k) if bits[i]))
    best, best_score = None, -math.inf
    seen = set()
    for cand in candidates:
        if cand in seen or cand in evaluated:
            continue
        seen.add(cand)
        score = 0.0
        for i in range(k):
            if (i + 1) in cand:
                score += math.log(p_good[i]) - math.log(p_bad[i])
            else:
                score += math.log(1.0 - p_good[i]) - math.log(1.0 - p_bad[i])
        if score > best_score:
            best, best_score = cand, score
    if best is not None:
        return Configuration(best)
    remaining = [cfg for cfg in space if cfg.active not in evaluated]
    if not remaining:
        return None
    return remaining[rng.integers(len(remaining))]


def _bit_density(configs, k: int) -> np.ndarray:
    counts = np.zeros(k)
    for cfg in configs:
        for i in cfg.active:
            counts[i - 1] += 1
    return (counts + 1.0) / (len(configs) + 2.0)


# ---------------------------------------------------------------------------
# the real per-sample evaluator and runner


@dataclass
class AdaptEvaluator(_Objective):
    """Objective that evaluates a configuration with fresh adaptors + M steps.

    The model, suite and adaptation settings are the runner's. Adaptor init
    RNG is keyed by (runner.seed, sample_index, omega) so results do not
    depend on evaluation order or parallel schedule. With share_identity_step
    (and M > 1) the first evaluation builds the sample's identity step 1 once
    and every configuration's adapt_steps takes its step 1 from it; a search
    of one configuration gains nothing from it. A configuration that fails
    before its first step record yields gate, the sample's unadapted
    (output, eps_y).
    """

    runner: TtaRunner
    x: np.ndarray
    gate: tuple[np.ndarray, float]
    sample_index: int = 0
    budget: SearchBudget = field(default_factory=SearchBudget)
    trace_sink: list | None = None
    share_identity_step: bool = True
    _identity: IdentityStep | None = field(default=None, init=False, repr=False)

    @property
    def k(self) -> int:
        return self.runner.task.num_levels

    def evaluate(self, omega: Configuration) -> float:
        r = self.runner
        seed = keyed_seed(r.seed, self.sample_index, omega.code())
        if self.share_identity_step and r.m_steps > 1 and self._identity is None:
            self._identity = identity_step(r.task, r.suite, self.x, r.loss_weights)
        adaptors = init_adaptors(r.task, seed=seed, input_width=r.adaptor_width)
        trace = adapt_steps(r.task, r.suite, adaptors, omega, self.x, r.m_steps,
                            lr=r.adaptor_lr, loss_weights=r.loss_weights,
                            identity=self._identity)
        if trace.best_output is None:  # failed before its first record
            trace.best_output, trace.best_eps_y = self.gate
        if self.trace_sink is not None:
            self.trace_sink.append(trace)
        return self._record(omega, trace.best_eps_y, trace.best_output,
                            len(trace.steps), trace.failed)


STRATEGY_NAMES = ("grid", "rand10", "rand50", "fs", "fs-literal", "be", "tpe", "static-all")


@dataclass
class TtaRunner:
    """Binds a trained task model + suite to the gating and search machinery."""

    task: TaskModel
    suite: ReconSuite
    m_steps: int = 5
    adaptor_lr: float = 3e-4
    adaptor_width: int = 8
    loss_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    seed: int = 0

    def gate(self, xb: np.ndarray) -> tuple[np.ndarray, list[float]]:
        """The gate pass over a block [B, C, H, W]: the unadapted outputs
        [B, C, H, W] and each row's eps_y, the mean-L1 R_y error of that
        row alone (a non-finite one raises NumericError)."""
        with T.no_grad():
            out = translate(self.task, Tensor(np.asarray(xb, dtype=np.float32))).output
            rec = self.suite.members["y"].forward(out)
            eps_y = [T.l1_distance(Tensor(o), Tensor(r)).item()
                     for o, r in zip(out.data, rec.data)]
        return out.data.copy(), eps_y

    def unadapted(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """The gate pass of one sample [C, H, W]: its output and eps_y."""
        outputs, eps_y = self.gate(np.asarray(x)[None])
        return outputs[0], eps_y[0]

    def run_sample(self, x: np.ndarray, strategy: str, tau: float,
                   sample_index: int = 0, trace_sink: list | None = None) -> SearchOutcome:
        """Gate on eps_y > tau, then dispatch to the chosen strategy.

        Untriggered samples return the unadapted output untouched with an
        all-zero budget. static-all skips the gate and always adapts with the
        full configuration (approximating static TTA at every level). Every
        outcome carries the one gate pass as base_output and eps_unadapted.
        """
        if strategy not in STRATEGY_NAMES:
            raise ValueError(f"unknown strategy {strategy!r}; pick one of {STRATEGY_NAMES}")
        output, eps_unadapted = self.unadapted(x)
        fired = True if strategy == "static-all" else trigger(eps_unadapted, tau)
        if not fired:
            return SearchOutcome(omega_star=None, eps_best=eps_unadapted, output=output,
                                 budget=SearchBudget(), triggered=False,
                                 base_output=output, eps_unadapted=eps_unadapted)
        ctx = AdaptEvaluator(runner=self, x=np.asarray(x, dtype=np.float32),
                             gate=(output, eps_unadapted), sample_index=sample_index,
                             trace_sink=trace_sink,
                             share_identity_step=strategy != "static-all")
        if strategy == "grid":
            outcome = grid_search(ctx)
        elif strategy in ("rand10", "rand50"):
            n = int(strategy[4:])
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(sample_index, 101)))
            outcome = random_search(ctx, n, rng)
        elif strategy == "fs":
            outcome = forward_selection(ctx)
        elif strategy == "fs-literal":
            outcome = forward_selection_literal(ctx)
        elif strategy == "be":
            outcome = backward_elimination(ctx)
        elif strategy == "tpe":
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(sample_index, 102)))
            outcome = bayesian_search(ctx, rng=rng)
        else:  # static-all
            ctx.evaluate(Configuration.of(range(1, ctx.k + 1)))
            outcome = ctx.outcome()
        outcome.base_output, outcome.eps_unadapted = output, eps_unadapted
        return outcome
