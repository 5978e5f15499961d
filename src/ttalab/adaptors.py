"""Per-sample trainable adaptors and the M-step test-time adaptation loop.

A fresh AdaptorSet is an exact identity end to end: the input adaptor is a
residual conv stack with a zero-initialised final layer, and every level
adaptor is a 1x1 conv initialised to the identity channel map. Only adaptor
parameters are ever updated at test time; the task model and the
reconstruction suite stay frozen.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .layers import ConvLayer, LayerSpec
from .recon import ReconSuite, ShiftErrors, concat_symmetric
from .tasknet import FeatureTrace, TaskModel
from .tensor import NumericError, Tensor, adam_step, backward, make_adam, zero_grads


@dataclass(frozen=True)
class Configuration:
    """Non-empty subset of intermediate levels 1..k, sorted ascending."""

    active: tuple[int, ...]

    def __post_init__(self):
        if len(self.active) == 0:
            raise ValueError("configuration must be non-empty")
        if list(self.active) != sorted(set(self.active)):
            raise ValueError(f"configuration indices must be sorted and unique: {self.active}")
        if self.active[0] < 1:
            raise ValueError(f"level indices start at 1: {self.active}")

    @staticmethod
    def of(levels) -> "Configuration":
        return Configuration(tuple(sorted(set(int(i) for i in levels))))

    def code(self) -> int:
        """Bitmask over levels, used to key per-configuration RNG streams."""
        return sum(1 << (i - 1) for i in self.active)

    def __str__(self) -> str:
        return "+".join(str(i) for i in self.active)


class InputAdaptor:
    """Residual conv stack on the input image: x + f(x), f zero-initialised."""

    def __init__(self, io_channels: int, width: int, rng: np.random.Generator):
        self.conv1 = ConvLayer(LayerSpec(in_ch=io_channels, out_ch=width), rng)
        self.conv2 = ConvLayer(LayerSpec(in_ch=width, out_ch=io_channels,
                                         activation="linear"), rng, zero_init=True)

    def params(self) -> list[Tensor]:
        return self.conv1.params() + self.conv2.params()

    def forward(self, x: Tensor) -> Tensor:
        return T.add(x, self.conv2.forward(self.conv1.forward(x)))


class LevelAdaptor:
    """1x1 channel map applied at depth i and at its mirror n-i, which the
    layer plan gives the same channel count: one block serves both."""

    def __init__(self, channels: int):
        self.weight = Tensor(np.eye(channels, dtype=np.float32).reshape(channels, channels, 1, 1))
        self.bias = Tensor(np.zeros(channels, dtype=np.float32))

    def params(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def forward(self, h: Tensor) -> Tensor:
        return T.conv2d_1x1(h, self.weight, self.bias)


class AdaptorSet:
    """Input adaptor and per-level 1x1 adaptors; a configuration selects the active levels."""

    def __init__(self, task: TaskModel, seed: int = 0, input_width: int = 8):
        rng = np.random.default_rng(seed)
        self.num_levels = task.num_levels
        self.input_adaptor = InputAdaptor(task.io_channels, input_width, rng)
        self.level_adaptors = {i: LevelAdaptor(task.channels_at(i))
                               for i in range(1, task.num_levels + 1)}

    def trainable_params(self, omega: Configuration) -> list[Tensor]:
        out = self.input_adaptor.params()
        for i in omega.active:
            out.extend(self.level_adaptors[i].params())
        return out


def init_adaptors(task: TaskModel, seed: int = 0, input_width: int = 8) -> AdaptorSet:
    """Fresh identity-initialised adaptor set for one sample."""
    return AdaptorSet(task, seed=seed, input_width=input_width)


@dataclass
class AdaptedPass:
    """One adapted forward pass; eps_* are taped scalar Tensors."""

    trace: FeatureTrace
    eps_x: Tensor
    eps_i: dict[int, Tensor]
    eps_y: Tensor

    def errors(self) -> ShiftErrors:
        return ShiftErrors(eps_x=self.eps_x.item(),
                           eps_i={i: t.item() for i, t in self.eps_i.items()},
                           eps_y=self.eps_y.item())

    def loss_terms(self, loss_weights: tuple[float, float, float]) -> list[Tensor]:
        """The adaptation loss, defined here only, as taped terms in summation
        order: w_y*eps_y + w_x*eps_x, then w_mid*eps_i per active level, ascending."""
        w_x, w_mid, w_y = loss_weights
        return ([T.add(T.scale(self.eps_y, w_y), T.scale(self.eps_x, w_x))]
                + [T.scale(self.eps_i[i], w_mid) for i in sorted(self.eps_i)])


def _adapted_pass(task: TaskModel, suite: ReconSuite, adaptors: AdaptorSet,
                  omega: Configuration, x_a: Tensor) -> AdaptedPass:
    """Forward from the adapted input x_a with omega's level adaptors active."""
    active = omega.active
    if max(active) > adaptors.num_levels:
        raise ValueError(f"configuration {omega} exceeds {adaptors.num_levels} levels")
    at_depth = {d: adaptors.level_adaptors[i] for i in active for d in (i, task.n_layers - i)}

    def hook(depth: int, h: Tensor) -> Tensor:
        return at_depth[depth].forward(h) if depth in at_depth else h

    trace = task.forward_trace(x_a, feature_hook=hook)
    eps_x = suite.member_error("x", x_a)
    eps_y = suite.member_error("y", trace.output)
    eps_i = {}
    for i in active:
        hc = concat_symmetric(trace, i, task.n_layers)
        eps_i[i] = suite.member_error(i, hc)
    return AdaptedPass(trace=trace, eps_x=eps_x, eps_i=eps_i, eps_y=eps_y)


def adapted_forward(task: TaskModel, suite: ReconSuite, adaptors: AdaptorSet,
                    omega: Configuration, x) -> tuple[FeatureTrace, ShiftErrors]:
    """Forward pass with omega's level adaptors active; errors for active levels only."""
    xt = Tensor(np.asarray(x, dtype=np.float32))
    with T.no_grad():
        ap = _adapted_pass(task, suite, adaptors, omega, adaptors.input_adaptor.forward(xt))
    return ap.trace, ap.errors()


@dataclass
class StepRecord:
    step: int
    loss: float
    eps_x: float
    eps_i: dict[int, float]
    eps_y: float
    chosen: bool = False

    def to_dict(self) -> dict:
        return {"step": self.step, "loss": self.loss, "eps_x": self.eps_x,
                "eps_i": {str(k): v for k, v in self.eps_i.items()},
                "eps_y": self.eps_y, "chosen": self.chosen}


@dataclass
class StepTrace:
    """Record of one configuration's M adaptation steps with a best-step snapshot."""

    omega: tuple[int, ...]
    steps: list[StepRecord] = field(default_factory=list)
    best_step: int = 0
    best_eps_y: float = float("inf")
    best_output: np.ndarray | None = None
    failed: bool = False

    def to_dict(self) -> dict:
        return {"omega": list(self.omega), "best_step": self.best_step,
                "best_eps_y": self.best_eps_y, "failed": self.failed,
                "steps": [s.to_dict() for s in self.steps]}


@dataclass
class _TermGrads:
    """Gradients of one loss term at the identity: w.r.t. x_a and, per level,
    w.r.t. that level adaptor's params."""

    x_a: np.ndarray
    levels: dict[int, list[np.ndarray]]


def _summed(arrays: list[np.ndarray]) -> np.ndarray:
    out = arrays[0].copy()
    for a in arrays[1:]:
        out += a
    return out


@dataclass
class IdentityStep:
    """Step 1 of every configuration of one sample, computed once.

    Fresh adaptors are an exact identity (x_a is x, every 1x1 map is I), so
    step 1 of every configuration is the same forward, with the unadapted
    errors. The adaptation loss is a sum of terms (AdaptedPass.loss_terms),
    so omega's step-1 gradient is the sum of the gradients of its terms.
    Those come from one taped forward with every level active at identity
    from a leaf x_a = x, and one backward per term; only the scalars, the
    output and the gradients are kept.

    passed: the forward's scalars and output, off the tape; None if it raised,
    and then every configuration fails before its first record.
    grads: per term, [y+x, level 1..k]; None if a backward raised, and then
    every configuration fails after its step-1 record, as a taped step whose
    backward raised.
    """

    x: np.ndarray
    loss_weights: tuple[float, float, float]
    passed: AdaptedPass | None = None
    grads: list[_TermGrads] | None = None

    def adapted_pass(self, omega: Configuration) -> AdaptedPass:
        """omega's step-1 pass: the kept scalars of its active levels."""
        if self.passed is None:
            raise NumericError("non-finite values in the shared identity forward")
        return replace(self.passed, eps_i={i: self.passed.eps_i[i] for i in omega.active})

    def backward(self, adaptors: AdaptorSet, omega: Configuration, x: Tensor) -> None:
        """Accumulate omega's step-1 gradient into fresh adaptors' trainable params.

        The summed d(loss)/d(x_a) goes back through this configuration's own
        input adaptor as the backward of sum(x_a * grad); its conv2 is zero,
        so conv1 gets an exact zero gradient, as in a taped step.
        """
        if self.grads is None:
            raise NumericError("non-finite values in the shared identity backward")
        terms = [self.grads[0]] + [self.grads[i] for i in omega.active]
        x_a = adaptors.input_adaptor.forward(x)
        backward(T.tensor_sum(T.mul(x_a, Tensor(_summed([t.x_a for t in terms])))))
        for i in omega.active:
            for n, p in enumerate(adaptors.level_adaptors[i].params()):
                p.grad += _summed([t.levels[i][n] for t in terms])


def identity_step(task: TaskModel, suite: ReconSuite, x,
                  loss_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)) -> IdentityStep:
    """One sample's shared step 1 (see IdentityStep); a numeric failure is kept, not raised."""
    xd = np.asarray(x, dtype=np.float32)
    step = IdentityStep(x=xd, loss_weights=tuple(loss_weights))
    levels = init_adaptors(task)
    full = Configuration.of(range(1, task.num_levels + 1))
    x_a = Tensor(xd, requires_grad=True)
    params = {i: levels.level_adaptors[i].params() for i in full.active}
    leaves = [x_a] + [p for ps in params.values() for p in ps]
    for p in leaves:
        p.requires_grad = True
    try:
        ap = _adapted_pass(task, suite, levels, full, x_a)
    except NumericError:
        return step
    step.passed = AdaptedPass(
        trace=FeatureTrace(features={}, output=ap.trace.output.detach()),
        eps_x=ap.eps_x.detach(), eps_i={i: t.detach() for i, t in ap.eps_i.items()},
        eps_y=ap.eps_y.detach())
    grads = []
    try:
        for term in ap.loss_terms(loss_weights):
            zero_grads(leaves)
            backward(term)
            grads.append(_TermGrads(x_a=x_a.grad, levels={i: [p.grad for p in ps]
                                                          for i, ps in params.items()}))
    except NumericError:
        return step
    step.grads = grads
    return step


def adapt_steps(task: TaskModel, suite: ReconSuite, adaptors: AdaptorSet,
                omega: Configuration, x, m_steps: int, lr: float = 3e-4,
                loss_weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
                identity: IdentityStep | None = None) -> StepTrace:
    """Run M adaptation steps (M forwards, M-1 updates) and snapshot the lowest-eps_y output.

    Each step: adapted forward, record the errors and the adaptation loss
    (the sum of AdaptedPass.loss_terms). Every step but the last then
    backprops and takes an Adam update on the input adaptor and the active
    level adaptors only; the last step's update would never be evaluated, so
    it is not taken and the last forward runs off the tape. Step 1 therefore
    evaluates the identity-initialised adaptors, so the returned best-step
    eps_y can never exceed the unadapted error, and with M=1 the adaptors are
    left untouched. A numeric failure mid-run is recorded and the best
    snapshot so far stands; a failure before the first record leaves no
    snapshot (best_output None, best_step 0). A failure only the skipped
    M-th update would have hit is not recorded.

    identity: the sample's shared step 1 from identity_step, for fresh
    adaptors. Step 1 then takes its record and gradient from it instead of a
    taped forward and backward; only its Adam update runs here.
    """
    if m_steps < 1:
        raise ValueError("m_steps must be >= 1")
    xt = Tensor(np.asarray(x, dtype=np.float32))
    if identity is not None and (identity.loss_weights != tuple(loss_weights)
                                 or not np.array_equal(identity.x, xt.data)):
        raise ValueError("identity step was built for another sample or other loss weights")
    params = adaptors.trainable_params(omega)
    for p in params:
        p.requires_grad = True
    adam = make_adam(params, lr)
    trace = StepTrace(omega=omega.active)
    try:
        for step in range(1, m_steps + 1):
            shared = step == 1 and identity is not None
            if shared:
                ap = identity.adapted_pass(omega)
            else:
                # no backward follows the last pass, so it runs off the tape
                with T.no_grad() if step == m_steps else nullcontext():
                    ap = _adapted_pass(task, suite, adaptors, omega,
                                       adaptors.input_adaptor.forward(xt))
            loss = functools.reduce(T.add, ap.loss_terms(loss_weights))
            rec = StepRecord(step=step, loss=loss.item(), **vars(ap.errors()))
            trace.steps.append(rec)
            if rec.eps_y < trace.best_eps_y:
                trace.best_eps_y = rec.eps_y
                trace.best_step = step
                trace.best_output = ap.trace.output.data.copy()
            if step < m_steps:
                zero_grads(params)
                if shared:
                    identity.backward(adaptors, omega, xt)
                else:
                    backward(loss)
                adam_step(params, adam)
            del ap, loss  # free this step's tape before the next step builds its own
    except NumericError:
        trace.failed = True
    finally:
        for p in params:
            p.requires_grad = False
    for rec in trace.steps:
        rec.chosen = rec.step == trace.best_step
    return trace
