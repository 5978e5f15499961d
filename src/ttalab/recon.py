"""Per-level convolutional autoencoders whose reconstruction error proxies domain shift.

One member per level: R_x scores the (adapted) input image, R_i the
channel-concatenated encoder/decoder features of level i, R_y the translated
output. Members are undercomplete on purpose (bottleneck at 1/4 spatial
resolution, half the input channels): an identity-capable reconstructor would
null the shift proxy. Each member trains independently on its own level's
tensors from the task model's training set with an MSE objective; the
reported errors are mean-normalised L1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import ConvLayer, LayerSpec, TrainReport, keyed_seed, params_checksum, train_epochs
from .tasknet import FeatureTrace, TaskModel, translate
from .tensor import LrSchedule, Tensor


class Autoencoder:
    """2-layer stride-2 conv encoder to a C/2-channel bottleneck, mirrored decoder."""

    def __init__(self, in_shape: tuple[int, int, int], seed: int = 0):
        c, h, w = in_shape
        if h % 4 != 0 or w % 4 != 0:
            raise ValueError(f"autoencoder input spatial dims must be divisible by 4, got {h}x{w}")
        self.in_shape = (c, h, w)
        hidden = max(16, c // 2)
        bottleneck = max(1, c // 2)
        rng = np.random.default_rng(seed)
        self.layers = [
            ConvLayer(LayerSpec(in_ch=c, out_ch=hidden, stride=2), rng),
            ConvLayer(LayerSpec(in_ch=hidden, out_ch=bottleneck, stride=2), rng),
            ConvLayer(LayerSpec(in_ch=bottleneck, out_ch=hidden, upsample=True), rng),
            ConvLayer(LayerSpec(in_ch=hidden, out_ch=c, upsample=True, activation="linear"), rng),
        ]

    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x: Tensor) -> Tensor:
        if x.data.shape[-3:] != self.in_shape:
            raise ValueError(f"autoencoder expects {self.in_shape}, got {x.data.shape}")
        h = x
        for layer in self.layers:
            h = layer.forward(h)
        return h


@dataclass
class ShiftErrors:
    """Mean-L1 reconstruction errors per level; finite and non-negative."""

    eps_x: float
    eps_i: dict[int, float]
    eps_y: float


def concat_symmetric(trace: FeatureTrace, i: int, n_layers: int) -> Tensor:
    """Channel-concatenate h_i and h_{n-i}; h_i takes the leading block."""
    k = (n_layers - 1) // 2
    if not 1 <= i <= k:
        raise ValueError(f"depth out of range: {i} not in 1..{k}")
    a = trace.features[i]
    b = trace.features[n_layers - i]
    if a.data.shape[-2:] != b.data.shape[-2:]:
        raise ValueError(f"spatial mismatch at level {i}: "
                         f"{a.data.shape[-2:]} vs {b.data.shape[-2:]}")
    return T.concat_channels(a, b)


def member_shapes(task: TaskModel) -> dict:
    """Each member's [C, H, W] input shape, in member order: x, 1..k, y."""
    io, size = task.io_channels, task.image_size
    # probe the task model once to learn per-level shapes
    with T.no_grad():
        probe = translate(task, Tensor(np.zeros((io, size, size), dtype=np.float32)))
    shapes: dict = {"x": (io, size, size)}
    for i in range(1, task.num_levels + 1):
        hi = probe.features[i].data.shape
        hm = probe.features[task.n_layers - i].data.shape
        shapes[i] = (hi[0] + hm[0], hi[1], hi[2])
    shapes["y"] = (io, size, size)
    return shapes


class ReconSuite:
    """R_x, R_1..R_k, R_y for a given task model; frozen at TTA time."""

    def __init__(self, task: TaskModel, seed: int = 0):
        self.n_layers = task.n_layers
        self.num_levels = task.num_levels
        self.seed = seed
        self.members = {key: Autoencoder(shape, seed=keyed_seed(seed, n))
                        for n, (key, shape) in enumerate(member_shapes(task).items())}
        self.trained = {key: False for key in self.members}

    def member_keys(self) -> list:
        return ["x"] + list(range(1, self.num_levels + 1)) + ["y"]

    def params(self) -> list[Tensor]:
        return [p for key in self.member_keys() for p in self.members[key].params()]

    def checksum(self) -> str:
        return params_checksum(self.params())

    def all_trained(self) -> bool:
        return all(self.trained.values())

    def member_error(self, key, value: Tensor) -> Tensor:
        """Taped scalar: mean-L1 between a tensor and its reconstruction."""
        return T.l1_distance(value, self.members[key].forward(value))


def train_autoencoder(ae: Autoencoder, tensors, schedule: LrSchedule,
                      seed: int = 0, batch_size: int = 8) -> TrainReport:
    """Train one member on its own level's tensors with an MSE objective.

    tensors: the level's [n, C, H, W] array, or a list of n [C, H, W] arrays.
    """
    return train_epochs(ae.params(), [tensors], lambda xb: T.mse_loss(ae.forward(xb), xb),
                        schedule, seed, batch_size)


def collect_level_tensors(task: TaskModel, dataset) -> dict:
    """Gather each member's training tensors from the task model's training set.

    R_x sees the source images, each R_i the frozen model's concatenated
    level-i features, and R_y the target-domain images: the output-domain
    member learns the manifold translated outputs are supposed to live on.
    dataset: a sequence of (x, y) pairs. Returns one float32 [n, C, H, W]
    array per member, in member order, filled row by row during the one
    translate pass over the dataset.
    """
    out = {key: np.empty((len(dataset), *shape), dtype=np.float32)
           for key, shape in member_shapes(task).items()}
    with T.no_grad():
        for j, (x, y) in enumerate(dataset):
            trace = translate(task, Tensor(np.asarray(x, dtype=np.float32)))
            out["x"][j], out["y"][j] = x, y
            for i in range(1, task.num_levels + 1):
                out[i][j] = concat_symmetric(trace, i, task.n_layers).data
    return out


def train_recon_suite(suite: ReconSuite, task: TaskModel, dataset, schedule: LrSchedule,
                      seed: int = 0, batch_size: int = 8) -> dict:
    """Train every member independently on the task model's training set.

    dataset: the same (x, y) pairs used to train the task model. Members share
    no parameters and no joint loss. Returns {member_key: TrainReport}.
    """
    if task.trained_epochs == 0:
        raise ValueError("task model is untrained; train it before the suite")
    columns = collect_level_tensors(task, dataset)
    reports = {}
    for key in suite.member_keys():
        # pop: each column is released as soon as its member has trained
        reports[key] = train_autoencoder(suite.members[key], columns.pop(key),
                                         schedule, seed=seed, batch_size=batch_size)
        suite.trained[key] = True
    return reports
