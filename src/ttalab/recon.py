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


class ReconSuite:
    """R_x, R_1..R_k, R_y for a given task model; frozen at TTA time."""

    def __init__(self, task: TaskModel, seed: int = 0):
        self.n_layers = task.n_layers
        self.num_levels = task.num_levels
        self.seed = seed
        size = task.image_size
        io = task.io_channels
        self.members: dict = {}
        self.trained: dict = {}
        self.members["x"] = Autoencoder((io, size, size), seed=keyed_seed(seed, 0))
        # probe the task model once to learn per-level shapes
        with T.no_grad():
            probe = translate(task, Tensor(np.zeros((io, size, size), dtype=np.float32)))
        for i in range(1, self.num_levels + 1):
            hi = probe.features[i].data.shape
            hm = probe.features[task.n_layers - i].data.shape
            shape = (hi[0] + hm[0], hi[1], hi[2])
            self.members[i] = Autoencoder(shape, seed=keyed_seed(seed, i))
        self.members["y"] = Autoencoder((io, size, size),
                                        seed=keyed_seed(seed, self.num_levels + 1))
        for key in self.members:
            self.trained[key] = False

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


def train_autoencoder(ae: Autoencoder, tensors: list[np.ndarray], schedule: LrSchedule,
                      seed: int = 0, batch_size: int = 8) -> TrainReport:
    """Train one member on its own level's tensors with an MSE objective."""
    return train_epochs(ae.params(), [tensors], lambda xb: T.mse_loss(ae.forward(xb), xb),
                        schedule, seed, batch_size)


def collect_level_tensors(task: TaskModel, dataset) -> dict:
    """Gather per-member training tensors from the task model's training set.

    R_x sees the source images, each R_i the frozen model's concatenated
    level-i features, and R_y the target-domain images: the output-domain
    member learns the manifold translated outputs are supposed to live on.
    """
    k = task.num_levels
    out: dict = {"x": [], "y": []}
    for i in range(1, k + 1):
        out[i] = []
    with T.no_grad():
        for x, y in dataset:
            trace = translate(task, Tensor(np.asarray(x, dtype=np.float32)))
            out["x"].append(np.asarray(x, dtype=np.float32))
            out["y"].append(np.asarray(y, dtype=np.float32))
            for i in range(1, k + 1):
                out[i].append(concat_symmetric(trace, i, task.n_layers).data)
    return out


def train_recon_suite(suite: ReconSuite, task: TaskModel, dataset, schedule: LrSchedule,
                      seed: int = 0, batch_size: int = 8) -> dict:
    """Train every member independently on the task model's training set.

    dataset: the same (x, y) pairs used to train the task model. Members share
    no parameters and no joint loss. Returns {member_key: TrainReport}.
    """
    if task.trained_epochs == 0:
        raise ValueError("task model is untrained; train it before the suite")
    level_data = collect_level_tensors(task, dataset)
    reports = {}
    for key in suite.member_keys():
        reports[key] = train_autoencoder(suite.members[key], level_data[key],
                                         schedule, seed=seed, batch_size=batch_size)
        suite.trained[key] = True
    return reports

