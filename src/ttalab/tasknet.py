"""Frozen encoder-decoder translation model with per-layer feature taps.

The model is symmetric: spatial dims and channel counts at depth i match those
at depth n-i, so encoder/decoder features can be concatenated channel-wise per
level. The symmetry is also used computationally: each decoder feature adds
its mirror encoder feature (h_j = act(conv(h_{j-1})) + h_{n-j}), which keeps
full-resolution detail flowing to the head instead of everything passing
through the bottleneck. The output head is tanh, so outputs live in [-1, 1];
the final conv is zero-initialised, so an untrained model maps everything to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .layers import ConvLayer, LayerSpec, TrainReport, params_checksum, train_epochs
from .tensor import LrSchedule, Tensor


def default_layer_plan(n_layers: int = 7, io_channels: int = 1,
                       base_channels: int = 16, max_channels: int = 64) -> list[LayerSpec]:
    """Symmetric n-layer plan: encoder (first layer full-res, then stride-2),
    bottleneck layer(s), nearest-upsample decoder, tanh output head."""
    if not 5 <= n_layers <= 9:
        raise ValueError(f"n_layers must be in 5..9, got {n_layers}")
    k = (n_layers - 1) // 2
    mid = n_layers - 2 * k  # 1 for odd n, 2 for even
    ch = [min(base_channels * 2 ** (i - 1), max_channels) for i in range(1, k + 1)]
    specs: list[LayerSpec] = []
    for j in range(1, k + 1):
        specs.append(LayerSpec(in_ch=io_channels if j == 1 else ch[j - 2],
                               out_ch=ch[j - 1], stride=1 if j == 1 else 2))
    for _ in range(mid):
        specs.append(LayerSpec(in_ch=ch[-1], out_ch=ch[-1], stride=1))
    for j in range(k + mid + 1, n_layers):
        i = n_layers - j  # mirrored encoder depth, k-1 .. 1
        specs.append(LayerSpec(in_ch=ch[i], out_ch=ch[i - 1], upsample=True))
    specs.append(LayerSpec(in_ch=ch[0], out_ch=io_channels, activation="tanh"))
    return specs


@dataclass
class FeatureTrace:
    """Per-depth feature maps h_1..h_n of one forward pass; h_n is the output."""

    features: dict[int, Tensor]
    output: Tensor


class TaskModel:
    """n-layer translation network; frozen after training, taps at every depth."""

    def __init__(self, n_layers: int = 7, io_channels: int = 1, image_size: int = 32,
                 base_channels: int = 16, max_channels: int = 64, seed: int = 0):
        self.n_layers = n_layers
        self.io_channels = io_channels
        self.image_size = image_size
        self.base_channels = base_channels
        self.max_channels = max_channels
        self.seed = seed
        self.trained_epochs = 0
        rng = np.random.default_rng(seed)
        specs = default_layer_plan(n_layers, io_channels, base_channels, max_channels)
        # zero-init the output head so the fresh model maps to tanh(0) = 0
        self.layers = [ConvLayer(s, rng, zero_init=(i == len(specs) - 1))
                       for i, s in enumerate(specs)]

    @property
    def num_levels(self) -> int:
        """Intermediate reconstruction levels: floor((n-1)/2)."""
        return (self.n_layers - 1) // 2

    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params()]

    def checksum(self) -> str:
        return params_checksum(self.params())

    def channels_at(self, depth: int) -> int:
        return self.layers[depth - 1].spec.out_ch

    def feature_shape(self, depth: int) -> tuple[int, int, int]:
        """[C, H, W] of h_depth, from the layer plan's conv arithmetic."""
        size = self.image_size
        for spec in (layer.spec for layer in self.layers[:depth]):
            size *= 2 if spec.upsample else 1
            size = (size + 2 * (spec.kernel // 2) - spec.kernel) // spec.stride + 1
        return self.channels_at(depth), size, size

    def forward_trace(self, x: Tensor, feature_hook=None, depth: int | None = None) -> FeatureTrace:
        """Forward pass recording every tap; feature_hook(depth, h) -> h may
        replace an intermediate feature (depths 1..n-1) before propagation.

        Depths k+1..n-1 add their mirror encoder feature h_{n-depth} after the
        activation (the hook, when present, has already run on the mirror).
        With depth d the pass stops after layer d: the trace holds h_1..h_d,
        bitwise those of the full pass, and its output is h_d.
        """
        if depth is not None and not 1 <= depth <= self.n_layers:
            raise ValueError(f"depth out of range: {depth} not in 1..{self.n_layers}")
        h = x
        features: dict[int, Tensor] = {}
        for d, layer in enumerate(self.layers[:depth], start=1):
            h = layer.forward(h)
            if 2 * d > self.n_layers and d < self.n_layers:
                h = T.add(h, features[self.n_layers - d])
            if feature_hook is not None and d < self.n_layers:
                h = feature_hook(d, h)
            features[d] = h
        return FeatureTrace(features=features, output=h)

    def config_dict(self) -> dict:
        return {"n_layers": self.n_layers, "io_channels": self.io_channels,
                "image_size": self.image_size, "base_channels": self.base_channels,
                "max_channels": self.max_channels, "seed": self.seed,
                "trained_epochs": self.trained_epochs}


def translate(model: TaskModel, x: Tensor) -> FeatureTrace:
    """Deterministic unadapted forward pass with all taps recorded."""
    if x.data.shape[-3:] != (model.io_channels, model.image_size, model.image_size):
        raise ValueError(f"input shape {x.shape} does not match model io "
                         f"({model.io_channels},{model.image_size},{model.image_size})")
    return model.forward_trace(x)


def train_task(model: TaskModel, dataset, schedule: LrSchedule, seed: int = 0,
               batch_size: int = 8) -> TrainReport:
    """Supervised training of the task model with a per-pixel L1 objective.

    dataset: sequence of (x, y) float32 arrays shaped [C,H,W]; the epochs run
    in layers.train_epochs. Raises on an empty dataset.
    """
    report = train_epochs(model.params(), [[x for x, _ in dataset], [y for _, y in dataset]],
                          lambda xb, yb: T.l1_distance(model.forward_trace(xb).output, yb),
                          schedule, seed, batch_size)
    model.trained_epochs += schedule.total_epochs
    return report
