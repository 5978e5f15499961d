"""Convolutional layer building blocks shared by the task model and autoencoders."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass(frozen=True)
class LayerSpec:
    """One conv layer: optional 2x nearest upsample, 3x3 conv, activation."""

    in_ch: int
    out_ch: int
    stride: int = 1            # 1 or 2 (2 = downsampling conv)
    upsample: bool = False     # nearest-neighbour x2 before the conv
    activation: str = "lrelu"  # lrelu | tanh | linear
    kernel: int = 3

    def to_dict(self) -> dict:
        return {"in_ch": self.in_ch, "out_ch": self.out_ch, "stride": self.stride,
                "upsample": self.upsample, "activation": self.activation,
                "kernel": self.kernel}


class ConvLayer:
    """Parameters for one LayerSpec: weight [out,in,k,k] and bias [out]."""

    def __init__(self, spec: LayerSpec, rng: np.random.Generator, zero_init: bool = False):
        self.spec = spec
        k = spec.kernel
        fan_in = spec.in_ch * k * k
        if zero_init:
            w = np.zeros((spec.out_ch, spec.in_ch, k, k), dtype=np.float32)
        else:
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                           size=(spec.out_ch, spec.in_ch, k, k)).astype(np.float32)
        self.weight = Tensor(w)
        self.bias = Tensor(np.zeros(spec.out_ch, dtype=np.float32))

    def params(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def forward(self, x: Tensor) -> Tensor:
        s = self.spec
        return T.conv_layer(x, self.weight, self.bias, stride=s.stride,
                            padding=s.kernel // 2, activation=s.activation,
                            upsample=s.upsample)


def set_requires_grad(params: list[Tensor], flag: bool) -> None:
    for p in params:
        p.requires_grad = flag


def params_checksum(params: list[Tensor]) -> str:
    """SHA-256 over the raw bytes of all parameters, in order."""
    h = hashlib.sha256()
    for p in params:
        h.update(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    return h.hexdigest()
