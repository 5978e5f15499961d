"""Convolutional layer building blocks shared by the task model and autoencoders."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import LrSchedule, Tensor, adam_step, make_adam, zero_grads


@dataclass(frozen=True)
class LayerSpec:
    """One conv layer: optional 2x nearest upsample, 3x3 conv, activation."""

    in_ch: int
    out_ch: int
    stride: int = 1            # 1 or 2 (2 = downsampling conv)
    upsample: bool = False     # nearest-neighbour x2 before the conv
    activation: str = "lrelu"  # lrelu | tanh | linear
    kernel: int = 3


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


def keyed_seed(seed: int, *key: int) -> int:
    """A 32-bit seed of its own for each key under one base seed."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0])


def params_checksum(params: list[Tensor]) -> str:
    """SHA-256 over the raw bytes of all parameters, in order."""
    h = hashlib.sha256()
    for p in params:
        h.update(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    return h.hexdigest()


@dataclass
class TrainReport:
    epoch_losses: list[float] = field(default_factory=list)
    lr_by_epoch: list[float] = field(default_factory=list)


def train_epochs(params: list[Tensor], columns: list, batch_loss,
                 schedule: LrSchedule, seed: int, batch_size: int) -> TrainReport:
    """Adam over shuffled mini-batches; the task model and every recon member train here.

    columns: one per input of batch_loss, all of one length, each an [n, ...]
    array or a list of n per-sample arrays; batches are taken from a float32
    array without copying it, and a list is stacked once. batch_loss(*batches)
    returns the taped scalar loss of one batch. Shuffling is deterministic
    from (seed, epoch); the Adam lr follows the schedule per epoch. Raises on
    an empty dataset.
    """
    columns = [np.asarray(col, dtype=np.float32) for col in columns]
    n = len(columns[0])
    if n == 0:
        raise ValueError("empty dataset")
    set_requires_grad(params, True)
    adam = make_adam(params, schedule.base_lr)
    report = TrainReport()
    for epoch in range(schedule.total_epochs):
        adam.lr = schedule.lr(epoch)
        order = np.random.default_rng((seed, epoch)).permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss = batch_loss(*(Tensor(col[idx]) for col in columns))
            zero_grads(params)
            T.backward(loss)
            adam_step(params, adam)
            losses.append(loss.item())
            del loss  # free this batch's tape before the next batch builds its own
        report.epoch_losses.append(float(np.mean(losses)))
        report.lr_by_epoch.append(adam.lr)
    set_requires_grad(params, False)
    return report
