"""Dense float32 tensors with reverse-mode autodiff, Adam, and the TNSR file format.

The op set is the minimum closure needed by the networks in this package:
conv2d (incl. stride-2 downsampling), 1x1 conv, nearest-neighbour upsample,
LeakyReLU / tanh / sigmoid, channel concat, broadcasted add/mul, L1 and MSE,
plus conv_layer, which runs upsample, conv2d, bias and activation as one node.
Everything is float32; any NaN/Inf produced by an op raises NumericError
instead of propagating.

Convolutions canonically take a single sample [C,H,W]; a leading batch axis
[B,C,H,W] is accepted everywhere and treated independently per sample.

Memory format: shapes are NCHW everywhere, but the convolutions, upsample and
concat build their outputs and input gradients channels-last, as PyTorch's
channels_last format: the [B,H,W,C] view (x.transpose(0, 2, 3, 1), or
(1, 2, 0) without a batch axis) of such an array is C-contiguous. Elementwise
ops keep their operands' layout, so activations and gradients stay
channels-last from layer to layer. The conv core gathers its im2col windows
from that view, so each copied run is kernel-width x channels floats, and the
GEMM result [B*Ho*Wo, C_out] is already the output's memory. Any layout is
accepted as input; one that is not channels-last costs a copy at the next
convolution.

Backward: a stride-s conv's input gradient is one sub-pixel correlation (Shi
et al., arXiv:1609.07009) of the undilated output gradient with an s*s-phase
kernel matrix, followed by a depth-to-space copy; at s = 1 it is the padded
correlation with the flipped kernel. An upsample layer takes its input and
kernel gradients from one stride-2 correlation of the output gradient's 2x2
box sums on the coarse grid. Only a trainable kernel of a layer without
upsample keeps its forward im2col matrix for the backward.

The GEMM matrices of a frozen (requires_grad=False) conv kernel, the forward
form and the sub-pixel form per stride, are cached on its Tensor; adam_step
and assigning a new .data array invalidate them, so a frozen kernel must not
be written in place otherwise. A trainable kernel's are rebuilt on each use.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class NumericError(RuntimeError):
    """A forward or backward pass produced NaN/Inf."""


class TapeError(RuntimeError):
    """backward() called on something that is not a taped scalar."""


_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape construction inside the block (pure inference)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def grad_enabled() -> bool:
    return _GRAD_ENABLED


class Tensor:
    """Dense N-D float32 array, optionally participating in the gradient tape.

    Leaves created with requires_grad=True accumulate d(loss)/d(leaf) into
    .grad across backward() calls until zero_grads() resets them.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_gemm")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._gemm = None  # (data it was built from, {stride: GEMM form}), see _kernel_matrix

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float32, copy=True)
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _check_finite(arr: np.ndarray, op: str) -> None:
    # elementwise, so a finite array whose float32 sum would overflow passes;
    # on numpy 2.4 it is also cheaper than that sum for every array but a 0-d one
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by {op}")


def _from_op(data: np.ndarray, parents: tuple[Tensor, ...], backward, op: str) -> Tensor:
    data = np.asarray(data, dtype=np.float32)
    _check_finite(data, op)
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to the shape of a broadcast operand."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / shape ops


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def bwd(out: Tensor) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad, b.data.shape))

    return _from_op(data, (a, b), bwd, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def bwd(out: Tensor) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad * a.data, b.data.shape))

    return _from_op(data, (a, b), bwd, "mul")


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    data = a.data * np.float32(s)

    def bwd(out: Tensor) -> None:
        if a.requires_grad:
            a._accumulate(out.grad * np.float32(s))

    return _from_op(data, (a,), bwd, "scale")


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)

    def bwd(out: Tensor) -> None:
        if a.requires_grad:
            a._accumulate(out.grad.reshape(a.data.shape))

    return _from_op(data, (a,), bwd, "reshape")


def tensor_sum(a: Tensor) -> Tensor:
    data = a.data.sum()

    def bwd(out: Tensor) -> None:
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, out.grad))

    return _from_op(data, (a,), bwd, "sum")


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    s = np.float32(slope)
    data = np.maximum(a.data, a.data * s)  # slope < 1

    def bwd(out: Tensor) -> None:
        if a.requires_grad:
            a._accumulate(out.grad * np.where(a.data > 0, np.float32(1.0), s))

    return _from_op(data, (a,), bwd, "leaky_relu")


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def bwd(out: Tensor) -> None:
        if a.requires_grad:
            a._accumulate(out.grad * (1.0 - data * data))

    return _from_op(data, (a,), bwd, "tanh")


def sigmoid(a: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-a.data))

    def bwd(out: Tensor) -> None:
        if a.requires_grad:
            a._accumulate(out.grad * data * (1.0 - data))

    return _from_op(data, (a,), bwd, "sigmoid")


def _nhwc(x: np.ndarray) -> np.ndarray:
    """Channels-last view of an NCHW-shaped [C,H,W] or [B,C,H,W] array."""
    return x.transpose(1, 2, 0) if x.ndim == 3 else x.transpose(0, 2, 3, 1)


def _nchw(xh: np.ndarray) -> np.ndarray:
    """NCHW-shaped view of a channels-last [H,W,C] or [B,H,W,C] array."""
    return xh.transpose(2, 0, 1) if xh.ndim == 3 else xh.transpose(0, 3, 1, 2)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel axis; a occupies the leading block."""
    if a.data.ndim != b.data.ndim or a.data.shape[-2:] != b.data.shape[-2:]:
        raise ValueError(f"spatial mismatch in concat: {a.shape} vs {b.shape}")
    axis = a.data.ndim - 3
    data = _nchw(np.concatenate([_nhwc(a.data), _nhwc(b.data)], axis=-1))
    split = a.data.shape[axis]

    def bwd(out: Tensor) -> None:
        ga, gb = np.split(out.grad, [split], axis=axis)
        if a.requires_grad:
            a._accumulate(ga)
        if b.requires_grad:
            b._accumulate(gb)

    return _from_op(data, (a, b), bwd, "concat_channels")


def _upsample(x: np.ndarray, factor: int) -> np.ndarray:
    xh = _nhwc(x)
    *lead, h, w, c = xh.shape
    up = np.empty((*lead, h, factor, w, factor, c), dtype=np.float32)
    up[...] = xh[..., :, None, :, None, :]
    return _nchw(up.reshape(*lead, h * factor, w * factor, c))


def _upsample_grad(g: np.ndarray, factor: int) -> np.ndarray:
    """Gradient of a nearest upsample: the sum of its factor² strided slices.

    Each row phase is summed over its column phases first, then the rows are
    summed, which is the order of g.reshape(..., h, f, w, f).sum(axis=(-3, -1))
    at a tenth of its cost.
    """
    out = None
    for i in range(factor):
        row = g[..., i::factor, ::factor].copy(order="K")
        for j in range(1, factor):
            row += g[..., i::factor, j::factor]
        out = row if out is None else np.add(out, row, out=out)
    return out


def upsample_nearest(a: Tensor, factor: int = 2) -> Tensor:
    data = _upsample(a.data, factor)

    def bwd(out: Tensor) -> None:
        if a.requires_grad:
            a._accumulate(_upsample_grad(out.grad, factor))

    return _from_op(data, (a,), bwd, "upsample_nearest")


# ---------------------------------------------------------------------------
# convolutions


def _channel_sums(g2: np.ndarray) -> np.ndarray:
    """Column sums of a [pixels, C] gradient: one GEMV, far cheaper than a
    reduction over the long axis of a channels-last array."""
    return np.ones(g2.shape[0], dtype=np.float32) @ g2


def _as_batched(x: np.ndarray) -> tuple[np.ndarray, bool]:
    if x.ndim == 3:
        return x[None], True
    if x.ndim == 4:
        return x, False
    raise ValueError(f"conv input must be [C,H,W] or [B,C,H,W], got rank {x.ndim}")


def _im2col(x4: np.ndarray, kh: int, kw: int, stride: int) -> tuple[np.ndarray, int, int]:
    """[B*Ho*Wo, kh*kw*C] patch matrix of [B,C,H,W], copied once from one strided
    view of its channels-last memory (itself a copy unless x4 is channels-last).

    Each copied run is kw*C floats. With one channel that is only kw, so the
    matrix is gathered transposed instead, in runs along the output rows, and
    returned as a transposed view, which the GEMM takes without a copy.
    """
    xh = np.ascontiguousarray(_nhwc(x4))
    b, hp, wp, c = xh.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    sb, sh, sw, sc = xh.strides
    if c == 1:
        win = np.ndarray((kh, kw, b, ho, wo), dtype=xh.dtype, buffer=xh,
                         strides=(sh, sw, sb, stride * sh, stride * sw))
        return win.reshape(kh * kw, b * ho * wo).T, ho, wo
    win = np.ndarray((b, ho, wo, kh, kw, c), dtype=xh.dtype, buffer=xh,
                     strides=(sb, stride * sh, stride * sw, sh, sw, sc))
    return win.reshape(b * ho * wo, kh * kw * c), ho, wo


def _correlate(xp: np.ndarray, kmat: np.ndarray, kh: int, kw: int,
               stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Valid cross-correlation of padded [B,C,H,W] with kmat [kh*kw*C, C_out] as one GEMM.

    Returns the [B,C_out,Ho,Wo] result, a channels-last view of the GEMM's
    output, and the im2col matrix it multiplied.
    """
    cols, ho, wo = _im2col(xp, kh, kw, stride)
    out = (cols @ kmat).reshape(xp.shape[0], ho, wo, kmat.shape[1])
    return _nchw(out), cols


def _gemm_form(kernel: np.ndarray, stride: int) -> np.ndarray:
    """GEMM matrix of a [C_out,C_in,kh,kw] kernel: with stride 0 the forward
    [kh*kw*C_in, C_out]; with stride s >= 1 the sub-pixel form of the stride-s
    input gradient, [T_h*T_w*C_out, s*s*C_in] with T = ceil(k/s).

    Column (ph, pw, c) of the sub-pixel form holds the taps of input phase
    (ph, pw), spatially flipped: row (t, u, o) is kernel[o, c, s*(T_h-1-t)+ph,
    s*(T_w-1-u)+pw], zero past the kernel's edge. At s = 1 it is the flipped,
    channel-transposed kernel, [kh*kw*C_out, C_in].
    """
    cout, cin, kh, kw = kernel.shape
    s = int(stride)
    if not s:
        return kernel.transpose(2, 3, 1, 0).reshape(kh * kw * cin, cout)
    th, tw = -(-kh // s), -(-kw // s)
    kp = kernel.transpose(2, 3, 0, 1)
    if kp.shape[:2] != (th * s, tw * s):  # zero taps past the kernel's edge
        kp = np.zeros((th * s, tw * s, cout, cin), dtype=np.float32)
        kp[:kh, :kw] = kernel.transpose(2, 3, 0, 1)
    taps = kp.reshape(th, s, tw, s, cout, cin)[::-1, :, ::-1]
    return taps.transpose(0, 2, 4, 1, 3, 5).reshape(th * tw * cout, s * s * cin)


def _kernel_matrix(kernel: Tensor, stride: int) -> np.ndarray:
    """_gemm_form of kernel.data, cached per stride while the kernel is frozen."""
    if kernel.requires_grad:
        return _gemm_form(kernel.data, stride)
    if kernel._gemm is None or kernel._gemm[0] is not kernel.data:
        kernel._gemm = (kernel.data, {})
    forms = kernel._gemm[1]
    if stride not in forms:
        forms[stride] = _gemm_form(kernel.data, stride)
    return forms[stride]


def _subpixel_input_grad(g4: np.ndarray, kernel: Tensor, stride: int, padding: int,
                         h: int, w: int) -> np.ndarray:
    """Gradient of the [B,C_in,h,w] input of a stride-s conv, as one sub-pixel
    correlation (Shi et al., arXiv:1609.07009).

    Padded input row s*q+ph takes g[q-t] * kernel[s*t+ph] over t, so the
    undilated output gradient [B,C_out,Ho,Wo], zero-padded by T-1 before,
    correlated over a T_h x T_w window with the sub-pixel kernel matrix gives
    every phase of the padded input grid at once; a depth-to-space copy
    interleaves them. Only the phase rows q = floor(p/s) .. ceil((p+h)/s)-1,
    which cover the unpadded input, are computed. At s = 1 this is the padded
    correlation with the flipped kernel, and the result is the GEMM's memory.
    """
    b, cout, ho, wo = g4.shape
    kh, kw = kernel.data.shape[2:]
    s = stride
    th, tw = -(-kh // s), -(-kw // s)
    q0 = padding // s
    qh = -(-(padding + h) // s) - q0
    qw = -(-(padding + w) // s) - q0
    # buffer row j holds g row j - top; top >= 0 because padding < kernel size
    top, left = th - 1 - q0, tw - 1 - q0
    gz = np.zeros((b, qh + th - 1, qw + tw - 1, cout), dtype=np.float32)
    rows, cols = min(ho, qh + q0), min(wo, qw + q0)
    gz[:, top:top + rows, left:left + cols] = _nhwc(g4)[:, :rows, :cols]
    phases, _ = _correlate(_nchw(gz), _kernel_matrix(kernel, s), th, tw, 1)
    cin = kernel.data.shape[1]
    dxp = _nhwc(phases).reshape(b, qh, qw, s, s, cin).transpose(0, 1, 3, 2, 4, 5)
    dxp = dxp.reshape(b, qh * s, qw * s, cin)  # depth to space: a view at s = 1
    off = padding - s * q0
    return _nchw(dxp[:, off:off + h, off:off + w])


def _dilated_grad(g4: np.ndarray, kh: int, kw: int, stride: int, padding: int,
                  h: int, w: int) -> np.ndarray:
    """Output gradient [B,C_out,Ho,Wo] dilated by the stride and zero-padded by
    k-1-padding: [B,C_out,h+kh-1,w+kw-1], channels-last, whose valid
    correlation with the flipped kernel is the gradient of the h x w conv input."""
    b, cout, ho, wo = g4.shape
    # padding < kernel size keeps every output position inside the buffer
    top, left = kh - 1 - padding, kw - 1 - padding
    gz = np.zeros((b, h + kh - 1, w + kw - 1, cout), dtype=np.float32)
    gz[:, top:top + stride * (ho - 1) + 1:stride,
       left:left + stride * (wo - 1) + 1:stride] = _nhwc(g4)
    return _nchw(gz)


def _upsampled_conv_grads(g4: np.ndarray, x4: np.ndarray, kernel: Tensor, stride: int,
                          padding: int) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of conv2d(upsample_x2(x)) with respect to the [B,C,h,w] input x
    and the kernel, from one stride-2 correlation on the coarse grid.

    With gz the dilated output gradient, dx[i] = dup[2i] + dup[2i+1] =
    sum_e kflip[e] * (gz[2i+e] + gz[2i+1+e]) per axis, so the 2x2 box sums of
    gz, correlated with the flipped kernel at stride 2, give dx directly: a
    quarter of the work of the full-resolution gradient followed by its 2x2
    sum. The same im2col gives the kernel gradient: box[2q+e'] pairs with
    x[q] for tap k-1-e', so cols_box.T @ x is the gradient of the flipped
    form, again a quarter of the fine-grid multiply-adds.
    """
    b, cin, h, w = x4.shape
    cout, _, kh, kw = kernel.data.shape
    gz = _dilated_grad(g4, kh, kw, stride, padding, 2 * h, 2 * w)
    rows = gz[:, :, :-1] + gz[:, :, 1:]
    box = rows[..., :-1] + rows[..., 1:]
    del gz, rows  # hold one fine-grid temporary, not three, through the GEMM
    dx, cols = _correlate(box, _kernel_matrix(kernel, 1), kh, kw, 2)
    dk = None
    if kernel.requires_grad:
        dk_flipped = cols.T @ _nhwc(x4).reshape(b * h * w, cin)
        dk = dk_flipped.reshape(kh, kw, cout, cin)[::-1, ::-1].transpose(2, 3, 0, 1)
    return dx, dk


def conv2d(input: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of [C_in,H,W] (or batched) input with [C_out,C_in,kH,kW] kernel.

    The input gradient is one sub-pixel correlation of the undilated output
    gradient with the stride-s phase kernel matrix (_subpixel_input_grad),
    which at stride 1 is the padded correlation with the flipped kernel. A
    frozen kernel caches its forward and sub-pixel matrices; only a trainable
    kernel keeps the forward im2col matrix, for its own gradient.
    """
    x4, squeeze = _as_batched(input.data)
    if kernel.data.ndim != 4:
        raise ValueError(f"kernel must be [C_out,C_in,kH,kW], got rank {kernel.data.ndim}")
    cout, cin, kh, kw = kernel.data.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"kernel spatial dims must be odd, got {kh}x{kw}")
    if not 0 <= padding < min(kh, kw):
        raise ValueError(f"padding must be in [0, kernel size), got {padding} for {kh}x{kw}")
    b, c, h, w = x4.shape
    if c != cin:
        raise ValueError(f"channel mismatch: input has {c}, kernel expects {cin}")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"non-positive output size {ho}x{wo}")

    if padding:
        xp = np.zeros((b, h + 2 * padding, w + 2 * padding, c), dtype=np.float32)
        xp[:, padding:padding + h, padding:padding + w] = _nhwc(x4)
        xp = _nchw(xp)
    else:
        xp = x4
    out, cols = _correlate(xp, _kernel_matrix(kernel, 0), kh, kw, stride)
    if squeeze:
        out = out[0]
    if not kernel.requires_grad:
        cols = None

    def bwd(outT: Tensor) -> None:
        g = outT.grad
        g4 = g[None] if squeeze else g
        if cols is not None:
            g2 = _nhwc(g4).reshape(b * ho * wo, cout)
            dk = (g2.T @ cols).reshape(cout, kh, kw, cin)
            kernel._accumulate(dk.transpose(0, 3, 1, 2))
        if input.requires_grad:
            dx = _subpixel_input_grad(g4, kernel, stride, padding, h, w)
            input._accumulate(dx[0] if squeeze else dx)

    return _from_op(out, (input, kernel), bwd, "conv2d")


_LRELU_SLOPE = np.float32(0.2)
_ACTIVATIONS = ("lrelu", "tanh", "linear")


def conv_layer(input: Tensor, weight: Tensor, bias: Tensor, stride: int = 1,
               padding: int = 0, activation: str = "linear",
               upsample: bool = False) -> Tensor:
    """One conv layer as one tape node: optional nearest x2 upsample, conv2d,
    bias [C_out], then LeakyReLU(0.2), tanh or nothing.

    The convolution is the module-level conv2d call, so its own finite check
    runs before the activation (tanh would turn an overflowed +inf into 1)
    and anything that replaces conv2d sees every layer's convolution. The
    bias and activation are applied in place on the conv output. The
    backward applies the activation mask, sums the bias gradient and runs the
    conv node's own backward. With upsample, the conv sees the upsampled
    array and the kernel as constants, so its node keeps no im2col and has
    no backward: both the input and the kernel gradient come from one
    stride-2 correlation on the coarse grid of the input
    (_upsampled_conv_grads).
    """
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    if bias.data.shape != (weight.data.shape[0],):
        raise ValueError(f"bias must be [{weight.data.shape[0]}], got {bias.data.shape}")
    if upsample:
        # a frozen weight is a constant already, and keeps its cached forms
        kernel = Tensor(weight.data) if weight.requires_grad else weight
        conv = conv2d(Tensor(_upsample(input.data, 2)), kernel, stride=stride, padding=padding)
    else:
        conv = conv2d(input, weight, stride=stride, padding=padding)
    z = conv.data
    zh = _nhwc(z)  # the conv's own memory: bias and activation run on it in place
    zh += bias.data
    if activation == "lrelu":
        np.maximum(zh, zh * _LRELU_SLOPE, out=zh)
    elif activation == "tanh":
        np.tanh(zh, out=zh)

    def bwd(out: Tensor) -> None:
        gh = _nhwc(out.grad)
        if activation == "lrelu":
            # 1 where zh > 0 (exactly where its input was), else the slope: exact
            # factors, and branch-free, unlike np.where on a random sign pattern
            factor = (zh > 0).astype(np.float32)
            np.maximum(factor, _LRELU_SLOPE, out=factor)
            gh = np.multiply(factor, gh, out=factor)
        elif activation == "tanh":
            gh = gh * (1.0 - zh * zh)
        g = _nchw(gh)
        if bias.requires_grad:
            bias._accumulate(_channel_sums(gh.reshape(-1, gh.shape[-1])))
        if conv._backward is not None:
            conv.grad = g
            conv._backward(conv)
            conv.grad = None
        if upsample and (input.requires_grad or weight.requires_grad):
            g4, squeeze = _as_batched(g)
            x4, _ = _as_batched(input.data)
            dx, dk = _upsampled_conv_grads(g4, x4, weight, stride, padding)
            if dk is not None:
                weight._accumulate(dk)
            if input.requires_grad:
                input._accumulate(dx[0] if squeeze else dx)

    return _from_op(z, (input, weight, bias), bwd, "conv_layer")


def conv2d_1x1(input: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Per-pixel linear map over channels: kernel [C_out,C,1,1], bias [C_out]."""
    x4, squeeze = _as_batched(input.data)
    if kernel.data.ndim != 4 or kernel.data.shape[2:] != (1, 1):
        raise ValueError(f"kernel must be [C_out,C,1,1], got {kernel.data.shape}")
    cout, cin = kernel.data.shape[:2]
    if x4.shape[1] != cin:
        raise ValueError(f"channel mismatch: input has {x4.shape[1]}, kernel expects {cin}")
    if bias.data.shape != (cout,):
        raise ValueError(f"bias must be [{cout}], got {bias.data.shape}")
    w2 = kernel.data.reshape(cout, cin)
    b, _, h, w = x4.shape
    x2 = _nhwc(x4).reshape(b * h * w, cin)
    out = x2 @ w2.T
    out += bias.data
    out = _nchw(out.reshape(b, h, w, cout))
    if squeeze:
        out = out[0]

    def bwd(outT: Tensor) -> None:
        g = outT.grad
        g2 = _nhwc(g[None] if squeeze else g).reshape(b * h * w, cout)
        if kernel.requires_grad:
            kernel._accumulate((g2.T @ x2).reshape(cout, cin, 1, 1))
        if bias.requires_grad:
            bias._accumulate(_channel_sums(g2))
        if input.requires_grad:
            dx = _nchw((g2 @ w2).reshape(b, h, w, cin))
            input._accumulate(dx[0] if squeeze else dx)

    return _from_op(out, (input, kernel, bias), bwd, "conv2d_1x1")


# ---------------------------------------------------------------------------
# losses


def l1_distance(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute difference over all elements (scalar Tensor)."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    n = diff.size
    data = np.abs(diff).mean()

    def bwd(out: Tensor) -> None:
        g = out.grad * np.sign(diff, dtype=np.float32) / np.float32(n)
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)

    return _from_op(data, (a, b), bwd, "l1_distance")


def mse_loss(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared difference over all elements (scalar Tensor)."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a.data - b.data
    n = diff.size
    data = np.square(diff, dtype=np.float32).mean()

    def bwd(out: Tensor) -> None:
        g = out.grad * diff * np.float32(2.0 / n)
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(-g)

    return _from_op(data, (a, b), bwd, "mse_loss")


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Populate .grad of every requires_grad leaf reachable from the scalar loss.

    Repeated calls without zero_grads() accumulate.
    """
    if loss.data.shape != ():
        raise TapeError(f"loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise TapeError("loss is not on the gradient tape")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss._accumulate(np.ones((), dtype=np.float32))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node)
            _check_finite(node.grad, "backward")
            if node._parents:
                # interior node: free its grad buffer once consumed
                node.grad = None


def zero_grads(params) -> None:
    """Reset gradient buffers of the given tensors to zero."""
    for p in params:
        p.grad = np.zeros_like(p.data)


# ---------------------------------------------------------------------------
# optimisation


@dataclass
class AdamState:
    """Adam moment buffers for a fixed ordered parameter list."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    def bind(self, params: list[Tensor]) -> "AdamState":
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        return self


def make_adam(params: list[Tensor], lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    return AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps).bind(params)


def adam_step(params: list[Tensor], state: AdamState) -> None:
    """One Adam update with bias correction; reads each param's .grad.

    The moment buffers and the parameter are updated in place, with the
    float32 operations of m = b1*m + (1-b1)*g and p -= lr*m_hat/(sqrt(v_hat)+eps)
    in that order.
    """
    if len(state.m) != len(params):
        raise ValueError("AdamState not bound to this parameter list")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for i, p in enumerate(params):
        if p.grad is None:
            raise ValueError("missing grad for parameter in adam_step")
        if p.grad.shape != p.data.shape:
            raise ValueError("grad/param shape mismatch in adam_step")
        m, v = state.m[i], state.v[i]
        m *= b1
        m += (1.0 - b1) * p.grad
        v *= b2
        v += (1.0 - b2) * np.square(p.grad)
        u = m / bc1
        u *= state.lr
        u /= np.sqrt(v / bc2) + state.eps
        p._gemm = None  # the in-place update below would leave it stale
        p.data -= u
        _check_finite(p.data, "adam_step")


@dataclass(frozen=True)
class LrSchedule:
    """Hold at base_lr, then decay linearly to zero over decay_epochs."""

    base_lr: float
    hold_epochs: int
    decay_epochs: int

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if self.hold_epochs < 0 or self.decay_epochs < 0:
            raise ValueError("epoch counts must be non-negative")

    @property
    def total_epochs(self) -> int:
        return self.hold_epochs + self.decay_epochs

    def lr(self, epoch: int) -> float:
        if epoch < self.hold_epochs:
            return self.base_lr
        if self.decay_epochs == 0:
            return 0.0
        remaining = self.hold_epochs + self.decay_epochs - epoch
        return self.base_lr * max(0, remaining) / self.decay_epochs


# ---------------------------------------------------------------------------
# TNSR binary format: magic "TNSR", u8 version=1, u8 rank, rank x u32 LE dims,
# then f32 LE data row-major.

_TNSR_MAGIC = b"TNSR"
_TNSR_VERSION = 1


def tnsr_bytes(array: np.ndarray) -> bytes:
    """The TNSR file contents of array."""
    arr = np.asarray(array, dtype="<f4")  # tobytes() serialises row-major regardless
    if arr.ndim > 255:
        raise ValueError("rank too large for TNSR")
    return (_TNSR_MAGIC + struct.pack("<BB", _TNSR_VERSION, arr.ndim)
            + struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes())


def parse_tnsr(blob: bytes, path="<bytes>") -> np.ndarray:
    """The float32 array held by the TNSR bytes blob; path names it in errors."""
    if blob[:4] != _TNSR_MAGIC:
        raise ValueError(f"{path}: bad magic, not a TNSR file")
    if len(blob) < 6:
        raise ValueError(f"{path}: truncated TNSR header")
    version, rank = struct.unpack_from("<BB", blob, 4)
    if version != _TNSR_VERSION:
        raise ValueError(f"{path}: unsupported TNSR version {version}")
    head = 6 + 4 * rank
    if len(blob) < head:
        raise ValueError(f"{path}: truncated TNSR dims")
    dims = struct.unpack_from(f"<{rank}I", blob, 6)
    count = int(np.prod(dims)) if rank else 1
    expected = head + 4 * count
    if len(blob) != expected:
        raise ValueError(f"{path}: corrupt TNSR payload "
                         f"(expected {expected} bytes, got {len(blob)})")
    data = np.frombuffer(blob, dtype="<f4", count=count, offset=head)
    return data.reshape(dims).astype(np.float32, copy=True)
