import warnings

import numpy as np
import pytest

import ttalab.tensor as T
from ttalab.tensor import (LrSchedule, NumericError, TapeError, Tensor, adam_step,
                           backward, conv2d, conv2d_1x1, l1_distance, make_adam,
                           mse_loss, parse_tnsr, tnsr_bytes, zero_grads)

rng = np.random.default_rng(12345)


def conv2d_reference(x, k, stride, padding):
    """Direct 6-nested-loop cross-correlation."""
    cout, cin, kh, kw = k.shape
    c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((cout, ho, wo), dtype=np.float64)
    for o in range(cout):
        for i in range(ho):
            for j in range(wo):
                acc = 0.0
                for ci in range(cin):
                    for a in range(kh):
                        for b in range(kw):
                            acc += xp[ci, i * stride + a, j * stride + b] * k[o, ci, a, b]
                out[o, i, j] = acc
    return out


def conv2d_reference_grads(x, k, g, stride, padding):
    """Loop adjoint of conv2d_reference: gradients of sum(g * out) w.r.t. x and k."""
    cout, cin, kh, kw = k.shape
    _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding))).astype(np.float64)
    dxp = np.zeros_like(xp)
    dk = np.zeros(k.shape, dtype=np.float64)
    for o in range(cout):
        for i in range(g.shape[1]):
            for j in range(g.shape[2]):
                for ci in range(cin):
                    for a in range(kh):
                        for b in range(kw):
                            dxp[ci, i * stride + a, j * stride + b] += g[o, i, j] * k[o, ci, a, b]
                            dk[o, ci, a, b] += g[o, i, j] * xp[ci, i * stride + a, j * stride + b]
    return dxp[:, padding:padding + h, padding:padding + w], dk


def _assert_im2col_is_sliding_window(x4, kernel, stride):
    kh, kw = kernel
    b, c = x4.shape[:2]
    win = np.lib.stride_tricks.sliding_window_view(x4, kernel, axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    ho, wo = win.shape[2:4]
    # rows are output pixels (b, i, j), columns window taps (a, b, channel)
    ref = win.transpose(0, 2, 3, 4, 5, 1).reshape(b * ho * wo, kh * kw * c)
    cols, got_ho, got_wo = T._im2col(x4, kh, kw, stride)
    assert (got_ho, got_wo) == (ho, wo)
    assert cols.dtype == ref.dtype and np.array_equal(cols, ref)


class TestConv2d:
    def test_scaling_identity(self):
        x = Tensor(np.ones((1, 3, 3), np.float32))
        k = Tensor(np.full((1, 1, 1, 1), 2.0, np.float32))
        out = conv2d(x, k, stride=1, padding=0)
        assert np.array_equal(out.data, np.full((1, 3, 3), 2.0, np.float32))

    def test_single_pixel_sum(self):
        x = Tensor(np.full((1, 1, 1), 5.0, np.float32))
        k = Tensor(np.ones((1, 1, 3, 3), np.float32))
        out = conv2d(x, k, stride=1, padding=1)
        assert out.data.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == pytest.approx(5.0)

    def test_matches_loop_oracle(self):
        x = rng.normal(size=(2, 4, 4)).astype(np.float32)
        k = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        out = conv2d(Tensor(x), Tensor(k), stride=1, padding=1).data
        ref = conv2d_reference(x, k, 1, 1)
        assert np.abs(out - ref).max() < 1e-5

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_loop_oracle_strides(self, stride, padding):
        x = rng.normal(size=(3, 6, 6)).astype(np.float32)
        k = rng.normal(size=(2, 3, 3, 3)).astype(np.float32)
        out = conv2d(Tensor(x), Tensor(k), stride=stride, padding=padding).data
        ref = conv2d_reference(x, k, stride, padding)
        assert np.abs(out - ref).max() < 1e-5

    def test_batched_matches_per_sample(self):
        xb = rng.normal(size=(4, 2, 6, 6)).astype(np.float32)
        k = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        out = conv2d(Tensor(xb), Tensor(k), stride=2, padding=1).data
        for b in range(4):
            single = conv2d(Tensor(xb[b]), Tensor(k), stride=2, padding=1).data
            assert np.array_equal(out[b], single)

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("ksize", [3, 5])
    @pytest.mark.parametrize("size", [(7, 7), (6, 8)])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_grads_match_loop_adjoint(self, stride, padding, size, ksize, batched):
        local = np.random.default_rng(stride * 1000 + padding * 100 + size[1] * 10 + ksize)
        xs = local.normal(size=(2, 3) + size).astype(np.float32)
        k = local.normal(size=(2, 3, ksize, ksize)).astype(np.float32)
        ref = [conv2d_reference(xb, k, stride, padding) for xb in xs]
        gs = local.normal(size=(2,) + ref[0].shape).astype(np.float32)
        x_t = Tensor(xs if batched else xs[0], requires_grad=True)
        k_t = Tensor(k, requires_grad=True)
        g_t = Tensor(gs if batched else gs[0])
        backward(T.tensor_sum(T.mul(conv2d(x_t, k_t, stride=stride, padding=padding), g_t)))
        dk_ref = np.zeros(k.shape)
        for b in range(2 if batched else 1):
            dx_ref, dk_b = conv2d_reference_grads(xs[b], k, gs[b], stride, padding)
            # the loop adjoint is the oracle's adjoint: <g, conv(x,k)> = <dx, x> = <dk, k>
            # (the oracle multiplies in float32, hence the relative 1e-5)
            assert np.sum(gs[b] * ref[b]) == pytest.approx(np.sum(dx_ref * xs[b]), rel=1e-5)
            assert np.sum(gs[b] * ref[b]) == pytest.approx(np.sum(dk_b * k), rel=1e-5)
            dx = x_t.grad[b] if batched else x_t.grad
            assert np.abs(dx - dx_ref).max() < 1e-4
            dk_ref += dk_b
        assert np.abs(k_t.grad - dk_ref).max() < 1e-4

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("kernel", [(3, 3), (5, 3)])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_im2col_matches_sliding_window(self, stride, kernel, transposed):
        x4 = rng.normal(size=(2, 3, 8, 9)).astype(np.float32)
        if transposed:
            x4 = x4.transpose(0, 1, 3, 2)  # not C-contiguous
        _assert_im2col_is_sliding_window(x4, kernel, stride)

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("kernel", [(3, 3), (5, 3)])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_im2col_channels_last_and_one_channel(self, stride, kernel, channels):
        x4 = rng.normal(size=(2, 8, 9, channels)).astype(np.float32).transpose(0, 3, 1, 2)
        _assert_im2col_is_sliding_window(x4, kernel, stride)

    def test_padding_not_below_kernel_rejected(self):
        with pytest.raises(ValueError, match="padding"):
            conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))), padding=3)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            conv2d(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 1, 2, 2))))

    def test_non_positive_output(self):
        with pytest.raises(ValueError, match="non-positive"):
            conv2d(Tensor(np.zeros((1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))


def _unfused_layer(x, k, b, stride, activation, upsample):
    """The layer as separate tape ops: the reference conv_layer must match."""
    if upsample:
        x = T.upsample_nearest(x, 2)
    out = T.add(conv2d(x, k, stride=stride, padding=1), T.reshape(b, (k.shape[0], 1, 1)))
    if activation == "lrelu":
        return T.leaky_relu(out)
    if activation == "tanh":
        return T.tanh(out)
    return out


def _rel_err(got, ref):
    return np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-30)


class TestConvLayer:
    @pytest.mark.parametrize("trainable", [False, True])
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("upsample", [False, True])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("activation", ["lrelu", "tanh", "linear"])
    def test_matches_unfused_chain(self, activation, stride, upsample, batched, trainable):
        local = np.random.default_rng([stride, upsample, batched, trainable, len(activation)])
        xs = local.normal(size=(2, 3, 5, 6) if batched else (3, 5, 6)).astype(np.float32)
        ks = local.normal(size=(4, 3, 3, 3)).astype(np.float32)
        bs = local.normal(size=4).astype(np.float32)
        results = []
        for fused in (False, True):
            x, k, b = Tensor(xs, True), Tensor(ks, trainable), Tensor(bs, True)
            if fused:
                out = T.conv_layer(x, k, b, stride=stride, padding=1,
                                   activation=activation, upsample=upsample)
            else:
                out = _unfused_layer(x, k, b, stride, activation, upsample)
                g = local.normal(size=out.shape).astype(np.float32)
            backward(T.tensor_sum(T.mul(out, Tensor(g))))
            results.append((out.data, x.grad, k.grad, b.grad))
        (out_ref, dx_ref, dk_ref, db_ref), (out, dx, dk, db) = results
        assert np.array_equal(out, out_ref)
        assert _rel_err(dx, dx_ref) <= 1e-5
        assert _rel_err(db, db_ref) <= 1e-5
        if trainable:
            assert _rel_err(dk, dk_ref) <= 1e-5
        else:
            assert dk is None and dk_ref is None

    def test_layer_is_one_tape_node(self):
        from ttalab.layers import ConvLayer, LayerSpec
        layer = ConvLayer(LayerSpec(in_ch=2, out_ch=3, upsample=True), np.random.default_rng(0))
        x = Tensor(rng.normal(size=(2, 4, 4)).astype(np.float32), requires_grad=True)
        out = layer.forward(x)
        assert out._parents == (x, layer.weight, layer.bias)

    @pytest.mark.parametrize("factor", [2, 3])
    @pytest.mark.parametrize("batched", [False, True])
    def test_upsample_grad_matches_loop_oracle(self, factor, batched):
        shape = (2, 3, 4, 5) if batched else (3, 4, 5)
        x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
        g = rng.normal(size=shape[:-2] + (4 * factor, 5 * factor)).astype(np.float32)
        backward(T.tensor_sum(T.mul(T.upsample_nearest(x, factor), Tensor(g))))
        ref = np.zeros(shape, dtype=np.float64)
        for idx in np.ndindex(g.shape):
            ref[idx[:-2] + (idx[-2] // factor, idx[-1] // factor)] += g[idx]
        assert np.abs(x.grad - ref).max() < 1e-5

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("ksize", [3, 5])
    @pytest.mark.parametrize("size", [(7, 7), (6, 8)])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_upsample_input_grad_matches_loop_adjoint(self, stride, padding, size, ksize,
                                                      batched):
        local = np.random.default_rng([stride, padding, size[1], ksize, batched])
        xs = local.normal(size=(2, 3) + size).astype(np.float32)
        k = local.normal(size=(2, 3, ksize, ksize)).astype(np.float32)
        ups = xs.repeat(2, axis=-2).repeat(2, axis=-1)
        gs = local.normal(size=(2,) + conv2d_reference(ups[0], k, stride, padding).shape)
        gs = gs.astype(np.float32)
        x_t = Tensor(xs if batched else xs[0], requires_grad=True)
        k_t = Tensor(k)
        b_t = Tensor(np.zeros(2, np.float32))
        out = T.conv_layer(x_t, k_t, b_t, stride=stride, padding=padding, upsample=True)
        backward(T.tensor_sum(T.mul(out, Tensor(gs if batched else gs[0]))))
        for b in range(2 if batched else 1):
            dup, _ = conv2d_reference_grads(ups[b], k, gs[b], stride, padding)
            dx_ref = np.zeros(xs[b].shape)
            for c, i, j in np.ndindex(dup.shape):  # adjoint of the nearest x2 upsample
                dx_ref[c, i // 2, j // 2] += dup[c, i, j]
            dx = x_t.grad[b] if batched else x_t.grad
            assert np.abs(dx - dx_ref).max() < 1e-4

    def test_upsample_backward_correlates_on_coarse_grid(self, monkeypatch):
        x = Tensor(rng.normal(size=(2, 3, 5, 6)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        out = T.conv_layer(x, k, Tensor(np.zeros(4, np.float32)), padding=1, upsample=True)
        calls = []
        correlate = T._correlate

        def recording(xp, kmat, kh, kw, stride):
            res, cols = correlate(xp, kmat, kh, kw, stride)
            calls.append((stride, res.shape))
            return res, cols

        monkeypatch.setattr(T, "_correlate", recording)
        backward(T.tensor_sum(out))
        # one stride-2 correlation yields the input gradient at the input's resolution
        assert calls == [(2, x.shape)]

    def test_overflow_under_tanh_raises(self):
        # tanh(+inf) is 1: the conv's own finite check has to catch the overflow
        x = Tensor(np.full((1, 4, 4), 3e38, np.float32))
        k = Tensor(np.ones((1, 1, 3, 3), np.float32))
        b = Tensor(np.zeros(1, np.float32))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            T.conv_layer(x, k, b, padding=1, activation="tanh")

    def test_bias_overflow_under_tanh_raises(self):
        # the conv value 3e38 is finite; the bias add overflows, and tanh(+inf) is 1
        k = np.zeros((1, 1, 3, 3), np.float32)
        k[0, 0, 1, 1] = 3e38
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            T.conv_layer(Tensor(np.ones((1, 4, 4), np.float32)), Tensor(k),
                         Tensor(np.full(1, 3e38, np.float32)), padding=1, activation="tanh")

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="activation"):
            T.conv_layer(Tensor(np.zeros((1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3))),
                         Tensor(np.zeros(1)), padding=1, activation="relu")


class TestConv1x1:
    def test_identity_kernel_bitwise(self):
        x = rng.normal(size=(4, 5, 5)).astype(np.float32)
        k = np.eye(4, dtype=np.float32).reshape(4, 4, 1, 1)
        out = conv2d_1x1(Tensor(x), Tensor(k), Tensor(np.zeros(4, np.float32)))
        assert np.array_equal(out.data, x)

    def test_sum_difference_channels(self):
        a = rng.normal(size=(3, 3)).astype(np.float32)
        b = rng.normal(size=(3, 3)).astype(np.float32)
        x = np.stack([a, b])
        k = np.array([[1.0, 1.0], [1.0, -1.0]], np.float32).reshape(2, 2, 1, 1)
        out = conv2d_1x1(Tensor(x), Tensor(k), Tensor(np.zeros(2, np.float32))).data
        assert np.allclose(out[0], a + b, atol=1e-6)
        assert np.allclose(out[1], a - b, atol=1e-6)

    def test_matches_per_pixel_matmul(self):
        x = rng.normal(size=(3, 5, 5)).astype(np.float32)
        k = rng.normal(size=(4, 3, 1, 1)).astype(np.float32)
        bias = rng.normal(size=4).astype(np.float32)
        out = conv2d_1x1(Tensor(x), Tensor(k), Tensor(bias)).data
        w = k.reshape(4, 3)
        for i in range(5):
            for j in range(5):
                ref = w @ x[:, i, j] + bias
                assert np.abs(out[:, i, j] - ref).max() < 1e-5

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d_1x1(Tensor(np.zeros((3, 4, 4))),
                       Tensor(np.zeros((2, 2, 1, 1))), Tensor(np.zeros(2)))


def _channels_last(a):
    """True when a's channel axis is innermost in memory (shape stays NCHW)."""
    axes = (1, 2, 0) if a.ndim == 3 else (0, 2, 3, 1)
    return a.transpose(axes).flags.c_contiguous


def _layouts(x):
    """The same NCHW values in C order, channels-last memory and a strided view."""
    axes, back = ((1, 2, 0), (2, 0, 1)) if x.ndim == 3 else ((0, 2, 3, 1), (0, 3, 1, 2))
    wide = np.zeros(x.shape[:-1] + (2 * x.shape[-1],), np.float32)
    wide[..., ::2] = x
    return {"nchw": x, "channels_last": np.ascontiguousarray(x.transpose(axes)).transpose(back),
            "strided": wide[..., ::2]}


class TestMemoryFormat:
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_conv2d_same_for_every_input_layout(self, stride, padding, channels, batched):
        local = np.random.default_rng([stride, padding, channels, batched])
        shape = (2, channels, 6, 7) if batched else (channels, 6, 7)
        x = local.normal(size=shape).astype(np.float32)
        k = local.normal(size=(4, channels, 3, 3)).astype(np.float32)
        results = {}
        for name, xs in _layouts(x).items():
            assert np.array_equal(xs, x)
            xt, kt = Tensor(xs, requires_grad=True), Tensor(k, requires_grad=True)
            out = conv2d(xt, kt, stride=stride, padding=padding)
            g = np.linspace(-1, 1, out.data.size, dtype=np.float32).reshape(out.shape)
            backward(T.tensor_sum(T.mul(out, Tensor(g))))
            assert _channels_last(out.data) and _channels_last(xt.grad)
            results[name] = (out.data, xt.grad, kt.grad)
        ref = results.pop("nchw")
        for got in results.values():
            for a, b in zip(got, ref):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("batched", [False, True])
    def test_ops_build_channels_last(self, batched):
        shape = (2, 3, 4, 5) if batched else (3, 4, 5)
        x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(6, 3, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(6, np.float32))
        for upsample in (True, False):
            out = T.conv_layer(x, k, b, padding=1, activation="lrelu", upsample=upsample)
            assert _channels_last(out.data)
            assert out.shape[-2:] == ((8, 10) if upsample else (4, 5))
        assert _channels_last(T.upsample_nearest(x, 2).data)
        assert _channels_last(T.concat_channels(x, out).data)
        k1 = Tensor(rng.normal(size=(2, 3, 1, 1)).astype(np.float32))
        y = conv2d_1x1(x, k1, Tensor(np.zeros(2, np.float32)))
        assert _channels_last(y.data)
        backward(T.tensor_sum(T.mul(T.concat_channels(x, y), T.concat_channels(x, y))))
        assert _channels_last(x.grad)
        assert np.array_equal(T.concat_channels(x, y).data[..., :3, :, :], x.data)

    def test_upsample_input_grad_channels_last(self):
        x = Tensor(rng.normal(size=(3, 4, 5)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 3, 3, 3)).astype(np.float32))
        out = T.conv_layer(x, k, Tensor(np.zeros(2, np.float32)), padding=1, upsample=True)
        backward(T.tensor_sum(out))
        assert _channels_last(x.grad)

    def test_frozen_kernel_forms_cached(self):
        k = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
        assert T._kernel_matrix(k, False) is T._kernel_matrix(k, False)
        assert T._kernel_matrix(k, True) is T._kernel_matrix(k, True)
        k.requires_grad = True  # a trainable kernel changes every step: never cached
        assert T._kernel_matrix(k, False) is not T._kernel_matrix(k, False)

    @pytest.mark.parametrize("refresh", ["adam_step", "assignment"])
    def test_cached_kernel_forms_refreshed(self, refresh):
        x = Tensor(rng.normal(size=(3, 6, 6)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
        backward(T.tensor_sum(conv2d(x, k, padding=1)))  # fills both cached forms
        if refresh == "adam_step":
            k.requires_grad = True
            adam = make_adam([k], lr=0.1)
            zero_grads([k])
            backward(T.tensor_sum(conv2d(x, k, padding=1)))
            adam_step([k], adam)
            k.requires_grad = False
        else:
            k.data = k.data + np.float32(0.1)
        x.grad = None
        out = conv2d(x, k, padding=1)
        backward(T.tensor_sum(out))
        fresh_x = Tensor(x.data, requires_grad=True)
        fresh = conv2d(fresh_x, Tensor(k.data.copy()), padding=1)
        backward(T.tensor_sum(fresh))
        assert np.array_equal(out.data, fresh.data)
        assert np.array_equal(x.grad, fresh_x.grad)


class TestBackward:
    def test_linear_form_grad_is_input(self):
        x = rng.normal(size=(3, 4)).astype(np.float32)
        w = Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
        loss = T.tensor_sum(T.mul(w, Tensor(x)))
        backward(loss)
        assert np.allclose(w.grad, x, atol=1e-6)

    def test_constant_loss_zero_grad(self):
        w = Tensor(rng.normal(size=(2, 2)).astype(np.float32), requires_grad=True)
        zero_grads([w])
        loss = T.add(T.scale(T.tensor_sum(w), 0.0), Tensor(np.float32(3.0)))
        backward(loss)
        assert np.array_equal(w.grad, np.zeros((2, 2), np.float32))

    def test_conv_kernel_grad_matches_finite_differences(self):
        x = Tensor(rng.normal(size=(2, 5, 5)).astype(np.float32) * 0.5)
        k = Tensor(rng.normal(size=(2, 2, 3, 3)).astype(np.float32) * 0.5,
                   requires_grad=True)
        tgt = Tensor(rng.normal(size=(2, 5, 5)).astype(np.float32) * 0.5)

        def loss_value():
            return mse_loss(conv2d(x, k, stride=1, padding=1), tgt).item()

        loss = mse_loss(conv2d(x, k, stride=1, padding=1), tgt)
        zero_grads([k])
        backward(loss)
        h = 1e-3
        for idx in np.ndindex(k.data.shape):
            orig = k.data[idx]
            k.data[idx] = orig + h
            lp = loss_value()
            k.data[idx] = orig - h
            lm = loss_value()
            k.data[idx] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - k.grad[idx]) <= max(1e-3, 1e-2 * abs(fd))

    def test_accumulation_without_reset(self):
        w = Tensor(np.ones((2,), np.float32), requires_grad=True)
        x = Tensor(np.array([2.0, 3.0], np.float32))
        backward(T.tensor_sum(T.mul(w, x)))
        backward(T.tensor_sum(T.mul(w, x)))
        assert np.allclose(w.grad, 2 * x.data)
        zero_grads([w])
        assert np.array_equal(w.grad, np.zeros(2, np.float32))

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones((2,), np.float32), requires_grad=True)
        with pytest.raises(TapeError, match="scalar"):
            backward(T.mul(w, w))

    def test_off_tape_loss_rejected(self):
        with pytest.raises(TapeError, match="tape"):
            backward(Tensor(np.float32(1.0)))

    def test_no_grad_suppresses_tape(self):
        w = Tensor(np.ones((2,), np.float32), requires_grad=True)
        with T.no_grad():
            out = T.tensor_sum(T.mul(w, w))
        assert not out.requires_grad


class TestLosses:
    def test_l1_identical(self):
        a = Tensor(rng.normal(size=(3, 3)).astype(np.float32))
        assert l1_distance(a, a).item() == 0.0

    def test_l1_constant(self):
        a = Tensor(np.ones((4, 4), np.float32))
        b = Tensor(np.full((4, 4), 0.25, np.float32))
        assert l1_distance(a, b).item() == pytest.approx(0.75)

    def test_l1_matches_summation_oracle(self):
        a = rng.normal(size=(3, 7, 5)).astype(np.float32)
        b = rng.normal(size=(3, 7, 5)).astype(np.float32)
        got = l1_distance(Tensor(a), Tensor(b)).item()
        ref = sum(abs(float(u) - float(v)) for u, v in zip(a.flat, b.flat)) / a.size
        assert got == pytest.approx(ref, abs=1e-6)

    def test_mse_identical(self):
        a = Tensor(rng.normal(size=(5,)).astype(np.float32))
        assert mse_loss(a, a).item() == 0.0

    def test_mse_constant(self):
        a = Tensor(np.ones((4, 4), np.float32))
        b = Tensor(np.full((4, 4), 0.5, np.float32))
        assert mse_loss(a, b).item() == pytest.approx(0.25)

    def test_mse_matches_summation_oracle(self):
        a = rng.normal(size=(2, 6, 6)).astype(np.float32)
        b = rng.normal(size=(2, 6, 6)).astype(np.float32)
        got = mse_loss(Tensor(a), Tensor(b)).item()
        ref = sum((float(u) - float(v)) ** 2 for u, v in zip(a.flat, b.flat)) / a.size
        assert got == pytest.approx(ref, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            l1_distance(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
        with pytest.raises(ValueError, match="shape mismatch"):
            mse_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


class TestAdam:
    def test_first_step_near_minus_lr(self):
        p = Tensor(np.zeros((), np.float32), requires_grad=True)
        p.grad = np.ones((), np.float32)
        state = make_adam([p], lr=0.1)
        adam_step([p], state)
        assert abs(float(p.data) - (-0.1)) < 1e-6
        assert state.step_count == 1

    def test_zero_grad_leaves_params(self):
        p = Tensor(np.full((3,), 2.0, np.float32), requires_grad=True)
        p.grad = np.zeros(3, np.float32)
        state = make_adam([p], lr=0.5)
        adam_step([p], state)
        assert np.array_equal(p.data, np.full(3, 2.0, np.float32))

    def test_two_steps_match_scalar_reference(self):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        g = 0.7
        # scalar reference
        pv, m, v = 1.0, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            pv -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        p = Tensor(np.float32(1.0), requires_grad=True)
        state = make_adam([p], lr=lr)
        for _ in range(2):
            p.grad = np.float32(g)
            adam_step([p], state)
        assert float(p.data) == pytest.approx(pv, abs=1e-7)

    def test_missing_grad(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        state = make_adam([p], lr=0.1)
        with pytest.raises(ValueError, match="missing grad"):
            adam_step([p], state)


class TestLrSchedule:
    def test_piecewise_shape(self):
        s = LrSchedule(1.0, hold_epochs=3, decay_epochs=4)
        assert [s.lr(e) for e in range(9)] == [1.0, 1.0, 1.0, 1.0, 0.75, 0.5, 0.25, 0.0, 0.0]

    def test_zero_decay_constant(self):
        s = LrSchedule(2e-4, hold_epochs=5, decay_epochs=0)
        assert all(s.lr(e) == 2e-4 for e in range(5))

    def test_nonnegative_and_zero_after_end(self):
        s = LrSchedule(0.3, 2, 3)
        for e in range(12):
            assert s.lr(e) >= 0.0
        assert s.lr(s.total_epochs) == 0.0
        assert s.lr(s.total_epochs + 5) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            LrSchedule(0.0, 1, 1)


class TestNumericGuards:
    def test_nan_aborts_forward(self):
        a = Tensor(np.array([1.0, np.inf], np.float32))
        b = Tensor(np.array([1.0, -np.inf], np.float32))
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            T.add(a, b)

    def test_overflow_to_inf_aborts(self):
        a = Tensor(np.array([3e38], np.float32))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            T.mul(a, a)

    def test_large_finite_values_pass_without_warning(self):
        # every element is finite, only their float32 sum would overflow
        a = Tensor(np.array([1.5e38, 1.5e38], np.float32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = T.add(a, a)
            T._check_finite(np.array([3e38, 3e38], np.float32), "probe")
        assert np.isfinite(out.data).all() and out.data[0] == np.float32(3e38)

    def test_sigmoid_of_large_negative_is_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = T.sigmoid(Tensor([-100.0]))
        assert out.data.tolist() == [0.0]

    @pytest.mark.parametrize("op", [T.tanh, T.sigmoid])
    def test_saturating_activation_checks_its_input(self, op):
        # tanh(inf) is 1 and sigmoid(inf) is 1: the output alone would pass
        with pytest.raises(NumericError):
            op(Tensor(np.array([np.inf], np.float32)))

    @pytest.mark.parametrize("stride,width", [(2, 6), (3, 7)])
    def test_strided_conv_checks_the_input_it_never_reads(self, stride, width):
        x = np.zeros((1, width, width), np.float32)
        x[0, 2, -1] = np.nan  # right of the last window
        with pytest.raises(NumericError):
            conv2d(Tensor(x), Tensor(np.ones((1, 1, 3, 3), np.float32)), stride=stride)
        x[0, 2, -1] = 0.0
        x[0, -1, 0] = np.nan  # below the last window
        with pytest.raises(NumericError):
            conv2d(Tensor(x), Tensor(np.ones((1, 1, 3, 3), np.float32)), stride=stride)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_backward_checks_leaf_gradients(self, value):
        w = Tensor(np.array([1.0, 2.0], np.float32), requires_grad=True)
        g = np.array([1.0, value], np.float32)
        # an identity whose backward hands the leaf a non-finite gradient
        out = T._node(w.data.copy(), (w,), lambda out: w._accumulate(out.grad * g))
        with pytest.raises(NumericError, match="backward"):
            backward(T.tensor_sum(out))

    def test_backward_overflow_into_leaf_raises(self):
        # forward 1e-30 * 3e38 * 1e30 = 3e38 is finite; the gradient 3e38 * 1e30 is not
        w = Tensor(np.array([1e-30], np.float32), requires_grad=True)
        loss = T.tensor_sum(T.scale(T.mul(w, Tensor(np.array([3e38], np.float32))), 1e30))
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="backward"):
            backward(loss)

    def test_concat_checks_the_share_it_drops(self):
        # the concat's gradient is [1e30 | NaN] (inf * 0 in the constant's block):
        # the leaf's share is finite, and the NaN would end at the constant
        a = Tensor(np.ones((1, 2, 2), np.float32), requires_grad=True)
        b = Tensor(np.zeros((1, 2, 2), np.float32))
        cat = T.concat_channels(a, b)
        zero_b = T.mul(cat, Tensor(np.array([1.0, 0.0], np.float32).reshape(2, 1, 1)))
        big_b = T.mul(zero_b, Tensor(np.array([1.0, 3e38], np.float32).reshape(2, 1, 1)))
        loss = T.tensor_sum(T.scale(big_b, 1e30))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericError, match="concat_channels"):
            backward(loss)


class TestDeterminism:
    def test_bitwise_identical_forward_and_grads(self):
        def once():
            r = np.random.default_rng(7)
            x = Tensor(r.normal(size=(2, 8, 8)).astype(np.float32))
            k = Tensor(r.normal(size=(3, 2, 3, 3)).astype(np.float32), requires_grad=True)
            out = T.leaky_relu(conv2d(x, k, stride=2, padding=1))
            loss = mse_loss(out, Tensor(np.zeros_like(out.data)))
            zero_grads([k])
            backward(loss)
            return out.data.copy(), k.grad.copy()
        o1, g1 = once()
        o2, g2 = once()
        assert np.array_equal(o1, o2)
        assert np.array_equal(g1, g2)


class TestTnsrFormat:
    def test_round_trip(self):
        arr = rng.normal(size=(3, 4, 5)).astype(np.float32)
        back = parse_tnsr(tnsr_bytes(arr))
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)

    def test_scalar_and_rank1(self):
        for arr in (np.float32(3.5), np.arange(7, dtype=np.float32)):
            assert np.array_equal(parse_tnsr(tnsr_bytes(np.asarray(arr))), np.asarray(arr))

    def test_truncated_payload(self):
        blob = tnsr_bytes(np.ones((4, 4), np.float32))
        with pytest.raises(ValueError, match="corrupt|truncated"):
            parse_tnsr(blob[:-8])

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            parse_tnsr(b"NOPE" + b"\x00" * 16)


def _old_input_grad(g4, k, stride, padding, h, w):
    """The input gradient as the dilated correlation with the flipped kernel."""
    cout, cin, kh, kw = k.shape
    flipped = k[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(kh * kw * cout, cin)
    gz = T._dilated_grad(g4, kh, kw, stride, padding, h, w)
    return T._correlate(gz, flipped, kh, kw, 1)[0]


class TestSubpixelInputGrad:
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("size", [(7, 7), (6, 8), (9, 5)])
    @pytest.mark.parametrize("ksize,padding", [(3, p) for p in range(3)] +
                             [(5, p) for p in range(5)])
    @pytest.mark.parametrize("stride", [2, 3])
    def test_matches_loop_adjoint(self, stride, ksize, padding, size, batched):
        # stride 3 with a 3x3 kernel leaves one tap per phase and input rows that
        # no output window reaches; with a 5x5 kernel, phases of one and two taps
        local = np.random.default_rng([stride, ksize, padding, *size, batched])
        xs = local.normal(size=(2, 3) + size).astype(np.float32)
        k = local.normal(size=(2, 3, ksize, ksize)).astype(np.float32)
        out_shape = conv2d_reference(xs[0], k, stride, padding).shape
        gs = local.normal(size=(2,) + out_shape).astype(np.float32)
        x_t = Tensor(xs if batched else xs[0], requires_grad=True)
        out = conv2d(x_t, Tensor(k), stride=stride, padding=padding)
        backward(T.tensor_sum(T.mul(out, Tensor(gs if batched else gs[0]))))
        assert _channels_last(x_t.grad)
        for b in range(2 if batched else 1):
            dx_ref, _ = conv2d_reference_grads(xs[b], k, gs[b], stride, padding)
            dx = x_t.grad[b] if batched else x_t.grad
            assert np.abs(dx - dx_ref).max() < 1e-4

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("ksize,padding", [(3, 0), (3, 1), (5, 2), (5, 4)])
    def test_stride_1_bitwise_equal_to_flipped_correlation(self, ksize, padding, channels,
                                                          batched):
        local = np.random.default_rng([ksize, padding, channels, batched])
        shape = (2, channels, 6, 7) if batched else (channels, 6, 7)
        x_t = Tensor(local.normal(size=shape).astype(np.float32), requires_grad=True)
        k = local.normal(size=(4, channels, ksize, ksize)).astype(np.float32)
        out = conv2d(x_t, Tensor(k), padding=padding)
        g = local.normal(size=out.shape).astype(np.float32)
        backward(T.tensor_sum(T.mul(out, Tensor(g))))
        ref = _old_input_grad(T._as_batched(g)[0], k, 1, padding, 6, 7)
        assert np.array_equal(x_t.grad, ref if batched else ref[0])

    @pytest.mark.parametrize("stride,ksize", [(2, 3), (2, 5), (3, 5)])
    def test_one_correlation_of_undilated_gradient(self, stride, ksize, monkeypatch):
        x = Tensor(rng.normal(size=(2, 3, 9, 8)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3, ksize, ksize)).astype(np.float32))
        out = conv2d(x, k, stride=stride, padding=1)
        g = rng.normal(size=out.shape).astype(np.float32)
        calls = []
        correlate = T._correlate

        def recording(xp, kmat, kh, kw, s):
            res, cols = correlate(xp, kmat, kh, kw, s)
            calls.append((xp.copy(), kmat.shape, cols.shape, (kh, kw, s)))
            return res, cols

        monkeypatch.setattr(T, "_correlate", recording)
        backward(T.tensor_sum(T.mul(out, Tensor(g))))
        taps = -(-ksize // stride)
        assert len(calls) == 1
        gz, kmat_shape, cols_shape, window = calls[0]
        assert window == (taps, taps, 1)
        assert cols_shape[1] == taps * taps * 4 == kmat_shape[0]
        assert kmat_shape[1] == stride * stride * 3
        # the buffer is the output gradient, undilated, in a border of zeros
        ho, wo = g.shape[-2:]
        top = taps - 1  # padding 1 < stride
        assert np.array_equal(gz[:, :, top:top + ho, top:top + wo], g)
        assert np.count_nonzero(gz) == np.count_nonzero(g)


def _upsampled_oracle(x, k, g, stride, padding):
    """Loop oracle of conv2d(upsample_x2(x)): its output and its kernel gradient."""
    up = np.repeat(np.repeat(x.astype(np.float64), 2, axis=-2), 2, axis=-1)
    _, dk = conv2d_reference_grads(up, k, g, stride, padding)
    return conv2d_reference(up, k, stride, padding), dk


class TestUpsampleKernelGrad:
    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("ksize", [3, 5])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_loop_oracle(self, stride, padding, ksize, batched):
        local = np.random.default_rng([stride, padding, ksize, batched])
        xs = local.normal(size=(2, 3, 4, 5)).astype(np.float32)
        k = local.normal(size=(2, 3, ksize, ksize)).astype(np.float32)
        out_shape = conv2d_reference(np.zeros((3, 8, 10)), k, stride, padding).shape
        gs = local.normal(size=(2,) + out_shape).astype(np.float32)
        x_t = Tensor(xs if batched else xs[0], requires_grad=True)
        k_t = Tensor(k, requires_grad=True)
        out = T.conv_layer(x_t, k_t, Tensor(np.zeros(2, np.float32)), stride=stride,
                           padding=padding, upsample=True)
        backward(T.tensor_sum(T.mul(out, Tensor(gs if batched else gs[0]))))
        dk_ref = np.zeros(k.shape)
        for b in range(2 if batched else 1):
            ref, dk_b = _upsampled_oracle(xs[b], k, gs[b], stride, padding)
            assert np.abs((out.data[b] if batched else out.data) - ref).max() < 1e-4
            dk_ref += dk_b
        assert np.abs(k_t.grad - dk_ref).max() < 1e-4

    def test_forward_keeps_no_im2col_and_backward_correlates_once(self, monkeypatch):
        import weakref
        x = Tensor(rng.normal(size=(2, 3, 5, 6)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        built = []
        im2col = T._im2col

        def recording_im2col(*args):
            cols, ho, wo = im2col(*args)
            built.append(weakref.ref(cols))
            return cols, ho, wo

        monkeypatch.setattr(T, "_im2col", recording_im2col)
        out = T.conv_layer(x, k, Tensor(np.zeros(4, np.float32)), padding=1, upsample=True)
        assert len(built) == 1 and built[0]() is None  # the fine im2col is already freed
        calls = []
        correlate = T._correlate

        def recording(xp, kmat, kh, kw, stride):
            res, cols = correlate(xp, kmat, kh, kw, stride)
            calls.append((stride, res.shape))
            return res, cols

        monkeypatch.setattr(T, "_correlate", recording)
        backward(T.tensor_sum(out))
        assert calls == [(2, x.shape)]
        assert x.grad is not None and k.grad is not None


class TestSubpixelFormCache:
    def test_cached_for_frozen_kernel_only(self):
        x = Tensor(rng.normal(size=(3, 8, 8)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
        backward(T.tensor_sum(conv2d(x, k, stride=2, padding=1)))
        cached = k._gemm[1][2]
        assert cached.shape == (2 * 2 * 4, 2 * 2 * 3)
        assert np.array_equal(cached, T._gemm_form(k.data, 2))
        assert T._kernel_matrix(k, 2) is cached
        # the stride-1 form is the flipped, channel-transposed kernel
        assert np.array_equal(T._kernel_matrix(k, 1), k.data[:, :, ::-1, ::-1]
                              .transpose(2, 3, 0, 1).reshape(9 * 4, 3))
        trainable = Tensor(k.data.copy(), requires_grad=True)
        backward(T.tensor_sum(conv2d(x, trainable, stride=2, padding=1)))
        assert trainable._gemm is None
        assert T._kernel_matrix(trainable, 2) is not T._kernel_matrix(trainable, 2)

    @pytest.mark.parametrize("refresh", ["adam_step", "assignment"])
    def test_refreshed(self, refresh):
        x = Tensor(rng.normal(size=(3, 8, 8)).astype(np.float32), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
        backward(T.tensor_sum(conv2d(x, k, stride=2, padding=1)))  # caches the stride-2 form
        if refresh == "adam_step":
            k.requires_grad = True
            k.grad = rng.normal(size=k.shape).astype(np.float32)
            adam_step([k], make_adam([k], lr=0.1))
            k.requires_grad = False
        else:
            k.data = k.data + np.float32(0.1)
        x.grad = None
        backward(T.tensor_sum(conv2d(x, k, stride=2, padding=1)))
        fresh_x = Tensor(x.data, requires_grad=True)
        backward(T.tensor_sum(conv2d(fresh_x, Tensor(k.data.copy()), stride=2, padding=1)))
        assert np.array_equal(x.grad, fresh_x.grad)


def _old_adam_step(params, state):
    """adam_step as it was written before its in-place update, kept as the reference."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = 0.9, 0.999
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for i, p in enumerate(params):
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * p.grad
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * np.square(p.grad)
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p.data -= (state.lr * m_hat / (np.sqrt(v_hat) + 1e-8)).astype(np.float32)


class TestAdamInPlace:
    def test_twenty_steps_bitwise_equal_to_reference(self):
        local = np.random.default_rng(20)
        shapes = [(16, 8, 3, 3), (16,), ()]
        init = [local.normal(size=s).astype(np.float32) for s in shapes]
        sides = []
        for step in (adam_step, _old_adam_step):
            params = [Tensor(a.copy(), requires_grad=True) for a in init]
            state = make_adam(params, lr=3e-3)
            grads = np.random.default_rng(21)
            for _ in range(20):
                for p in params:
                    p.grad = grads.normal(size=p.shape).astype(np.float32)
                step(params, state)
            sides.append((params, state))
        (new, s_new), (old, s_old) = sides
        for a, b in zip(new, old):
            assert a.data.dtype == np.float32 and np.array_equal(a.data, b.data)
        for a, b in zip(s_new.m + s_new.v, s_old.m + s_old.v):
            assert np.array_equal(a, b)

    def test_moments_updated_in_place(self):
        p = Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        state = make_adam([p], lr=0.1)
        m, v, data = state.m[0], state.v[0], p.data
        p.grad = np.full((2, 3), 0.5, np.float32)
        adam_step([p], state)
        assert state.m[0] is m and state.v[0] is v and p.data is data
        assert np.all(m != 0) and np.all(data != 1)
