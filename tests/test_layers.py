"""Layer forward values, gradient checks, and pooling algebra."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redae.layers as L
import redae.network as N
from redae.errors import DataError, ShapeError
from redae.tensor import Rng, Tape, Tensor4, backward, grad_check

from _ops import check_window_indices, mul, sum_all

GRAD_TOL = 1e-4  # relative, central differences at eps=1e-5


def _conv_params(rng, c_in, c_out, k, grad=True):
    return L.ConvParams(
        Tensor4(rng.normal((c_out, c_in, k, k), 0.4), requires_grad=grad,
                validate=False),
        Tensor4(rng.normal((1, c_out, 1, 1), 0.4), requires_grad=grad,
                validate=False))


def _bn_params(c, rng=None):
    g = rng.normal((1, c, 1, 1), 0.3) + 1.0 if rng else np.ones((1, c, 1, 1))
    b = rng.normal((1, c, 1, 1), 0.3) if rng else np.zeros((1, c, 1, 1))
    return L.BatchNormParams(Tensor4(g, requires_grad=True, validate=False),
                             Tensor4(b, requires_grad=True, validate=False),
                             np.zeros(c), np.ones(c))


# ---------------------------------------------------------------------------
# Forward values


class TestConvForward:
    def test_identity_kernel(self):
        rng = Rng(0)
        x = rng.tensor_normal((1, 1, 4, 4))
        p = L.ConvParams(Tensor4(np.ones((1, 1, 1, 1))),
                         Tensor4(np.zeros((1, 1, 1, 1))))
        assert np.allclose(L.conv2d(x, p).data, x.data)

    def test_box_sum_same_padding(self):
        # 3x3 all-ones kernel over all-ones input: interior pixels see 9,
        # edges 6, corners 4 (zero padding).
        x = Tensor4(np.ones((1, 1, 4, 4)))
        p = L.ConvParams(Tensor4(np.ones((1, 1, 3, 3)), validate=False),
                         Tensor4(np.zeros((1, 1, 1, 1))))
        out = L.conv2d(x, p).data[0, 0]
        assert out[1, 1] == 9 and out[0, 1] == 6 and out[0, 0] == 4

    def test_channel_mismatch(self):
        rng = Rng(2)
        with pytest.raises(ShapeError):
            L.conv2d(rng.tensor_normal((1, 2, 4, 4)), _conv_params(rng, 3, 4, 3))

    def test_even_filter_rejected(self):
        with pytest.raises(ShapeError):
            L.ConvParams(Tensor4(np.ones((1, 1, 2, 2)), validate=False),
                         Tensor4(np.zeros((1, 1, 1, 1))))

    def test_matches_direct_convolution(self):
        # brute-force per-pixel reference
        rng = Rng(3)
        x = rng.tensor_normal((1, 2, 5, 5))
        p = _conv_params(rng, 2, 3, 3)
        out = L.conv2d(x, p).data
        xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for co in range(3):
            for i in range(5):
                for j in range(5):
                    ref = (xp[0, :, i:i + 3, j:j + 3] * p.filters.data[co]).sum() \
                        + p.bias.data[0, co, 0, 0]
                    assert out[0, co, i, j] == pytest.approx(ref, rel=1e-12)


class TestConvBands:
    """An untracked 3x3 conv whose im2col columns exceed `_BAND_BYTES` builds
    them in row bands; a recorded one builds all of them, as backward needs."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(1, 16, 304, 304), (2, 32, 152, 150)])
    def test_banded_equals_one_band_bytewise(self, shape, dtype):
        n, c_in, h, w = shape
        col_bytes = n * c_in * 9 * h * w * np.dtype(dtype).itemsize
        bands = -(-col_bytes // L._BAND_BYTES)
        assert bands >= 3 and h % -(-h // bands) != 0  # the last band is shorter
        rng = Rng(12)
        x = Tensor4(rng.normal(shape).astype(dtype), validate=False)
        p = L.ConvParams(Tensor4(rng.normal((16, c_in, 3, 3), 0.1).astype(dtype), validate=False),
                         Tensor4(rng.normal((1, 16, 1, 1), 0.1).astype(dtype), validate=False))
        tracemalloc.start()
        try:
            banded = L.conv2d(x, p).data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with Tape():
            whole = L.conv2d(Tensor4(x.data, requires_grad=True, validate=False), p)
        assert whole.requires_grad
        assert banded.tobytes() == whole.data.tobytes()
        assert peak < col_bytes

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c_in,c_out", [(1, 16), (16, 32), (32, 16), (16, 16)])
    def test_banded_equals_recorded_at_the_network_shapes(self, c_in, c_out, dtype):
        # the 3x3 convs of a (16, 32) network at sizes it runs them for 64-304
        # px inputs (1 -> 16 also at 304, where it splits), at the shipped
        # band size. Not at smaller ones: a band's column count sets which
        # OpenBLAS kernel computes each column, and some kernels round
        # differently (with 1 MiB bands 2 of these shapes give other bytes)
        sizes = (32, 36, 48, 64, 76, 100, 128, 152) + ((304,) if c_in == 1 else ())
        split = 0
        for size in sizes:
            for n in (1, 2):
                split += n * c_in * 9 * size * size * np.dtype(dtype).itemsize > L._BAND_BYTES
                rng = Rng([14, c_in, size, n])
                x = rng.normal((n, c_in, size, size)).astype(dtype)
                p = L.ConvParams(
                    Tensor4(rng.normal((c_out, c_in, 3, 3), 0.2).astype(dtype), validate=False),
                    Tensor4(rng.normal((1, c_out, 1, 1), 0.2).astype(dtype), validate=False))
                banded = L.conv2d(Tensor4(x, validate=False), p)
                with Tape():
                    whole = L.conv2d(Tensor4(x, requires_grad=True, validate=False), p)
                assert whole.requires_grad and not banded.requires_grad
                assert banded.data.tobytes() == whole.data.tobytes(), (size, n)
        assert split  # some of them run in several bands

    def test_recorded_conv_keeps_every_column(self):
        # a shape that bands when untracked; the filter grad of sum(out) at
        # offset (i, j) is the sum of the padded input's shifted window
        rng = Rng(13)
        x = Tensor4(rng.uniform(0.0, 1.0, (1, 16, 304, 304)).astype(np.float32),
                    requires_grad=True, validate=False)
        p = L.ConvParams(Tensor4(rng.normal((2, 16, 3, 3), 0.1).astype(np.float32),
                                 requires_grad=True, validate=False),
                         Tensor4(np.zeros((1, 2, 1, 1), np.float32), validate=False))
        with Tape():
            backward(sum_all(L.conv2d(x, p)))
        xp = np.pad(x.data[0].astype(np.float64), ((0, 0), (1, 1), (1, 1)))
        ref = np.array([[[xp[c, i:i + 304, j:j + 304].sum() for j in range(3)]
                         for i in range(3)] for c in range(16)])
        assert np.allclose(p.filters.grad, ref[None].repeat(2, axis=0), rtol=1e-4)


class TestConvInputGrad:
    """A conv's input grad is itself a conv (the flipped filters over the
    output grad), so it is checked as the adjoint of the forward at the
    network's 3x3 and 1x1 shapes, where a 3x3 one can run in row bands."""

    @staticmethod
    def _input_grad(x, filters, g, monkeypatch):
        # x.grad of sum(conv(x) * g); records whether the grad conv banded,
        # that is, built its columns with more than one strided view
        calls, views = [], []
        real, strided = L._same_conv, L.as_strided

        def spy(data, f, keep_cols):
            views.clear()
            out, cols = real(data, f, keep_cols)
            calls.append((cols is not None, len(views) > 1))
            return out, cols

        def count_views(*args):
            views.append(args)
            return strided(*args)

        monkeypatch.setattr(L, "_same_conv", spy)
        monkeypatch.setattr(L, "as_strided", count_views)
        xt = Tensor4(x, requires_grad=True, validate=False)
        p = L.ConvParams(Tensor4(filters, validate=False),
                         Tensor4(np.zeros((1, filters.shape[0], 1, 1), x.dtype), validate=False))
        with Tape():
            out = L.conv2d(xt, p)
            backward(sum_all(mul(out, Tensor4(g, validate=False))))
        monkeypatch.undo()
        # the recorded forward keeps its columns, the grad conv returns none
        assert len(calls) == 2 and calls[0] == (True, False) and not calls[1][0]
        return out.data, xt.grad, calls[1][1]

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("c_in,c_out,size,kp,kq", [
        (16, 32, 32, 3, 3), (32, 16, 32, 3, 3), (16, 16, 64, 3, 3), (3, 4, 9, 3, 5),
        (32, 16, 32, 1, 1), (64, 32, 16, 1, 1), (16, 3, 64, 1, 1)])
    def test_input_grad_is_the_adjoint(self, c_in, c_out, size, kp, kq, n, monkeypatch):
        rng = Rng([15, c_in, c_out, size, kq, n])
        x = rng.normal((n, c_in, size, size))
        filters = rng.normal((c_out, c_in, kp, kq), 0.2)
        g = rng.normal((n, c_out, size, size))
        out, gx, _ = self._input_grad(x, filters, g, monkeypatch)
        lhs, rhs = np.sum(out * g), np.sum(x * gx)
        assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(out * g))

        f32 = [a.astype(np.float32) for a in (x, filters, g)]
        _, gx32, banded = self._input_grad(*f32, monkeypatch)
        assert gx32.dtype == np.float32
        assert np.abs(gx32 - gx).max() <= 1e-4 * np.abs(gx).max()
        # the grad conv's input is g; it bands when its columns exceed the band size,
        # except at 1x1, where g is its own columns
        assert banded == (kp * kq > 1
                          and n * c_out * kp * kq * size * size * 4 > L._BAND_BYTES)
        if (c_in, c_out, size, n) == (16, 16, 64, 2):
            assert banded  # a training shape at batch 2 runs in several bands


class TestBatchNorm:
    def test_train_normalizes(self):
        rng = Rng(4)
        x = rng.tensor_normal((4, 3, 8, 8), scale=3.0)
        p = _bn_params(3)
        out = L.batch_norm(x, p).data
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0, atol=1e-10)
        assert np.allclose(out.var(axis=(0, 2, 3)), 1, atol=1e-4)

    def test_running_stats_update(self):
        rng = Rng(5)
        x = rng.tensor_normal((4, 2, 4, 4))
        p = _bn_params(2)
        L.batch_norm(x, p)
        m = x.data.mean(axis=(0, 2, 3))
        v = x.data.var(axis=(0, 2, 3))
        assert np.allclose(p.running_mean, 0.1 * m)
        assert np.allclose(p.running_var, 1 + 0.1 * (v - 1))

    def test_train_mode_ignores_a_per_channel_constant(self):
        # why the convs ahead of batch norm have no bias: the batch mean takes
        # up any per-channel shift, so a bias would move no output, and the
        # grad it would get, each channel's input-grad sum, is zero
        rng = Rng(7)
        x = rng.normal((3, 4, 5, 6), 2.0)
        g = Tensor4(rng.normal(x.shape), validate=False)
        outs, grads = [], []
        for data in (x, x + rng.normal((1, 4, 1, 1), 10.0)):
            t = Tensor4(data, requires_grad=True, validate=False)
            with Tape():
                out = L.batch_norm(t, _bn_params(4, Rng(8)))
                backward(sum_all(mul(out, g)))
            outs.append(out.data)
            grads.append(t.grad)
        assert outs[0].dtype == np.float64
        assert np.max(np.abs(outs[0] - outs[1])) <= 1e-12
        for gx in grads:
            sums = np.abs(gx.sum(axis=(0, 2, 3)))
            assert np.all(sums <= 1e-12 * np.abs(gx).sum(axis=(0, 2, 3)))

    def test_fold_matches_conv_then_running_stat_bn(self):
        # each folded conv equals its bias-free conv followed by an
        # inference-mode BN, (t - mean) / sqrt(var + eps) * gamma + beta,
        # written out by hand; the fold's bias is beta - mean * s
        rng = Rng(6)
        net = N.build("sa-re-dae", (3, 4), 3, rng, dtype=np.float64)
        blocks = net.encoders + net.decoders
        for blk in blocks:
            c = blk.bn.channels
            assert blk.conv.bias is None
            blk.bn.gamma.data = rng.normal((1, c, 1, 1))
            blk.bn.beta.data = rng.normal((1, c, 1, 1))
            blk.bn.running_mean[:] = rng.normal((c,), 2.0)
            blk.bn.running_var[:] = rng.uniform(1e-3, 4.0, (c,))
        folded = N.fold(net)
        for blk, fb in zip(blocks, folded.encoders + folded.decoders):
            assert fb.bn is None
            assert not (fb.conv.filters.requires_grad or fb.conv.bias.requires_grad)
            x = rng.tensor_normal((2, blk.conv.filters.shape[1], 8, 8))
            t = L.conv2d(x, blk.conv).data
            shape = (1, -1, 1, 1)
            ref = (t - blk.bn.running_mean.reshape(shape)) \
                / np.sqrt(blk.bn.running_var.reshape(shape) + blk.bn.epsilon) \
                * blk.bn.gamma.data + blk.bn.beta.data
            out = L.conv2d(x, fb.conv).data
            assert out.dtype == np.float64
            assert np.max(np.abs(out - ref)) <= 1e-12

    def test_train_needs_batch(self):
        p = _bn_params(1)
        with pytest.raises(ShapeError):
            L.batch_norm(Tensor4(np.ones((1, 1, 1, 1))), p)


class TestPoolingForward:
    def test_max_pool_values_and_offsets(self):
        x = Tensor4([[[[1, 5, 2, 2],
                       [3, 0, 2, 2]]]])
        out, idx = L.max_pool(x)
        assert out.data.reshape(-1).tolist() == [5.0, 2.0]
        # 5 sits at flat index 1 (row 0, col 1); the tied 2s pick their
        # window's first in row-major order, row 0, col 2: flat index 2
        assert idx.offsets.reshape(-1).tolist() == [1, 2]
        assert idx.offsets.dtype == np.intp

    def test_max_unpool_scatter(self):
        x = Tensor4([[[[1, 5, 2, 2],
                       [3, 0, 2, 2]]]])
        out, idx = L.max_pool(x)
        up = L.max_unpool(out, idx).data.reshape(-1).tolist()
        assert up == [0, 5, 2, 0,
                      0, 0, 0, 0]

    def test_avg_pool_values(self):
        x = Tensor4([[[[1, 2], [3, 6]]]])
        out = L.avg_pool(x)
        assert out.data.reshape(-1).tolist() == [3.0]

    def test_avg_upsample_replicates(self):
        y = Tensor4(np.full((1, 1, 1, 1), 7.0))
        up = L.avg_upsample(y)
        assert np.all(up.data == 7.0)

    def test_divisibility_error_mentions_padding(self):
        with pytest.raises(ShapeError, match="pad"):
            L.max_pool(Tensor4(np.ones((1, 1, 3, 4))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scatter_matches_per_window_loop(self, dtype):
        rng = Rng(12)
        values = rng.normal((2, 3, 4, 5)).astype(dtype)
        window = np.asarray(rng.integers(0, 4, (2, 3, 4, 5)))  # row-major 0..3
        ref = np.zeros((2, 3, 8, 10), dtype)
        offsets = np.empty(values.shape, np.intp)
        for idx in np.ndindex(values.shape):
            n, c, i, j = idx
            at = (n, c, 2 * i + window[idx] // 2, 2 * j + window[idx] % 2)
            ref[at] = values[idx]
            offsets[idx] = np.ravel_multi_index(at, ref.shape)
        out = L._scatter_2x2(values, check_window_indices(offsets))
        assert out.dtype == dtype and np.array_equal(out, ref)

    def test_indices_outside_their_window_rejected(self):
        x = Tensor4(np.arange(2 * 3 * 4 * 6, dtype=np.float64).reshape(2, 3, 4, 6))
        _, idx = L.max_pool(x)  # every window's max is its bottom-right corner
        for shift in (0, -1, -6, -7):  # to each corner of the same window
            moved = idx.offsets.copy()
            moved[1, 2, 1, 1] += shift
            check_window_indices(moved)
        for shift in (-8, -5, -2, 1, 2, 6, 12, 4 * 6, -(2**40)):
            bad = idx.offsets.copy()
            bad[1, 2, 1, 1] += shift  # into a neighbour window, or off the map
            with pytest.raises(ShapeError, match="window"):
                check_window_indices(bad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("values", [(0.0, 1.0), (-0.0, 0.0)])
    def test_every_two_valued_window_matches_per_window_loop(self, dtype, values):
        # the value is the window's last element equal to its max (the bits
        # tell -0.0 from +0.0), the index its first in row-major order
        windows = list(itertools.product(values, repeat=4))
        x = np.array(windows, dtype).reshape(len(windows), 1, 2, 2)
        out, idx = L.max_pool(Tensor4(x, validate=False))
        for k, win in enumerate(windows):
            top = max(win)
            first = next(i for i, v in enumerate(win) if v == top)
            last = max(i for i, v in enumerate(win) if v == top)
            assert out.data[k, 0, 0, 0].tobytes() == np.array(win[last], dtype).tobytes(), win
            assert idx.offsets[k, 0, 0, 0] == 4 * k + first, win

    def test_nan_window_rule(self):
        # NaN wins the value, but a comparison with NaN is false, so the left
        # column and the top row keep the index wherever a NaN takes part
        windows = [(np.nan, 1, 2, 3), (1, np.nan, 2, 3), (1, 2, np.nan, 3),
                   (1, 2, 3, np.nan), (np.nan,) * 4]
        x = np.array(windows, np.float32).reshape(len(windows), 1, 2, 2)
        out, idx = L.max_pool(Tensor4(x, validate=False))
        assert np.isnan(out.data).all()
        assert (idx.offsets.reshape(-1) - 4 * np.arange(len(windows))).tolist() == [0, 0, 1, 1, 0]

    @pytest.mark.parametrize("width", [2, 4, 6, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_avg_upsample_grad_bit_equals_numpy_window_sum(self, width, dtype):
        from redae.tensor import Tape, backward
        rng = Rng([17, width])
        y = Tensor4(np.zeros((2, 3, 5, width // 2), dtype), requires_grad=True)
        g = rng.normal((2, 3, 10, width)).astype(dtype)
        with Tape():
            up = L.avg_upsample(y)
            backward(sum_all(mul(up, Tensor4(g))))
        ref = g.reshape(2, 3, 5, 2, width // 2, 2).sum(axis=(3, 5))
        assert y.grad.dtype == dtype and y.grad.tobytes() == ref.tobytes()


def _tied(rng, shape, dtype):
    """Normal draws, about half replaced by 1.0, 0.0, -0.0 or NaN, so windows tie."""
    x = rng.normal(shape)
    special = np.array([1.0, 0.0, -0.0, np.nan])[np.asarray(rng.integers(0, 4, shape))]
    return np.where(np.asarray(rng.integers(0, 2, shape)) == 1, special, x).astype(dtype)


class TestHybridOps:
    """Both branches of `pool`/`unpool` at once are, byte for byte and grads included,
    the concatenation of the single-branch calls the network used to run."""

    SIZES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 4), (8, 6)]  # pooled (h, w)

    @staticmethod
    def _grad(fn, x, g):
        """fn's output on a leaf holding x, and x's grad for the output grad g."""
        t = Tensor4(x, requires_grad=True, validate=False)
        with Tape():
            out = fn(t)
            y = out[0] if isinstance(out, tuple) else out
            backward(sum_all(mul(y, Tensor4(g, validate=False))))
        return out, t.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2])
    def test_hybrid_pool_is_avg_max_concat(self, n, dtype):
        def composed(t):
            mx, idx = L.max_pool(t)  # in the order network.forward ran them
            return L.concat_channels(L.avg_pool(t), mx), idx

        for h, w in self.SIZES:
            rng = Rng([31, n, h, w])
            x = _tied(rng, (n, 3, 2 * h, 2 * w), dtype)
            g = rng.normal((n, 6, h, w)).astype(dtype)
            (out, idx), gx = self._grad(lambda t: L.pool(t, True, True), x, g)
            (ref, ref_idx), ref_gx = self._grad(composed, x, g)
            assert out.data.dtype == gx.dtype == dtype
            assert out.data.tobytes() == ref.data.tobytes(), (h, w)
            assert np.array_equal(idx.offsets, ref_idx.offsets)
            assert gx.tobytes() == ref_gx.tobytes(), (h, w)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2])
    def test_hybrid_unpool_is_unpool_upsample_concat(self, n, dtype):
        for h, w in self.SIZES:  # (., 1) gives avg_upsample a width-2 grad
            rng = Rng([32, n, h, w])
            _, idx = L.max_pool(Tensor4(_tied(rng, (n, 3, 2 * h, 2 * w), dtype), validate=False))
            y = _tied(rng, (n, 3, h, w), dtype)
            g = rng.normal((n, 6, 2 * h, 2 * w)).astype(dtype)
            out, gy = self._grad(lambda t: L.unpool(t, idx, True), y, g)
            ref, ref_gy = self._grad(
                lambda t: L.concat_channels(L.max_unpool(t, idx), L.avg_upsample(t)), y, g)
            assert out.data.dtype == gy.dtype == dtype
            assert out.data.tobytes() == ref.data.tobytes(), (h, w)
            assert gy.tobytes() == ref_gy.tobytes(), (h, w)

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="pad"):
            L.pool(Tensor4(np.ones((1, 1, 4, 3))), True, True)
        _, idx = L.max_pool(Tensor4(np.ones((1, 2, 4, 4))))
        with pytest.raises(ShapeError, match="index shape"):
            L.unpool(Tensor4(np.ones((1, 1, 2, 2))), idx, True)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(),
       st.integers(1, 2), st.integers(1, 3), st.integers(1, 5), st.integers(1, 5),
       st.sampled_from([np.float32, np.float64]))
def test_pool_offsets_pass_the_window_check(seed, avg, n, c, h, w, dtype):
    # pool checks no index it memorizes, with or without the average branch;
    # this property does: every offset it returns lies in its window
    x = _tied(Rng(seed), (n, c, 2 * h, 2 * w), dtype)
    _, idx = L.pool(Tensor4(x, validate=False), avg, True)
    check_window_indices(idx.offsets)


class TestPoolingAlgebra:
    """Exact pooling laws on 1,000 seeded random tensors."""

    N_CASES = 1000

    def _cases(self):
        rng = Rng(0xA15EED)
        for i in range(self.N_CASES):
            r = rng.child(i)
            n = int(r.integers(1, 3))
            c = int(r.integers(1, 4))
            h = 2 * int(r.integers(1, 5))
            w = 2 * int(r.integers(1, 5))
            yield r.tensor_normal((n, c, h, w))

    def test_avg_pool_of_avg_upsample_is_identity(self):
        for x in self._cases():
            y = L.avg_pool(x)
            back = L.avg_pool(L.avg_upsample(y))
            assert np.array_equal(back.data, y.data)

    def test_unpool_round_trip_and_sparsity(self):
        for signed in self._cases():
            # the round-trip law needs non-negative inputs (real use is after
            # ReLU): for a negative window max, the scattered zeros win
            x = Tensor4(np.abs(signed.data))
            y, idx = L.max_pool(x)
            up = L.max_unpool(y, idx)
            # pooling the unpooled map recovers the maxima exactly
            y2, _ = L.max_pool(up)
            assert np.array_equal(y2.data, y.data)
            # exactly one nonzero entry per window unless the max is 0
            win = up.data.reshape(x.shape[0], x.shape[1], x.shape[2] // 2, 2,
                                  x.shape[3] // 2, 2)
            nz = (win != 0).sum(axis=(3, 5))
            assert np.all(nz <= 1)
            assert np.all((nz == 1) | (y.data == 0))

    def test_avg_never_exceeds_max(self):
        for x in self._cases():
            mx, _ = L.max_pool(x)
            av = L.avg_pool(x)
            assert np.all(av.data <= mx.data)


class TestConcatSoftmax:
    def test_concat_order_and_values(self):
        a = Tensor4(np.full((1, 2, 2, 2), 1.0))
        b = Tensor4(np.full((1, 3, 2, 2), 2.0))
        out = L.concat_channels(a, b)
        assert out.shape == (1, 5, 2, 2)
        assert np.all(out.data[:, :2] == 1.0) and np.all(out.data[:, 2:] == 2.0)

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ShapeError):
            L.concat_channels(Tensor4(np.ones((1, 1, 2, 2))),
                              Tensor4(np.ones((1, 1, 2, 3))))

    def test_softmax_rows_sum_to_one(self):
        rng = Rng(8)
        p = L.softmax_pixels(rng.tensor_normal((2, 3, 4, 4), scale=5.0))
        assert np.allclose(p.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p.data > 0)

    def test_softmax_shift_invariant(self):
        rng = Rng(9)
        x = rng.tensor_normal((1, 3, 2, 2))
        shifted = Tensor4(x.data + 1000.0)
        assert np.allclose(L.softmax_pixels(x).data,
                           L.softmax_pixels(shifted).data, atol=1e-12)


class TestCrossEntropy:
    def test_uniform_probabilities_give_ln3(self):
        probs = Tensor4(np.full((1, 3, 4, 4), 1.0 / 3.0))
        labels = np.zeros((1, 4, 4), dtype=np.int64)
        loss = L.weighted_cross_entropy(probs, labels, L.ClassWeights.unit(3))
        assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)

    def test_weight_scale_invariance(self):
        rng = Rng(10)
        probs = L.softmax_pixels(rng.tensor_normal((1, 3, 4, 4)))
        labels = np.asarray(Rng(11).integers(0, 3, (1, 4, 4)), dtype=np.int64)
        base = L.weighted_cross_entropy(probs, labels,
                                        L.ClassWeights([1, 2, 5])).item()
        scaled = L.weighted_cross_entropy(probs, labels,
                                          L.ClassWeights([10, 20, 50])).item()
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_bad_label_reports_pixel(self):
        labels = np.zeros((1, 2, 2), dtype=np.int64)
        labels[0, 1, 0] = 7
        with pytest.raises(DataError, match=r"\(0, 1, 0\)"):
            L.check_labels(labels, 3)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(DataError):
            L.ClassWeights([1.0, 0.0, 2.0])


# ---------------------------------------------------------------------------
# Gradient checks: every layer, 10 seeded random inputs each, <= 60 s total


def _layer_grad_cases():
    """(name, factory) pairs; factory(rng) -> (f, x) for grad_check."""

    def conv_case(rng):
        p = _conv_params(rng, 3, 2, 3)
        return (lambda t: sum_all(mul(L.conv2d(t, p), L.conv2d(t, p))),
                rng.tensor_normal((2, 3, 8, 8)))

    def conv_filters_case(rng):
        x = rng.tensor_normal((2, 3, 6, 6))
        bias = Tensor4(rng.normal((1, 2, 1, 1)), validate=False)

        def f(t):
            p = L.ConvParams(t, bias)
            return sum_all(mul(L.conv2d(x, p), L.conv2d(x, p)))
        return f, Tensor4(rng.normal((2, 3, 3, 3), 0.4), validate=False)

    def conv1x1_case(rng):
        p = _conv_params(rng, 3, 2, 1)
        return (lambda t: sum_all(mul(L.conv2d(t, p), L.conv2d(t, p))),
                rng.tensor_normal((2, 3, 8, 8)))

    def relu_case(rng):
        # keep values away from the kink at 0 so the numeric check is valid
        x = rng.tensor_normal((2, 3, 8, 8))
        x.data[np.abs(x.data) < 0.05] = 0.1
        return lambda t: sum_all(mul(L.relu(t), L.relu(t))), x

    def bn_train_case(rng):
        p = _bn_params(3, rng)
        return (lambda t: sum_all(mul(L.batch_norm(t, p), L.batch_norm(t, p))),
                rng.tensor_normal((2, 3, 8, 8)))

    def max_pool_case(rng):
        def f(t):
            y, _ = L.max_pool(t)
            return sum_all(mul(y, y))
        return f, rng.tensor_normal((2, 3, 8, 8))

    def max_unpool_case(rng):
        def f(t):
            y, idx = L.max_pool(t)
            up = L.max_unpool(y, idx)
            return sum_all(mul(up, up))
        return f, rng.tensor_normal((2, 3, 8, 8))

    def avg_pool_case(rng):
        return (lambda t: sum_all(mul(L.avg_pool(t), L.avg_pool(t))),
                rng.tensor_normal((2, 3, 8, 8)))

    def avg_upsample_case(rng):
        def f(t):
            up = L.avg_upsample(L.avg_pool(t))
            return sum_all(mul(up, up))
        return f, rng.tensor_normal((2, 3, 8, 8))

    def hybrid_pool_case(rng):
        def f(t):
            y, _ = L.pool(t, True, True)
            return sum_all(mul(y, y))
        return f, rng.tensor_normal((2, 3, 8, 8))

    def hybrid_unpool_case(rng):
        _, idx = L.max_pool(rng.tensor_normal((2, 3, 8, 8)))

        def f(t):
            up = L.unpool(t, idx, True)
            return sum_all(mul(up, up))
        return f, rng.tensor_normal((2, 3, 4, 4))

    def concat_case(rng):
        def f(t):
            c = L.concat_channels(t, t)
            return sum_all(mul(c, c))
        return f, rng.tensor_normal((2, 3, 8, 8))

    def softmax_ce_case(rng):
        labels = np.asarray(rng.integers(0, 3, (2, 8, 8)), dtype=np.int64)
        w = L.ClassWeights(1.0 + rng.uniform(0.0, 2.0, (3,)))

        def f(t):
            return L.weighted_cross_entropy(L.softmax_pixels(t), labels, w)
        return f, rng.tensor_normal((2, 3, 8, 8))

    return [
        ("conv2d", conv_case),
        ("conv2d_filters", conv_filters_case),
        ("conv2d_1x1", conv1x1_case),
        ("relu", relu_case),
        ("batch_norm_train", bn_train_case),
        ("max_pool", max_pool_case),
        ("max_unpool", max_unpool_case),
        ("avg_pool", avg_pool_case),
        ("avg_upsample", avg_upsample_case),
        ("hybrid_pool", hybrid_pool_case),
        ("hybrid_unpool", hybrid_unpool_case),
        ("concat_channels", concat_case),
        ("softmax_cross_entropy", softmax_ce_case),
    ]


@pytest.mark.parametrize("name,factory", _layer_grad_cases(),
                         ids=[n for n, _ in _layer_grad_cases()])
def test_layer_gradients(name, factory):
    start = time.monotonic()
    worst = 0.0
    for trial in range(10):
        rng = Rng([0xC4AD, trial])
        f, x = factory(rng)
        worst = max(worst, grad_check(f, x))
    assert worst <= GRAD_TOL, f"{name}: worst grad error {worst}"
    assert time.monotonic() - start < 60


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_max_pool_grad_routes_to_argmax_only(seed):
    rng = Rng(seed)
    x = rng.tensor_normal((1, 2, 4, 4), requires_grad=True)
    from redae.tensor import Tape, backward
    with Tape():
        y, idx = L.max_pool(x)
        backward(sum_all(y))
    win = x.grad.reshape(1, 2, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    win = win.reshape(1, 2, 2, 2, 4)
    # each window's gradient is a one-hot at the memorized flat index
    assert np.all(win.sum(axis=-1) == 1.0)
    assert np.all(x.grad.reshape(-1)[idx.offsets] == 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_grad_at_and_around_the_kink(dtype):
    # backward passes g through where x > 0 and gives 0 at x == 0 (either
    # sign of zero) and below
    from redae.tensor import Tape, backward
    x = Tensor4(np.array([-2.0, -0.0, 0.0, 1e-30, 3.0, -1e-30], dtype).reshape(1, 1, 2, 3),
                requires_grad=True)
    g = Tensor4(np.arange(5.0, 11.0, dtype=dtype).reshape(1, 1, 2, 3))
    with Tape():
        backward(sum_all(mul(L.relu(x), g)))
    assert x.grad.dtype == dtype
    np.testing.assert_array_equal(x.grad.reshape(-1), np.array([0, 0, 0, 8, 9, 0], dtype))
