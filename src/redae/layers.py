"""Primitive network layers: convolution, batch norm, pooling, fusion, loss.

All layers are pure functions over (input, params), except batch norm,
which runs only in training and updates its running statistics;
inference reads those through the convs that absorb them (`network.fold`).
Each layer hands its backward closure `bwd(g)` to `make_op_output`, which
records it on the active tape. Every op computes in its input's dtype
(float32 or float64), params included, so nothing upcasts. Step arrays
(padded inputs, im2col columns, outputs, grads) come from `tensor.empty`,
which a training run serves from its step arena (`BufferPool`), so none
may outlive its step: a parameter's grad is always a fresh array. A
backward closure owns the grad it is handed and writes into it where it can.
Convolutions zero-pad to keep the spatial size ("same"); one op serves
every odd kernel size, its input grad being the conv of the output grad
with the flipped filters. A 1x1 conv's input is its own im2col columns, so
it never pads or bands. A larger conv copies its im2col columns out of its
zero-padded input in row bands of at most `_BAND_BYTES`, one strided view
per band, and multiplies each band straight into its rows of the output; a
recorded conv builds all its columns in one band, as its backward reads them.
Pooling uses the paper's non-overlapping 2x2 windows with stride 2. One op
pair serves every variant: `pool` writes the window means and/or the window
maxima, `unpool` the values put back at the maxima's memorized flat indices
and/or replicated over each window, each into one channel-concatenated map
(mixed pooling, Lee et al. 2016; index unpooling, SegNet). `max_pool`,
`avg_pool`, `max_unpool` and `avg_upsample` are its single-branch calls.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DataError, NumericError, ShapeError
from .tensor import Tensor4, empty, make_op_output, tracks_grad

# ---------------------------------------------------------------------------
# Parameter containers


@dataclass
class ConvParams:
    """2D convolution parameters: filters (c_out, c_in, p, q) and bias (c_out)."""

    filters: Tensor4
    bias: Tensor4  # stored as (1, c_out, 1, 1)

    def __post_init__(self):
        c_out, _c_in, p, q = self.filters.shape
        if p % 2 == 0 or q % 2 == 0:
            raise ShapeError(f"'same' padding requires odd filter dims, got {p}x{q}")
        if self.bias.shape != (1, c_out, 1, 1):
            raise ShapeError(f"bias shape {self.bias.shape} does not match {c_out} filters")


@dataclass
class PoolIndices:
    """Flat index, into the pooled input, of each 2x2 window's max; shaped like the pooled map."""

    offsets: np.ndarray  # intp, shape (n, c, oh, ow)
    validate: InitVar[bool] = True  # False skips the window check, as for `Tensor4`

    def __post_init__(self, validate):
        if self.offsets.ndim != 4:
            raise ShapeError(f"pool indices must be rank 4, got {self.offsets.shape}")
        if validate:
            # an index lies in its window iff, less the window's first element,
            # it is 0, 1, w or w + 1; w is even, so clearing bit 0 leaves 0 or w
            w = 2 * self.offsets.shape[3]
            rel = _window_starts(self.offsets.shape)
            np.subtract(self.offsets, rel, out=rel)
            rel &= -2
            if np.count_nonzero(rel) != np.count_nonzero(rel == w):
                raise ShapeError("pool index outside its window")


@dataclass
class BatchNormParams:
    """Per-channel affine normalization with running statistics.

    Running variance is tracked with the biased batch estimate.
    """

    gamma: Tensor4  # (1, c, 1, 1)
    beta: Tensor4  # (1, c, 1, 1)
    running_mean: np.ndarray = field(default=None)  # (c,)
    running_var: np.ndarray = field(default=None)  # (c,)
    epsilon: float = 1e-5
    momentum: float = 0.1

    def __post_init__(self):
        c = self.gamma.shape[1]
        if self.beta.shape != self.gamma.shape:
            raise ShapeError("gamma/beta shape mismatch")
        dtype = self.gamma.data.dtype  # running stats follow the params' dtype
        if self.running_mean is None:
            self.running_mean = np.zeros(c, dtype)
        if self.running_var is None:
            self.running_var = np.ones(c, dtype)
        if np.any(self.running_var < 0):
            raise NumericError("running variance must be nonnegative")

    @property
    def channels(self) -> int:
        return self.gamma.shape[1]


@dataclass
class ClassWeights:
    """Strictly positive per-class pixel weights for the loss."""

    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(self.w)) or np.any(self.w <= 0):
            raise DataError("class weights must be finite and strictly positive")

    @staticmethod
    def unit(classes: int) -> "ClassWeights":
        return ClassWeights(np.ones(classes))


# ---------------------------------------------------------------------------
# Convolution

# fastest at 304x304, and no 64x64 batch-1 conv splits. Also a byte-identity
# condition: with OpenBLAS 0.3.31 the banded conv equals the recorded conv's
# bytes at this value, not at 1 MiB or 256 KiB (OpenBLAS picks a GEMM's kernels
# by its column count); test_banded_equals_recorded_at_the_network_shapes pins it
_BAND_BYTES = 4 << 20


def _same_conv(x: np.ndarray, filters: np.ndarray, keep_cols: bool):
    """(out, cols): x cross-correlated with (c_out, c_in, p, q) filters, 'same', no bias.

    cols are all x's (n, k, h * w) im2col columns if they were built in one band, as
    they are when `keep_cols` or when they fit in `_BAND_BYTES`; otherwise None. A 1x1
    filter's columns are x itself, reshaped."""
    n, c_in, h, w = x.shape
    c_out, _, kp, kq = filters.shape
    if kp == 1 and kq == 1:
        out = empty((n, c_out, h, w), x.dtype)
        cols = x.reshape(n, c_in, h * w)
        np.matmul(filters.reshape(c_out, c_in), cols, out=out.reshape(n, c_out, h * w))
        return out, cols

    ph, pw = (kp - 1) // 2, (kq - 1) // 2
    xp = empty((n, c_in, h + 2 * ph, w + 2 * pw), x.dtype)
    xp[:, :, :ph] = 0
    xp[:, :, ph + h:] = 0
    xp[:, :, ph:ph + h, :pw] = 0
    xp[:, :, ph:ph + h, pw + w:] = 0
    xp[:, :, ph:ph + h, pw:pw + w] = x
    k = c_in * kp * kq
    wmat = filters.reshape(c_out, k)
    bands = 1 if keep_cols else -(-n * k * h * w * x.dtype.itemsize // _BAND_BYTES)
    rows = -(-h // bands)
    buf = empty((n * k * rows * w,), x.dtype)
    # taken last: taken before buf, it left predict's peak RSS ~11 MB higher (glibc heap layout)
    out = empty((n, c_out, h, w), x.dtype)
    # tap (i, j)'s columns for output rows r0..r0+r are the r x w window of each padded
    # plane at row r0 + i, column j, so one strided view copies every tap of a band
    sn, sc, sh, item = xp.strides
    for r0 in range(0, h, rows):
        r = min(rows, h - r0)
        cols = buf[:n * k * r * w].reshape(n, k, r * w)
        cols.reshape(n, c_in, kp, kq, r, w)[...] = as_strided(
            xp[:, :, r0:], (n, c_in, kp, kq, r, w), (sn, sc, sh, item, sh, item))
        np.matmul(wmat, cols, out=out[:, :, r0:r0 + r].reshape(n, c_out, r * w))
    return out, cols if rows == h else None


def conv2d(x: Tensor4, p: ConvParams) -> Tensor4:
    """Stride-1 2D convolution (cross-correlation) with zero 'same' padding."""
    n, c_in, h, w = x.shape
    c_out, c_in_f, kp, kq = p.filters.shape
    if c_in != c_in_f:
        raise ShapeError(f"conv2d: input has {c_in} channels, filters expect {c_in_f}")
    out, cols = _same_conv(x.data, p.filters.data, tracks_grad((x, p.filters, p.bias)))
    out += p.bias.data

    def bwd(g):
        if p.bias.requires_grad:
            p.bias.accumulate_grad(g.sum(axis=(0, 2, 3)).reshape(1, c_out, 1, 1))
        if p.filters.requires_grad:
            gw = np.matmul(g.reshape(n, c_out, h * w), cols.transpose(0, 2, 1)).sum(axis=0)
            p.filters.accumulate_grad(gw.reshape(c_out, c_in, kp, kq))
        if x.requires_grad:
            # a 'same' conv's input grad: g conv the flipped filters, c_in and c_out swapped
            flipped = np.ascontiguousarray(p.filters.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
            x.accumulate_grad(_same_conv(g, flipped, False)[0], own=True)

    return make_op_output(out, (x, p.filters, p.bias), bwd)


# ---------------------------------------------------------------------------
# Activation


def relu(x: Tensor4) -> Tensor4:
    """max(0, x) elementwise; subgradient at exactly 0 is 0."""

    def bwd(g):
        if x.requires_grad:
            g *= x.data > 0
            x.accumulate_grad(g, own=True)

    out = np.maximum(x.data, 0.0, out=empty(x.shape, x.data.dtype))
    return make_op_output(out, (x,), bwd)


# ---------------------------------------------------------------------------
# Batch normalization


def batch_norm(x: Tensor4, p: BatchNormParams) -> Tensor4:
    """Normalize with the batch's statistics and update the running statistics."""
    n, c, h, w = x.shape
    if c != p.channels:
        raise ShapeError(f"batch_norm: input has {c} channels, params expect {p.channels}")
    if n * h * w < 2:
        raise ShapeError("batch_norm in training needs >= 2 values per channel")
    axes = (0, 2, 3)
    mean = x.data.mean(axis=axes)
    var = x.data.var(axis=axes)
    p.running_mean += p.momentum * (mean - p.running_mean)
    p.running_var += p.momentum * (var - p.running_var)

    inv_std = 1.0 / np.sqrt(var + p.epsilon)
    xhat = np.subtract(x.data, mean.reshape(1, c, 1, 1), out=empty(x.shape, x.data.dtype))
    xhat *= inv_std.reshape(1, c, 1, 1)
    out = np.multiply(xhat, p.gamma.data, out=empty(x.shape, x.data.dtype))
    out += p.beta.data

    def bwd(g):
        if p.beta.requires_grad:
            p.beta.accumulate_grad(g.sum(axis=axes).reshape(1, c, 1, 1))
        if p.gamma.requires_grad:
            p.gamma.accumulate_grad((g * xhat).sum(axis=axes).reshape(1, c, 1, 1))
        if x.requires_grad:
            # in place, in the order of inv_std * (g * gamma - m1 - xhat * m2);
            # g and xhat are not read again
            gk = g
            gk *= p.gamma.data
            m1 = gk.mean(axis=axes).reshape(1, c, 1, 1)
            m2 = (gk * xhat).mean(axis=axes).reshape(1, c, 1, 1)
            gk -= m1
            gk -= np.multiply(xhat, m2, out=xhat)
            gk *= inv_std.reshape(1, c, 1, 1)
            x.accumulate_grad(gk, own=True)

    return make_op_output(out, (x, p.gamma, p.beta), bwd)


# ---------------------------------------------------------------------------
# Pooling


def _window_starts(shape) -> np.ndarray:
    """Flat index of each 2x2 window's top-left element in the (n, c, 2oh, 2ow) input."""
    n, c, oh, ow = shape
    out = empty(shape, np.intp)
    np.add(np.arange(0, n * c * oh * 4 * ow, 4 * ow)[:, None], np.arange(0, 2 * ow, 2),
           out=out.reshape(n * c * oh, ow))
    return out


def _scatter_2x2(values: np.ndarray, offsets: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Zero `out` (new if None; each out[b] contiguous), then put values at their flat indices."""
    n, c, oh, ow = values.shape
    if out is None:
        out = empty((n, c, oh * 2, ow * 2), values.dtype)
    out[...] = 0
    if out.flags.c_contiguous:
        out.reshape(-1)[offsets] = values
    else:  # sample b's indices start at b * c * 4 * oh * ow
        for b in range(n):
            out[b].reshape(-1)[offsets[b] - b * c * 4 * oh * ow] = values[b]
    return out


def _replicate_2x2(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Copy each value across its 2x2 window of `out` (new if None): four strided writes."""
    n, c, h, w = values.shape
    if out is None:
        out = empty((n, c, h * 2, w * 2), values.dtype)
    for i in range(2):
        for j in range(2):
            out[:, :, i::2, j::2] = values
    return out


def _sum_2x2(g: np.ndarray) -> np.ndarray:
    """Each 2x2 window's sum, in numpy's `sum(axis=(3, 5))` order; may overwrite g."""
    n, c, h, w = g.shape
    a = g.reshape(n, c, h // 2, 2, w // 2, 2)
    if w == 2:  # numpy sums a width-2 grad in another order
        return a.sum(axis=(3, 5))
    # (a00 + a01) + (a10 + a11), numpy's order at other widths
    total = np.add(a[:, :, :, 0, :, 0], a[:, :, :, 0, :, 1])
    total += np.add(a[:, :, :, 1, :, 0], a[:, :, :, 1, :, 1], out=a[:, :, :, 1, :, 0])
    return total


def _avg_2x2(x: np.ndarray, out: np.ndarray) -> None:
    """Window means into `out`: ((a00 + a01) + a10 + a11) * 0.25."""
    np.add(x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2], out=out)
    out += x[:, :, 1::2, 0::2]
    out += x[:, :, 1::2, 1::2]
    out *= 0.25


def _max_2x2(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Window maxima into `out`; returns the flat index, into x, of each.

    Two pairwise stages: left vs right column, then top vs bottom row of
    the column maxima. A strict `>` keeps the left and the top on ties.
    """
    left, right = x[:, :, :, 0::2], x[:, :, :, 1::2]
    cols = np.maximum(left, right)
    right_wins = np.greater(right, left)
    top, bottom = cols[:, :, 0::2], cols[:, :, 1::2]
    np.maximum(top, bottom, out=out)
    bottom_wins = np.greater(bottom, top)
    # the winning row's column bit, by bit ops: a select on random
    # bools (np.where, where=) mispredicts branches and runs ~10x slower
    top_right, bottom_right = right_wins[:, :, 0::2], right_wins[:, :, 1::2]
    offsets = _window_starts(top.shape)
    offsets += top_right ^ (bottom_wins & (top_right ^ bottom_right))
    offsets += bottom_wins * x.shape[3]
    return offsets


def pool(x: Tensor4, avg: bool, mx: bool) -> tuple[Tensor4, PoolIndices | None]:
    """Window means (if `avg`), then window maxima (if `mx`), channel-concatenated.

    Returns the map and the maxima's memorized flat indices (None without `mx`);
    ties pick the first in row-major order. The grads add in that order too.
    """
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(
            f"pool: spatial dims {h}x{w} not divisible by window 2; "
            "pad the input first (see data.pad_to_multiple)")
    out = empty((n, (avg + mx) * c, h // 2, w // 2), x.data.dtype)
    if avg:
        _avg_2x2(x.data, out[:, :c])
    offsets = _max_2x2(x.data, out[:, c * avg:]) if mx else None

    def bwd(g):
        if x.requires_grad:
            gx = _replicate_2x2(g[:, :c] / 4) if avg else None
            if mx:
                gm = _scatter_2x2(g[:, c * avg:], offsets)
                gx = gm if gx is None else np.add(gx, gm, out=gx)
            x.accumulate_grad(gx, own=True)

    return make_op_output(out, (x,), bwd), PoolIndices(offsets, validate=False) if mx else None


def unpool(y: Tensor4, idx: PoolIndices | None, avg: bool) -> Tensor4:
    """y put back at `idx` (if given), then y replicated over each window (if `avg`).

    Channel-concatenated; the first map is zero off `idx`, and the second is the
    exact right-inverse of average pooling. The grads add in the reverse order.
    """
    if idx is not None and y.shape != idx.offsets.shape:
        raise ShapeError(f"unpool: value shape {y.shape} vs index shape {idx.offsets.shape}")
    n, c, h, w = y.shape
    mx = idx is not None
    out = empty((n, (mx + avg) * c, 2 * h, 2 * w), y.data.dtype)
    if mx:
        _scatter_2x2(y.data, idx.offsets, out[:, :c])
    if avg:
        _replicate_2x2(y.data, out[:, c * mx:])

    def bwd(g):
        if y.requires_grad:
            gy = _sum_2x2(g[:, c * mx:]) if avg else None
            if mx:
                gm = np.take(g[:, :c], idx.offsets)
                gy = gm if gy is None else np.add(gy, gm, out=gy)
            y.accumulate_grad(gy, own=True)

    return make_op_output(out, (y,), bwd)


def max_pool(x: Tensor4) -> tuple[Tensor4, PoolIndices]:
    return pool(x, False, True)


def avg_pool(x: Tensor4) -> Tensor4:
    return pool(x, True, False)[0]


def max_unpool(y: Tensor4, idx: PoolIndices) -> Tensor4:
    return unpool(y, idx, False)


def avg_upsample(y: Tensor4) -> Tensor4:
    return unpool(y, None, True)


def concat_channels(a: Tensor4, b: Tensor4) -> Tensor4:
    na, ca, ha, wa = a.shape
    nb, cb, hb, wb = b.shape
    if (na, ha, wa) != (nb, hb, wb):
        raise ShapeError(f"concat_channels: batch/spatial mismatch {a.shape} vs {b.shape}")

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g[:, :ca])
        if b.requires_grad:
            b.accumulate_grad(g[:, ca:])

    out = empty((na, ca + cb, ha, wa), np.result_type(a.data, b.data))
    return make_op_output(np.concatenate([a.data, b.data], axis=1, out=out), (a, b), bwd)


# ---------------------------------------------------------------------------
# Classification head


def softmax_pixels(logits: Tensor4) -> Tensor4:
    """Per-pixel softmax over channels, max-subtracted for stability."""
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        if logits.requires_grad:
            dot = (g * probs).sum(axis=1, keepdims=True)
            logits.accumulate_grad(probs * (g - dot), own=True)

    return make_op_output(probs, (logits,), bwd)


def check_labels(labels: np.ndarray, classes: int) -> np.ndarray:
    """Validate an integer label mask against the class count."""
    labels = np.asarray(labels)
    bad = (labels < 0) | (labels >= classes)
    if bad.any():
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise DataError(f"label {int(labels[where])} out of range [0, {classes}) at pixel {where}")
    return labels.astype(np.int64)


def weighted_cross_entropy(probs: Tensor4, labels: np.ndarray, w: ClassWeights) -> Tensor4:
    """Class-weighted pixel cross-entropy, normalized by total pixel weight.

    loss = -(sum_pixels w[label] * ln probs[label]) / (sum_pixels w[label]),
    so rescaling all class weights by a common factor leaves the loss (and
    its gradients) unchanged.
    """
    n, c, h, wdt = probs.shape
    labels = check_labels(labels, c)
    if labels.shape != (n, h, wdt):
        raise ShapeError(f"labels shape {labels.shape} does not match probs {probs.shape}")

    pw = w.w.astype(probs.data.dtype)[labels]  # (n, h, w)
    total_w = pw.sum()
    p_label = np.take_along_axis(probs.data, labels[:, None], axis=1)[:, 0]
    with np.errstate(divide="ignore"):  # log(0) -> -inf; the caller handles it
        loss = -(pw * np.log(p_label)).sum() / total_w

    def bwd(g):
        if probs.requires_grad:
            gs = g.reshape(-1)[0]
            gp = np.zeros(probs.shape, g.dtype)
            np.put_along_axis(gp, labels[:, None], (-gs * pw / (p_label * total_w))[:, None], axis=1)
            probs.accumulate_grad(gp, own=True)

    return make_op_output(loss.reshape(1, 1, 1, 1), (probs,), bwd)
