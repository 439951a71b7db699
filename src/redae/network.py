"""Two-encoder / two-decoder segmentation networks.

Four variants share the conv/BN/ReLU trunk and differ only in the row of
`PLANS` that `build`, `forward` and `optim.train` read:

* ``re-dae`` / ``sa-re-dae`` - hybrid: each encoder's `pool` writes an
  average branch and a max branch (indices memorized) into one channel
  concat, average first, fused by a learned 1x1 convolution. Decoders mirror
  it with `unpool`: index unpooling, then replication upsampling.
  ``sa-re-dae`` adds static attention: median-frequency class weights.
* ``max-only`` - max pooling and index unpooling only (mini SegNet).
* ``avg-only`` - average pooling and replication upsampling only.

Decoders run in reverse encoder order: the first decoder consumes the
indices of the last encoder. Every pooling window is the paper's 2x2 with
stride 2, so each encoder halves the spatial size and an input's height and
width must be multiples of `Network.input_multiple` (4 for two encoders).

A network computes in one dtype, fixed by `build`: float32 for training and
inference, float64 for gradient checks. `forward` converts its input to that
dtype once, so callers may pass the float64 arrays of the data pipeline.
Blocks run conv -> BN -> ReLU in training; inference runs conv -> ReLU on
the copy `fold` makes, each BN folded into its conv. Those 3x3 convs train
no bias: BN subtracts the batch mean, which cancels one (Ioffe & Szegedy
2015, section 3.2); the folded conv gets the bias beta - running_mean * s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ShapeError
from .layers import (BatchNormParams, ClassWeights, ConvParams, batch_norm,
                     conv2d, pool, relu, softmax_pixels, unpool,
                     weighted_cross_entropy)
from .layers import (avg_pool, avg_upsample, concat_channels, max_pool,  # noqa: F401
                     max_unpool)  # perfbench's tracer wraps these here
from .tensor import FLOAT_DTYPES, Rng, Tensor4, astype

# variant -> (average branch, max branch, static attention). With both branches
# a block pools into one (average, max) concat that a 1x1 conv fuses; static
# attention weights the loss by median class frequency (`optim.train`)
PLANS = {
    "re-dae": (True, True, False),
    "sa-re-dae": (True, True, True),
    "max-only": (False, True, False),
    "avg-only": (True, False, False),
}
VARIANTS = tuple(PLANS)


@dataclass
class Block:
    """Encoder: conv -> BN -> ReLU -> pool -> fuse. Decoder: unpool -> fuse -> conv -> BN -> ReLU."""

    conv: ConvParams  # 3x3; no bias, as BN follows
    bn: BatchNormParams | None  # None once folded into conv
    fuse: ConvParams | None  # 1x1, 2c -> c; None for single-branch variants


@dataclass
class Network:
    variant: str
    in_channels: int
    widths: tuple[int, ...]
    classes: int
    encoders: list[Block]
    decoders: list[Block]  # reverse order: decoders[0] mirrors encoders[-1]
    head: ConvParams
    class_weights: ClassWeights

    @property
    def dtype(self) -> np.dtype:
        """Compute dtype of every parameter, buffer, activation and grad."""
        return self.head.filters.data.dtype

    @property
    def input_multiple(self) -> int:
        """Input height and width must divide by this: each encoder halves them."""
        return 2 ** len(self.encoders)


def _param(values: np.ndarray, dtype) -> Tensor4:
    return Tensor4(values.astype(dtype), requires_grad=True, validate=False)


def _zeros(c: int, dtype) -> Tensor4:
    return _param(np.zeros((1, c, 1, 1)), dtype)


def _he_filters(rng: Rng, c_in: int, c_out: int, k: int, dtype) -> Tensor4:
    return _param(rng.normal((c_out, c_in, k, k), np.sqrt(2.0 / (c_in * k * k))), dtype)


def _blend_fuse(rng: Rng, c: int, dtype) -> ConvParams:
    """1x1 fusion conv over a (branch_a, branch_b) channel concat.

    Initialized to average the two branches channel-for-channel (plus small
    noise to break symmetry), so the fused path starts as an unbiased blend
    and training reweights the branches instead of untangling a random mix.
    """
    std = 0.05 * np.sqrt(2.0 / (2 * c))
    w = rng.normal((c, 2 * c, 1, 1), std)
    for j in range(c):
        w[j, j, 0, 0] += 0.5
        w[j, c + j, 0, 0] += 0.5
    return ConvParams(_param(w, dtype), _zeros(c, dtype))


def _bn(c: int, dtype) -> BatchNormParams:
    return BatchNormParams(gamma=_param(np.ones((1, c, 1, 1)), dtype), beta=_zeros(c, dtype))


def build(variant: str, channels, classes: int, rng: Rng, in_channels: int = 1,
          dtype=np.float32) -> Network:
    """Construct a network with He-initialized filters, deterministic per seed.

    Parameters, batch-norm running statistics and (via `OptimizerState`) the
    optimizer velocities are all created in `dtype`. The initial values are
    drawn in float64 and rounded, so a float32 and a float64 build of the
    same seed start from the same point to float32 resolution.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    channels = tuple(int(c) for c in channels)
    if len(channels) != 2:
        raise ConfigError(f"expected 2 encoder widths, got {len(channels)}")
    if classes < 2:
        raise ConfigError(f"need at least 2 classes, got {classes}")
    if min(channels) < 1 or in_channels < 1:
        raise ConfigError(f"need widths and in_channels >= 1, got {channels}, {in_channels}")
    hybrid = all(PLANS[variant][:2])  # both branches on
    dtype = np.dtype(dtype)
    if dtype not in FLOAT_DTYPES:
        raise ConfigError(f"dtype must be float32 or float64, got {dtype}")

    def block(c_in: int, c_out: int, c_fuse: int) -> Block:
        fuse = _blend_fuse(rng, c_fuse, dtype) if hybrid else None  # drawn before the conv
        return Block(ConvParams(_he_filters(rng, c_in, c_out, 3, dtype)), _bn(c_out, dtype), fuse)

    c0, c1 = channels
    try:
        encoders = [block(in_channels, c0, c0), block(c0, c1, c1)]
        # decoders[0] mirrors encoders[-1]; the mirror of encoder 0 keeps width
        # c0 so the head sees a reasonable feature count
        decoders = [block(c1, c0, c1), block(c0, c0, c0)]
        head = ConvParams(_he_filters(rng, c0, classes, 1, dtype), _zeros(classes, dtype))
    except (MemoryError, ValueError) as e:  # numpy refusing an array this large
        raise ConfigError(f"widths {channels} are too large to allocate: {e}") from None
    return Network(variant=variant, in_channels=in_channels, widths=channels,
                   classes=classes, encoders=encoders, decoders=decoders, head=head,
                   class_weights=ClassWeights.unit(classes))


def _unfolded(net: Network) -> Network:
    if net.encoders[0].bn is None:
        raise ConfigError("the network is a folded inference copy, which cannot train or be saved")
    return net


def _blocks(net: Network) -> list[tuple[str, Block]]:
    """Each block of an unfolded network with its tensor-name prefix, `enc{i}` or `dec{i}`."""
    net = _unfolded(net)
    return ([(f"enc{i}", b) for i, b in enumerate(net.encoders)]
            + [(f"dec{i}", b) for i, b in enumerate(net.decoders)])


def named_parameters(net: Network) -> list[tuple[str, Tensor4]]:
    """Trainable tensors in a fixed, stable order."""
    out: list[tuple[str, Tensor4]] = []
    for prefix, b in _blocks(net):
        out += [(f"{prefix}.conv.filters", b.conv.filters),
                (f"{prefix}.bn.gamma", b.bn.gamma), (f"{prefix}.bn.beta", b.bn.beta)]
        if b.fuse is not None:
            out += [(f"{prefix}.fuse.filters", b.fuse.filters), (f"{prefix}.fuse.bias", b.fuse.bias)]
    return out + [("head.filters", net.head.filters), ("head.bias", net.head.bias)]


def named_buffers(net: Network) -> list[tuple[str, np.ndarray]]:
    """Non-trainable state (batch-norm running statistics)."""
    out: list[tuple[str, np.ndarray]] = []
    for prefix, b in _blocks(net):
        out += [(f"{prefix}.bn.running_mean", b.bn.running_mean),
                (f"{prefix}.bn.running_var", b.bn.running_var)]
    return out


def fold(net: Network) -> Network:
    """Inference copy of `net`, each BN folded into its conv; a folded copy is returned as is.

    With s = gamma / sqrt(running_var + epsilon), W' = W * s and b' = beta - running_mean * s,
    computed in float64 and rounded once; fuse, head and class weights are shared.
    """
    if net.encoders[0].bn is None:
        return net

    def folded(conv: ConvParams, bn: BatchNormParams) -> ConvParams:
        s = bn.gamma.data / np.sqrt(bn.running_var.astype(np.float64).reshape(1, -1, 1, 1) + bn.epsilon)
        b = bn.beta.data - bn.running_mean.astype(np.float64).reshape(s.shape) * s
        w = conv.filters.data * s.reshape(-1, 1, 1, 1)
        return ConvParams(*(Tensor4(a.astype(net.dtype), validate=False) for a in (w, b)))

    return replace(net, encoders=[replace(e, conv=folded(e.conv, e.bn), bn=None) for e in net.encoders],
                   decoders=[replace(d, conv=folded(d.conv, d.bn), bn=None) for d in net.decoders])


def forward(net: Network, x: Tensor4, train: bool = False) -> Tensor4:
    """Full-resolution class logits (n, classes, h, w), in the network's dtype.

    `train=True` (`loss`) runs batch norm on the batch's statistics and updates
    the running statistics; otherwise `forward` runs `fold(net)`, writing nothing.
    """
    net = _unfolded(net) if train else fold(net)
    n, c, h, w = x.shape
    if c != net.in_channels:
        raise ShapeError(f"forward: input has {c} channels, network expects {net.in_channels}")
    factor = net.input_multiple
    if h % factor or w % factor:
        raise ShapeError(
            f"forward: spatial dims {h}x{w} must be divisible by {factor}; "
            "use optim.segment, which pads images of any size")

    avg, mx, _ = PLANS[net.variant]
    indices = []
    t = astype(x, net.dtype)
    # rebinding t and popping each index lets inference free what it has read
    for enc in net.encoders:
        t = conv2d(t, enc.conv)  # a folded copy has no BN: it is in the conv
        t = relu(t if enc.bn is None else batch_norm(t, enc.bn))
        t, idx = pool(t, avg, mx)
        indices.append(idx)
        if enc.fuse is not None:
            t = conv2d(t, enc.fuse)

    for dec in net.decoders:
        t = unpool(t, indices.pop(), avg)
        if dec.fuse is not None:
            t = conv2d(t, dec.fuse)
        t = conv2d(t, dec.conv)
        t = relu(t if dec.bn is None else batch_norm(t, dec.bn))

    return conv2d(t, net.head)


def predict(net: Network, x: Tensor4) -> np.ndarray:
    """Per-pixel argmax class mask; ties pick the lowest class index.

    argmax over the softmax equals argmax over the logits (softmax is
    strictly monotone per pixel), so the softmax is skipped. The classes are
    swept pairwise, a pixel moving only to a strictly greater logit, because
    `argmax(axis=1)` moves the class axis last and copies.
    """
    logits = forward(net, x).data
    best = logits[:, 0]
    mask = np.zeros(best.shape, np.uint8)
    for k in range(1, logits.shape[1]):
        wins = np.greater(logits[:, k], best)
        mask *= ~wins
        mask += wins * np.uint8(k)
        best = np.maximum(best, logits[:, k])
    return mask


def loss(net: Network, x: Tensor4, labels: np.ndarray) -> Tensor4:
    """Weighted cross-entropy of softmax probabilities against a label mask; trains BN."""
    probs = softmax_pixels(forward(net, x, train=True))
    return weighted_cross_entropy(probs, labels, net.class_weights)


def median_frequency_weights(masks, classes: int) -> ClassWeights:
    """Static-attention weights: median class frequency over each frequency.

    Classes absent from the masks fall back to weight 1.
    """
    counts = np.zeros(classes, dtype=np.int64)
    for m in masks:
        counts += np.bincount(np.asarray(m).reshape(-1), minlength=classes)[:classes]
    total = counts.sum()
    freq = counts / total
    present = freq > 0
    med = np.median(freq[present])
    w = np.ones(classes)
    w[present] = med / freq[present]
    return ClassWeights(w)
