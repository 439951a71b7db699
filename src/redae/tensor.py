"""Dense rank-4 tensors with tape-based reverse-mode differentiation.

Everything in the engine is a `Tensor4` with shape (batch, channel, height,
width), backed by a float32 or float64 numpy array. A tensor keeps the float
dtype it is given (anything else becomes float64), and every op computes in
its inputs' dtype, so a float32 network stays float32 from input to
gradient. Gradients are computed by recording primitive operations on a
`Tape` (define-by-run) and replaying it in reverse. A tape is created per
forward pass and consumed by a single `backward` call; the active tape is
per thread (and per asyncio task).

Ownership: a tensor owns its grad array. `backward` takes each op's output
grad away from the output and hands it to that op's backward closure, which
may overwrite it or pass it on with `accumulate_grad(..., own=True)`; once
the closure has run, the record and everything it captured are dropped. So
memory is freed as backward runs, and afterwards only leaves (parameters and
inputs) hold grads: every op output's grad is None.

Step buffers: ops take arrays that live for one step from `empty`. Inside a
tape opened with a `BufferPool` these are views of the pool's byte slots, a
step arena that gives a step's k-th take the memory of the previous step's
k-th take, so nothing taken in a step may outlive it. Anywhere else `empty`
is `np.empty`.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

from .errors import AutodiffError, ConfigError, NumericError, ShapeError

Shape4 = tuple[int, int, int, int]
FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor4:
    """A (n, c, h, w) float32/float64 array with an optional grad buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False, validate: bool = True):
        arr = np.asarray(data)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        if arr.ndim != 4:
            raise ShapeError(f"Tensor4 requires 4 dimensions, got shape {arr.shape}")
        if validate:
            if any(d < 1 for d in arr.shape):
                raise ShapeError(f"all dimensions must be >= 1, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise NumericError("non-finite values in tensor construction")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._tape: Tape | None = None

    @property
    def shape(self) -> Shape4:
        return self.data.shape  # type: ignore[return-value]

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single element, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def accumulate_grad(self, g: np.ndarray, own: bool = False) -> None:
        """Add `g` to the stored gradient.

        The grad always has the tensor's own dtype. `own=True` promises that
        `g` is a freshly allocated array the caller will not touch again,
        letting the first accumulation adopt it without a defensive copy.
        """
        if self.grad is None:
            if own and g.dtype == self.data.dtype and g.shape == self.data.shape:
                self.grad = g
                return
            self.grad = np.array(g, dtype=self.data.dtype)  # copy: g may be shared
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor4(shape={self.shape}, requires_grad={self.requires_grad})"


# ---------------------------------------------------------------------------
# Tape


class BufferPool:
    """Step arena: the step buffers of one training run, reused across its steps.

    `take` returns an array of the asked shape and dtype with arbitrary
    contents. The pool keeps one flat byte slot per take of a step, in take
    order: the k-th take of a step is a view of slot k, which is replaced
    only when it is too small. So a step never gets the same memory twice,
    a step that repeats the previous step's takes reuses its memory, and
    nothing a step takes may outlive the step: the next one writes over it.
    `Tape(pool)` starts a step.
    """

    def __init__(self):
        self._slots: list[np.ndarray] = []
        self._next = 0  # slot of the current step's next take

    def begin_step(self) -> None:
        self._next = 0

    def take(self, shape, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        k = self._next
        self._next += 1
        if k == len(self._slots) or self._slots[k].nbytes < nbytes:
            self._slots[k:k + 1] = [np.empty(nbytes, np.uint8)]  # a new slot or a larger one
        return self._slots[k][:nbytes].view(dtype).reshape(shape)


class Tape:
    """Ordered record of differentiable primitives for one forward pass.

    Use as a context manager; operations executed inside record themselves
    when any input requires gradients. `backward` replays the record once,
    in reverse, dropping each op as it goes. A tape opened with a `pool`
    starts a step of it and serves the step buffers of `empty` from it
    while the tape is active.
    """

    def __init__(self, pool: BufferPool | None = None):
        self._ops: list[tuple[Tensor4, Callable[[np.ndarray], None]]] = []
        self._consumed = False
        self._token = None
        self.pool = pool

    def __enter__(self) -> "Tape":
        if self.pool is not None:
            self.pool.begin_step()
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc) -> bool:
        _ACTIVE_TAPE.reset(self._token)
        return False

    def record(self, out: Tensor4, backward_fn: Callable[[np.ndarray], None]) -> None:
        self._ops.append((out, backward_fn))
        out._tape = self


# innermost open tape; each thread starts with an empty context, so a tape
# opened in one thread never records another thread's ops
_ACTIVE_TAPE: ContextVar[Tape | None] = ContextVar("redae_active_tape", default=None)


def active_tape() -> Tape | None:
    return _ACTIVE_TAPE.get()


def empty(shape, dtype) -> np.ndarray:
    """An uninitialised step buffer: from the active tape's pool, else `np.empty`."""
    tape = _ACTIVE_TAPE.get()
    if tape is None or tape.pool is None:
        return np.empty(shape, dtype)
    return tape.pool.take(shape, dtype)


def tracks_grad(inputs: Sequence[Tensor4]) -> bool:
    """Whether an op on `inputs` is recorded: a tape is open and some input requires grad."""
    return active_tape() is not None and any(t.requires_grad for t in inputs)


def make_op_output(data: np.ndarray, inputs: Sequence[Tensor4],
                   backward_fn: Callable[[np.ndarray], None]) -> Tensor4:
    """Create an op result, recording `backward_fn` when gradients are tracked.

    `data` becomes the output's array as is. `backward_fn(g)` takes the
    output's gradient and accumulates into the inputs. It owns `g`: it may
    overwrite it, or hand it on with `own=True`, since backward has already
    taken it away from the output (whose grad stays None after backward).
    It is recorded only when a tape is open and some input requires
    gradients; otherwise it is dropped along with whatever it captured.
    """
    track = tracks_grad(inputs)
    out = Tensor4(data, requires_grad=track, validate=False)
    if track:
        active_tape().record(out, backward_fn)
    return out


def backward(loss: Tensor4) -> None:
    """Populate grads of the leaves (parameters, inputs) reachable from `loss`.

    The loss must be scalar-shaped (1,1,1,1). The tape that produced it is
    consumed: a second backward without a new forward pass raises. Each
    recorded op is popped in reverse order and its closure is handed the
    output's grad to own; the output's grad is set to None first, and the
    record is dropped once the closure has run, so intermediate grads and
    captured activations are freed during backward. Afterwards every op
    output's grad is None; only leaves keep theirs.
    """
    if loss.shape != (1, 1, 1, 1):
        raise AutodiffError(f"backward requires a (1,1,1,1) loss, got {loss.shape}")
    tape = loss._tape
    if tape is None:
        raise AutodiffError("loss was not produced by a recorded operation")
    if tape._consumed:
        raise AutodiffError("tape already consumed; run a new forward pass")
    tape._consumed = True
    loss.accumulate_grad(np.ones_like(loss.data))
    ops = tape._ops
    while ops:
        out, fn = ops.pop()
        g, out.grad = out.grad, None
        if g is not None:
            fn(g)


# ---------------------------------------------------------------------------
# Elementwise primitives


def astype(a: Tensor4, dtype) -> Tensor4:
    """`a` converted to `dtype`; the gradient flows back in `a`'s own dtype."""
    if a.data.dtype == dtype:
        return a

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g)

    return make_op_output(a.data.astype(dtype), (a,), bwd)


# ---------------------------------------------------------------------------
# Deterministic RNG


class Rng:
    """Seeded deterministic stream (numpy PCG64 behind a SeedSequence).

    The same entropy produces the same stream on every platform. `child(i)`
    derives an independent, index-addressable substream, used for per-sample
    augmentation so samples can be processed in any order.
    """

    def __init__(self, entropy):
        if isinstance(entropy, int):
            entropy = [entropy]
        self.entropy: tuple[int, ...] = tuple(int(e) for e in entropy)
        if any(e < 0 for e in self.entropy):
            raise ConfigError(f"seeds must be >= 0, got {list(self.entropy)}")
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(self.entropy))))

    def child(self, index: int) -> "Rng":
        return Rng(list(self.entropy) + [int(index)])

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        return self._gen.standard_normal(size=shape) * scale

    def uniform(self, low: float = 0.0, high: float = 1.0, shape=None):
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=None):
        return self._gen.integers(low, high, size=shape)

    def shuffle(self, seq: list) -> None:
        self._gen.shuffle(seq)

    def tensor_normal(self, shape, scale: float = 1.0, requires_grad: bool = False) -> Tensor4:
        return Tensor4(self.normal(tuple(shape), scale), requires_grad=requires_grad, validate=False)


# ---------------------------------------------------------------------------
# Finite-difference oracle


def grad_check(f: Callable[[Tensor4], Tensor4], x: Tensor4, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must be scalar-valued and computed in float64 from a float64 `x`
    (build networks with `dtype=np.float64`): a float32 forward pass is too
    coarse for central differences at this `eps`. Error is max over elements
    of |analytic - numeric| / max(1, |numeric|).
    """
    if x.data.dtype != np.float64:
        raise AutodiffError(f"grad_check requires a float64 input, got {x.data.dtype}")
    with Tape():
        xt = Tensor4(x.data.copy(), requires_grad=True, validate=False)
        out = f(xt)
        if out.shape != (1, 1, 1, 1):
            raise AutodiffError(f"grad_check requires a scalar-valued f, got {out.shape}")
        if out.data.dtype != np.float64:
            raise AutodiffError(f"grad_check requires a float64 f, got {out.data.dtype}")
        backward(out)
    analytic = xt.grad if xt.grad is not None else np.zeros_like(x.data)

    numeric = np.zeros_like(x.data)
    base = x.data
    for idx in np.ndindex(base.shape):
        probe = base.copy()
        probe[idx] = base[idx] + eps
        fp = f(Tensor4(probe, validate=False)).item()
        probe[idx] = base[idx] - eps
        fm = f(Tensor4(probe, validate=False)).item()
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"f non-finite at probe point index {idx}")
        numeric[idx] = (fp - fm) / (2.0 * eps)

    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
    return float(rel.max())
