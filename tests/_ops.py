"""Elementwise ops the tests use to build scalar losses for gradient checks,
and the check that pooling's memorized indices stay in their windows.

The engine itself has no use for them; the ops are written the way its layers
are, on `make_op_output`, so they record on the active tape.
"""

import numpy as np

from redae.errors import ShapeError
from redae.layers import _window_starts
from redae.tensor import Tensor4, make_op_output


def mul(a: Tensor4, b: Tensor4) -> Tensor4:
    """Elementwise product of two tensors of one shape (no broadcasting)."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape} (no broadcasting)")

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)

    return make_op_output(a.data * b.data, (a, b), bwd)


def sum_all(a: Tensor4) -> Tensor4:
    """Sum every element into a scalar-shaped tensor."""

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, g.reshape(-1)[0]))

    return make_op_output(np.array(a.data.sum()).reshape(1, 1, 1, 1), (a,), bwd)


def check_window_indices(offsets: np.ndarray) -> np.ndarray:
    """`offsets` as is if each flat index lies in its own 2x2 window; else ShapeError."""
    # an index lies in its window iff, less the window's first element,
    # it is 0, 1, w or w + 1; w is even, so clearing bit 0 leaves 0 or w
    w = 2 * offsets.shape[3]
    rel = offsets - _window_starts(offsets.shape)
    rel &= -2
    if np.count_nonzero(rel) != np.count_nonzero(rel == w):
        raise ShapeError("pool index outside its window")
    return offsets
