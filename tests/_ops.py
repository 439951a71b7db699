"""Elementwise ops the tests use to build scalar losses for gradient checks.

The engine itself has no use for them; they are written the way its layers
are, on `make_op_output`, so they record on the active tape.
"""

import numpy as np

from redae.errors import ShapeError
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
