"""Dtype policy: a float32 network stays float32 end to end, nothing upcasts."""

import numpy as np
import pytest

import redae.checkpoint as C
import redae.layers as L
import redae.network as N
import redae.optim as O
from redae.data import generate_phantoms
from redae.errors import ConfigError
from redae.tensor import BufferPool, Rng, Tape, Tensor4, backward


@pytest.fixture
def dtype_spy(monkeypatch):
    """Records the dtype of every op output and every accumulated grad."""
    seen = {"outputs": [], "grads": []}
    make = L.make_op_output

    def make_op_output(data, inputs, backward_fn):
        seen["outputs"].append(data.dtype)
        return make(data, inputs, backward_fn)

    accumulate = Tensor4.accumulate_grad

    def accumulate_grad(self, g, own=False):
        seen["grads"].append(np.asarray(g).dtype)
        return accumulate(self, g, own)

    monkeypatch.setattr(L, "make_op_output", make_op_output)
    monkeypatch.setattr(Tensor4, "accumulate_grad", accumulate_grad)
    return seen


def test_build_dtypes():
    for dtype in (np.float32, np.float64):
        net = N.build("sa-re-dae", (2, 3), 3, Rng(0), dtype=dtype)
        assert net.dtype == dtype
        assert all(t.data.dtype == dtype for _, t in N.named_parameters(net))
        assert all(b.dtype == dtype for _, b in N.named_buffers(net))
    assert N.build("re-dae", (2, 3), 3, Rng(0)).dtype == np.float32  # the default
    with pytest.raises(ConfigError):
        N.build("re-dae", (2, 3), 3, Rng(0), dtype=np.float16)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fold_keeps_the_network_dtype(dtype):
    folded = N.fold(N.build("sa-re-dae", (2, 3), 3, Rng(0), dtype=dtype))
    for blk in folded.encoders + folded.decoders:
        assert blk.conv.filters.data.dtype == dtype and blk.conv.bias.data.dtype == dtype
    assert folded.dtype == dtype


def test_float32_and_float64_builds_share_the_init():
    a = N.build("sa-re-dae", (2, 3), 3, Rng(5))
    b = N.build("sa-re-dae", (2, 3), 3, Rng(5), dtype=np.float64)
    for (_, ta), (_, tb) in zip(N.named_parameters(a), N.named_parameters(b)):
        assert np.array_equal(ta.data, tb.data.astype(np.float32))


def test_train_step_stays_float32(dtype_spy):
    net = N.build("sa-re-dae", (2, 3), 3, Rng(1))
    net.class_weights = L.ClassWeights([0.5, 1.0, 4.0])
    params = N.named_parameters(net)
    state = O.OptimizerState(params)
    x = Rng(2).tensor_normal((2, 1, 8, 8))  # float64, as the data pipeline makes it
    labels = np.asarray(Rng(3).integers(0, 3, (2, 8, 8)), dtype=np.int64)
    with Tape():
        loss = N.loss(net, x, labels)
        backward(loss)
    assert loss.data.dtype == np.float32
    O.sgdm_step(params, state, O.TrainConfig())
    # 23 op outputs: 5 per hybrid encoder and decoder block, the head, softmax
    # and the loss; 49 grads: one per op output and one per parameter (26)
    assert len(dtype_spy["outputs"]) == 23 and len(dtype_spy["grads"]) == 49
    assert set(dtype_spy["outputs"]) == {np.dtype(np.float32)}
    assert set(dtype_spy["grads"]) == {np.dtype(np.float32)}
    for name, t in params:
        assert t.data.dtype == np.float32 and t.grad.dtype == np.float32, name
        assert state.velocity[name].dtype == np.float32, name
    assert all(b.dtype == np.float32 for _, b in N.named_buffers(net))


class _AllocationSpy:
    """Stands in for numpy inside `redae.layers`, recording what it allocates.

    Every call to a function that returns a new array records the array's
    dtype; everything else passes through to numpy unchanged.
    `tensor_empty` wraps the layers' step-buffer allocator, `tensor.empty`,
    the same way, pooled or not.
    """

    ALLOCATORS = ("zeros", "empty", "ones", "full", "zeros_like", "empty_like",
                  "ones_like", "full_like", "pad", "stack", "concatenate", "repeat",
                  "where", "choose", "take", "greater", "maximum", "arange",
                  "ascontiguousarray", "matmul")

    def __init__(self):
        self.dtypes: list[tuple[str, np.dtype]] = []

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in self.ALLOCATORS:
            return fn
        return self._recording(name, fn)

    def _recording(self, name, fn):
        def record(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.dtypes.append((name, out.dtype))
            return out
        return record

    def tensor_empty(self, empty):
        return self._recording("tensor.empty", empty)


def test_float32_layers_allocate_no_float64(monkeypatch):
    # a float64 scratch buffer whose values are copied back into a float32
    # array changes no output dtype, so only its allocation shows it
    net = N.build("sa-re-dae", (2, 3), 3, Rng(1))
    net.class_weights = L.ClassWeights([0.5, 1.0, 4.0])
    x = Rng(2).tensor_normal((2, 1, 8, 8))
    labels = np.asarray(Rng(3).integers(0, 3, (2, 8, 8)), dtype=np.int64)
    empty = L.empty
    for pool in (None, BufferPool()):
        spy = _AllocationSpy()
        monkeypatch.setattr(L, "np", spy)
        monkeypatch.setattr(L, "empty", spy.tensor_empty(empty))
        with Tape(pool):
            backward(N.loss(net, x, labels))
        names = {name for name, _ in spy.dtypes}
        assert {"tensor.empty", "zeros", "take", "greater", "matmul"} <= names
        assert [(n, d) for n, d in spy.dtypes if d == np.float64] == []


def test_load_and_evaluate_run_in_float32(tmp_path, dtype_spy):
    samples = generate_phantoms(3, 32, 32, Rng(4))
    path = str(tmp_path / "m.ckpt")
    C.save(N.build("sa-re-dae", (2, 3), 3, Rng(4)), path)
    net = C.load(path)
    assert all(t.data.dtype == np.float32 for _, t in N.named_parameters(net))
    assert all(b.dtype == np.float32 for _, b in N.named_buffers(net))
    O.evaluate(net, samples)
    assert dtype_spy["outputs"] and set(dtype_spy["outputs"]) == {np.dtype(np.float32)}
    assert dtype_spy["grads"] == []  # inference records no tape


def test_float64_network_stays_float64(dtype_spy):
    net = N.build("re-dae", (2, 3), 3, Rng(6), dtype=np.float64)
    x = Tensor4(np.ones((1, 1, 8, 8), dtype=np.float32))
    labels = np.zeros((1, 8, 8), dtype=np.int64)
    with Tape():
        backward(N.loss(net, x, labels))
    assert set(dtype_spy["outputs"]) == {np.dtype(np.float64)}
    assert set(dtype_spy["grads"]) == {np.dtype(np.float64)}
