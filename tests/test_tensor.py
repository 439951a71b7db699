"""Core tensor, tape, buffer pool and autodiff tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redae.network as N
from redae.errors import AutodiffError, ConfigError, NumericError, ShapeError
from redae.tensor import (BufferPool, Rng, Tape, Tensor4, active_tape, astype,
                          backward, empty, grad_check)

from _ops import mul, sum_all


class TestTensor4:
    def test_rank4_required(self):
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((2, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            Tensor4(np.array([[[[np.nan]]]]))

    def test_float64_storage(self):
        t = Tensor4(np.ones((1, 1, 2, 2), dtype=np.float64))
        assert t.data.dtype == np.float64
        # non-float input (ints, nested lists) is stored as float64
        assert Tensor4(np.ones((1, 1, 2, 2), dtype=np.int64)).data.dtype == np.float64
        assert Tensor4([[[[1, 2]]]]).data.dtype == np.float64

    def test_float32_storage_kept(self):
        t = Tensor4(np.ones((1, 1, 2, 2), dtype=np.float32))
        assert t.data.dtype == np.float32

    def test_accumulate_grad_keeps_tensor_dtype(self):
        t = Tensor4(np.zeros((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
        t.accumulate_grad(np.ones((1, 1, 2, 2)), own=True)  # float64 g, not adopted
        t.accumulate_grad(np.ones((1, 1, 2, 2)))
        assert t.grad.dtype == np.float32 and np.all(t.grad == 2.0)

    def test_constructors(self):
        assert Tensor4(np.zeros((1, 2, 3, 4))).shape == (1, 2, 3, 4)
        assert Tensor4(np.full((1, 1, 1, 1), 2.5)).item() == 2.5
        t = Tensor4([[[[1, 2], [3, 4]]]])
        assert t.data.reshape(-1).tolist() == [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((1, 0, 2, 2)))

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((1, 1, 2, 2))).item()

    def test_accumulate_grad_adds(self):
        t = Tensor4(np.zeros((1, 1, 2, 2)), requires_grad=True)
        t.accumulate_grad(np.ones((1, 1, 2, 2)))
        t.accumulate_grad(np.ones((1, 1, 2, 2)))
        assert np.all(t.grad == 2.0)
        t.zero_grad()
        assert t.grad is None

    def test_accumulate_grad_own_does_not_alias_shared(self):
        t = Tensor4(np.zeros((1, 1, 2, 2)), requires_grad=True)
        g = np.ones((1, 1, 2, 2))
        t.accumulate_grad(g)  # not owned: must copy
        g[:] = 7.0
        assert np.all(t.grad == 1.0)


class TestTape:
    def test_no_tape_no_graph(self):
        a = Tensor4(np.full((1, 1, 1, 1), 2.0), requires_grad=True)
        out = mul(a, a)
        assert out.item() == 4.0
        with pytest.raises(AutodiffError):
            backward(out)

    def test_active_tape_scoping(self):
        assert active_tape() is None
        with Tape() as t:
            assert active_tape() is t
        assert active_tape() is None

    def test_backward_requires_scalar(self):
        a = Tensor4(np.zeros((1, 1, 2, 2)), requires_grad=True)
        with Tape():
            out = mul(a, a)
            with pytest.raises(AutodiffError):
                backward(out)

    def test_tape_consumed_after_backward(self):
        a = Tensor4(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        with Tape():
            out = mul(a, a)
            backward(out)
            with pytest.raises(AutodiffError):
                backward(out)

    def test_tape_is_per_thread(self):
        # a forward in thread B while thread A holds an open tape must not
        # land on A's tape
        import threading
        a = Tensor4(np.full((1, 1, 1, 1), 2.0), requires_grad=True)
        opened, done = threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with Tape() as tape:
                opened.set()
                done.wait(10)
                seen["a_ops"] = len(tape._ops)

        def thread_b():
            opened.wait(10)
            seen["b_tape"] = active_tape()
            out = mul(a, a)
            seen["b_tracked"] = out.requires_grad
            done.set()

        ta, tb = threading.Thread(target=thread_a), threading.Thread(target=thread_b)
        ta.start()
        tb.start()
        ta.join(20)
        tb.join(20)
        assert not ta.is_alive() and not tb.is_alive()
        assert seen == {"a_ops": 0, "b_tape": None, "b_tracked": False}

    def test_astype_op_converts_and_routes_grad_back(self):
        a = Tensor4(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        assert astype(a, np.float64) is a
        with Tape():
            b = astype(a, np.float32)
            assert b.data.dtype == np.float32
            backward(sum_all(mul(b, b)))
        assert a.grad.dtype == np.float64 and a.grad.item() == 6.0

    def test_grad_check_requires_float64(self):
        x32 = Tensor4(np.ones((1, 1, 2, 2), dtype=np.float32))
        with pytest.raises(AutodiffError, match="float64"):
            grad_check(sum_all, x32)
        with pytest.raises(AutodiffError, match="float64"):
            grad_check(lambda t: sum_all(astype(t, np.float32)), Tensor4(np.zeros((1, 1, 2, 2))))

    def test_grad_flows_through_shared_node(self):
        # loss = (a*a) * (a*a) => d/da = 4a^3
        a = Tensor4(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        with Tape():
            sq = mul(a, a)
            backward(mul(sq, sq))
        assert a.grad is not None
        assert a.grad.item() == pytest.approx(108.0)

    def test_backward_releases_replayed_grads(self, monkeypatch):
        # while a closure runs, every op output already replayed (this one
        # included) holds no grad; afterwards only the leaves hold grads
        replayed = []
        record = Tape.record

        def record_checked(tape, out, backward_fn):
            def checked(g):
                replayed.append(out)
                assert all(o.grad is None for o in replayed)
                backward_fn(g)
            record(tape, out, checked)

        monkeypatch.setattr(Tape, "record", record_checked)
        net = N.build("sa-re-dae", (2, 3), 3, Rng(1))
        x = Rng(2).tensor_normal((2, 1, 8, 8), requires_grad=True)
        labels = np.asarray(Rng(3).integers(0, 3, (2, 8, 8)), dtype=np.int64)
        with Tape():
            loss = N.loss(net, x, labels)
            backward(loss)
        # the float64 input's cast, 5 ops per hybrid block, the head, softmax and loss
        assert len(replayed) == 24 and loss in replayed
        assert all(o.grad is None for o in replayed)
        assert x.grad is not None
        assert all(t.grad is not None for _, t in N.named_parameters(net))


class TestBufferPool:
    SHAPE = (1, 2, 4, 4)

    def test_unreferenced_array_is_handed_out_again(self):
        # the next step's k-th take reuses the memory of this step's k-th
        # take, whatever its shape or dtype, as long as it fits
        pool = BufferPool()
        with Tape(pool):
            first = pool.take(self.SHAPE, np.float32)
            second = pool.take((1, 2, 4, 5), np.float32)
        with Tape(pool):
            again = pool.take(self.SHAPE, np.float32)
            assert again.ctypes.data == first.ctypes.data
            assert again.shape == self.SHAPE and again.dtype == np.float32
            smaller = pool.take((2, 2, 2, 2), np.int32)
            assert smaller.ctypes.data == second.ctypes.data
            third = pool.take(self.SHAPE, np.float32)  # a take the last step did not make
            assert not any(np.shares_memory(third, a) for a in (first, second))
        with Tape(pool):
            larger = pool.take(self.SHAPE, np.float64)  # twice the bytes: a new slot
            assert not np.shares_memory(larger, first)
        with Tape(pool):
            assert pool.take(self.SHAPE, np.float64).ctypes.data == larger.ctypes.data

    def test_referenced_arrays_are_not_handed_out_again(self):
        pool = BufferPool()
        held = pool.take(self.SHAPE, np.float32)
        tensor = Tensor4(pool.take(self.SHAPE, np.float32), validate=False)
        view = pool.take(self.SHAPE, np.float32)[:, 1:]

        def closure_over(arr):
            return lambda g: arr.sum()

        captured = pool.take(self.SHAPE, np.float32)
        tape = Tape(pool)
        tape.record(Tensor4(np.zeros((1, 1, 1, 1))), closure_over(captured))
        live = [held, tensor.data, view, captured]
        fresh = [pool.take(self.SHAPE, np.float32) for _ in range(2)]
        arrays = live + fresh
        assert not any(np.shares_memory(a, b)
                       for i, a in enumerate(arrays) for b in arrays[i + 1:])

    def test_a_step_takes_distinct_arrays_and_the_next_step_the_same(self):
        # a step's takes are disjoint, and the k-th take of a step that
        # repeats the step before reuses that step's k-th take's memory
        net = N.build("sa-re-dae", (2, 3), 3, Rng(1))
        x = Rng(2).tensor_normal((2, 1, 16, 16))
        labels = np.asarray(Rng(3).integers(0, 3, (2, 16, 16)), dtype=np.int64)
        pool = BufferPool()
        steps = []
        take = pool.take

        def take_recorded(shape, dtype):
            arr = take(shape, dtype)
            steps[-1].append((arr.ctypes.data, arr.nbytes))
            return arr

        pool.take = take_recorded
        for _ in range(3):
            steps.append([])
            with Tape(pool):
                backward(N.loss(net, x, labels))
        assert len(steps[0]) > 30
        spans = sorted((start, start + n) for start, n in steps[0] if n)
        assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
        assert steps[1] == steps[0] and steps[2] == steps[0]

    def test_empty_draws_from_the_active_tapes_pool_only(self):
        pool = BufferPool()
        with Tape(pool):
            first = empty(self.SHAPE, np.float32)
        with Tape(pool):
            assert empty(self.SHAPE, np.float32).ctypes.data == first.ctypes.data
        with Tape():
            assert not np.shares_memory(empty(self.SHAPE, np.float32), first)
        assert not np.shares_memory(empty(self.SHAPE, np.float32), first)


class TestElementwiseOps:
    def setup_method(self):
        self.rng = Rng(1234)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mul(Tensor4(np.zeros((1, 1, 2, 2))), Tensor4(np.zeros((1, 1, 2, 3))))

    def test_values(self):
        a = Tensor4([[[[3.0, 4.0]]]])
        b = Tensor4([[[[1.0, 2.0]]]])
        assert mul(a, b).data.reshape(-1).tolist() == [3.0, 8.0]
        assert sum_all(a).item() == 7.0

    def test_gradients(self):
        b = self.rng.tensor_normal((2, 3, 4, 4))
        cases = {
            "mul": lambda t: sum_all(mul(t, mul(t, b))),
            "sum": lambda t: sum_all(mul(sum_all(t), sum_all(t))),
        }
        for name, f in cases.items():
            x = self.rng.tensor_normal((2, 3, 4, 4))
            err = grad_check(f, x)
            assert err <= 1e-6, f"{name}: grad error {err}"

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(-3, 3).filter(lambda s: abs(s) > 1e-3))
    def test_linearity_of_gradient(self, seed, alpha):
        # d(alpha * f)/dx == alpha * df/dx for f = sum(x * x)
        rng = Rng(seed)
        x1 = rng.tensor_normal((1, 2, 3, 3), requires_grad=True)
        x2 = Tensor4(x1.data.copy(), requires_grad=True)
        with Tape():
            backward(sum_all(mul(x1, x1)))
        with Tape():
            backward(mul(sum_all(mul(x2, x2)), Tensor4(np.full((1, 1, 1, 1), alpha))))
        assert np.allclose(x2.grad, alpha * x1.grad, rtol=1e-12, atol=1e-12)


class TestRng:
    def test_determinism(self):
        a = Rng(99).normal((3, 3))
        b = Rng(99).normal((3, 3))
        assert np.array_equal(a, b)

    def test_child_streams_differ(self):
        r = Rng(5)
        a = r.child(0).normal((4,))
        b = r.child(1).normal((4,))
        assert not np.array_equal(a, b)

    def test_child_independent_of_parent_draws(self):
        r1 = Rng(5)
        r1.normal((10,))
        r2 = Rng(5)
        assert np.array_equal(r1.child(3).normal((4,)),
                              r2.child(3).normal((4,)))

    @pytest.mark.parametrize("make", [lambda: Rng(-1), lambda: Rng([3, -2]),
                                      lambda: Rng(5).child(-1)], ids=["seed", "list", "child"])
    def test_negative_entropy_is_config_error(self, make):
        with pytest.raises(ConfigError, match="seeds must be >= 0"):
            make()

    def test_shuffle_deterministic(self):
        xs = list(range(10))
        ys = list(range(10))
        Rng(7).shuffle(xs)
        Rng(7).shuffle(ys)
        assert xs == ys
        assert sorted(xs) == list(range(10))
