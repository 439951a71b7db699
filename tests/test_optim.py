"""Optimizer update rule, training loop behavior, and evaluation."""

import tracemalloc

import numpy as np
import pytest

import redae.checkpoint as C
import redae.network as N
import redae.optim as O
from redae import HybridPoolingSegmenter
from redae.data import Sample, generate_phantoms
from redae.errors import ConfigError, NumericError
from redae.tensor import Rng, Tensor4


class TestTrainConfig:
    def test_defaults_match_training_recipe(self):
        cfg = O.TrainConfig()
        assert cfg.learning_rate == 1e-4
        assert cfg.momentum == 0.9
        assert cfg.batch_size == 2
        assert cfg.epochs == 30

    @pytest.mark.parametrize("kw", [
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"momentum": 1.0},
        {"momentum": -0.1},
        {"batch_size": 0},
        {"epochs": 0},
        {"val_fraction": 1.0},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
    ])
    def test_invalid_values_rejected(self, kw):
        with pytest.raises(ConfigError):
            O.TrainConfig(**kw)


class TestSgdmStep:
    def _param(self, value):
        t = Tensor4(np.full((1, 1, 1, 1), value), requires_grad=True)
        return [("w", t)]

    def test_two_step_hand_recurrence(self):
        # lr=0.1, mu=0.9, constant gradient 1, w0=0:
        #   v1 = -0.1,  w1 = -0.1
        #   v2 = 0.9*(-0.1) - 0.1 = -0.19,  w2 = -0.29
        params = self._param(0.0)
        state = O.OptimizerState(params)
        cfg = O.TrainConfig(learning_rate=0.1, momentum=0.9)
        for _ in range(2):
            params[0][1].accumulate_grad(np.ones((1, 1, 1, 1)))
            O.sgdm_step(params, state, cfg)
            params[0][1].zero_grad()
        assert params[0][1].item() == pytest.approx(-0.29, abs=1e-15)

    def test_zero_momentum_is_plain_sgd(self):
        params = self._param(1.0)
        state = O.OptimizerState(params)
        cfg = O.TrainConfig(learning_rate=0.5, momentum=0.0)
        params[0][1].accumulate_grad(np.full((1, 1, 1, 1), 2.0))
        O.sgdm_step(params, state, cfg)
        assert params[0][1].item() == pytest.approx(0.0)

    def test_non_finite_update_writes_nothing(self):
        a = Tensor4([[[[1.0, 2.0]]]], requires_grad=True)
        b = Tensor4(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        params = [("a", a), ("b", b)]
        state = O.OptimizerState(params)
        state.velocity["a"][...] = 0.5
        a.accumulate_grad(np.ones((1, 1, 1, 2)))
        b.accumulate_grad(np.full((1, 1, 1, 1), np.inf))
        with pytest.raises(NumericError, match="'b'"):
            O.sgdm_step(params, state, O.TrainConfig(learning_rate=0.1))
        assert a.data.reshape(-1).tolist() == [1.0, 2.0]
        assert state.velocity["a"].reshape(-1).tolist() == [0.5, 0.5]
        assert b.item() == 3.0 and state.velocity["b"].item() == 0.0

    def test_velocity_follows_parameter_dtype(self):
        t = Tensor4(np.zeros((1, 1, 1, 2), dtype=np.float32), requires_grad=True)
        params = [("w", t)]
        state = O.OptimizerState(params)
        t.accumulate_grad(np.ones((1, 1, 1, 2)))
        O.sgdm_step(params, state, O.TrainConfig(learning_rate=0.1))
        assert state.velocity["w"].dtype == np.float32 and t.data.dtype == np.float32

    def test_missing_gradient_names_parameter(self):
        params = self._param(0.0)
        state = O.OptimizerState(params)
        with pytest.raises(NumericError, match="'w'"):
            O.sgdm_step(params, state, O.TrainConfig())


def tiny_dataset(n=6, size=32, seed=0):
    return generate_phantoms(n, size, size, Rng(seed))


def tiny_cfg(**kw):
    base = dict(learning_rate=1e-3, epochs=2, seed=5, val_fraction=0.0)
    base.update(kw)
    return O.TrainConfig(**base)


def record_steps(monkeypatch):
    """Routes `train`'s step arena through a recorder; returns (steps, pools).

    `steps` holds, per step, the arrays it took in take order. They are kept
    alive, so memory a pool lets go of cannot come back at the same address.
    `pools` holds every pool `train` made.
    """
    steps, pools = [], []

    class Pool(O.BufferPool):
        def __init__(self):
            super().__init__()
            pools.append(self)

        def begin_step(self):
            super().begin_step()
            steps.append([])

        def take(self, shape, dtype):
            arr = super().take(shape, dtype)
            steps[-1].append(arr)
            return arr

    monkeypatch.setattr(O, "BufferPool", Pool)
    return steps, pools


def held_before(arr, earlier):
    """Whether `arr`'s memory lies inside that of one of the `earlier` arrays."""
    start = arr.ctypes.data
    return any(a.ctypes.data <= start and start + arr.nbytes <= a.ctypes.data + a.nbytes
               for a in earlier)


def count_folds(monkeypatch, *modules):
    """Routes each module's `fold` through a counter; returns the networks it folded.

    A call on a network that is folded already does no work and is not counted.
    """
    folded, fold = [], N.fold

    def counting(net):
        out = fold(net)
        if out is not net:
            folded.append(net)
        return out
    for module in modules:
        monkeypatch.setattr(module, "fold", counting)
    return folded


class TestTrainLoop:
    def test_empty_training_set_rejected(self):
        net = N.build("re-dae", (2, 3), 3, Rng(0))
        with pytest.raises(ConfigError):
            O.train(net, [], None, tiny_cfg())

    def test_step_count_and_log(self):
        samples = tiny_dataset(6)
        net = N.build("re-dae", (2, 3), 3, Rng(0))
        _, log = O.train(net, samples, None, tiny_cfg(epochs=3))
        # 6 samples, batch 2 -> 3 steps/epoch * 3 epochs
        assert len(log.steps) == 9
        assert {e for e, _, _, _ in log.steps} == {1, 2, 3}
        assert all(np.isfinite(l) for _, _, l, _ in log.steps)

    def test_training_is_deterministic(self):
        samples = tiny_dataset(4)
        outs = []
        for _ in range(2):
            net = N.build("sa-re-dae", (2, 3), 3, Rng(1))
            _, log = O.train(net, samples, None, tiny_cfg())
            outs.append([l for _, _, l, _ in log.steps])
        assert outs[0] == outs[1]

    def test_sa_variant_sets_class_weights(self):
        samples = tiny_dataset(4)
        net = N.build("sa-re-dae", (2, 3), 3, Rng(3))
        O.train(net, samples, None, tiny_cfg(epochs=1))
        w = net.class_weights.w
        assert not np.allclose(w, 1.0)
        assert w[2] == max(w)  # tear is the rarest class

    def test_unit_weights_for_plain_variant(self):
        samples = tiny_dataset(4)
        net = N.build("re-dae", (2, 3), 3, Rng(3))
        O.train(net, samples, None, tiny_cfg(epochs=1))
        assert np.allclose(net.class_weights.w, 1.0)

    def test_pooled_steps_match_plain_tapes(self, monkeypatch):
        # the second step runs on buffers the pool hands out again, so any
        # op that read a buffer before writing all of it would show here
        samples = tiny_dataset(4)
        taken = []
        take = O.BufferPool.take

        def take_recorded(pool, shape, dtype):
            arr = take(pool, shape, dtype)
            taken.append(arr.ctypes.data)
            return arr

        monkeypatch.setattr(O.BufferPool, "take", take_recorded)
        states = []

        class State(O.OptimizerState):
            def __init__(self, params):
                super().__init__(params)
                states.append(self)

        monkeypatch.setattr(O, "OptimizerState", State)
        runs = []
        tape_cls = O.Tape
        for tape in (tape_cls, lambda pool: tape_cls()):
            monkeypatch.setattr(O, "Tape", tape)
            net = N.build("sa-re-dae", (2, 3), 3, Rng(1))
            _, log = O.train(net, samples, None, tiny_cfg(epochs=1))
            runs.append(([l for _, _, l, _ in log.steps],
                         [t.data for _, t in N.named_parameters(net)],
                         list(states[-1].velocity.values()),
                         [b for _, b in N.named_buffers(net)]))
        assert len(runs[0][0]) == 2
        assert len(set(taken)) < len(taken)  # the pooled run reused buffers
        for pooled, plain in zip(*runs):
            assert len(pooled) == len(plain)
            for a, b in zip(pooled, plain):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_pool_holds_one_steps_buffers_across_image_sizes(self, monkeypatch):
        # a step's k-th take is a view of the slot the step before used for its
        # k-th take, so a step on smaller images or a smaller last batch
        # allocates nothing: every step after the first reuses the pool's memory
        steps, pools = record_steps(monkeypatch)
        runs = [  # samples, batch size, epochs
            (tiny_dataset(2, size=36) + tiny_dataset(2, size=32), 1, 1),
            (tiny_dataset(3), 2, 2),  # each epoch ends on a batch of one
        ]
        for samples, batch_size, epochs in runs:
            steps.clear()
            net = N.build("sa-re-dae", (2, 3), 3, Rng(1))
            O.train(net, samples, None, tiny_cfg(epochs=epochs, batch_size=batch_size,
                                                 shuffle=False))
            assert len(steps) == 4
            for i in range(1, len(steps)):
                earlier = [a for step in steps[:i] for a in step]
                assert len(steps[i]) == len(steps[0])
                assert all(held_before(a, earlier) for a in steps[i])
            # the pool holds the first step's buffers and nothing else
            slots = pools[-1]._slots
            assert [s.ctypes.data for s in slots] == [a.ctypes.data for a in steps[0]]
            assert [s.nbytes for s in slots] == [a.nbytes for a in steps[0]]

    def test_odd_count_run_allocates_nothing_after_its_first_epoch(self, monkeypatch):
        # at batch 1 the grad conv of the last 16->16 conv fits in one band
        # and takes one array fewer than at batch 2, so the smaller last batch
        # shifts the takes after it and grows some slots; once both batch
        # sizes have run, every take fits in memory the pool already holds
        steps, pools = record_steps(monkeypatch)
        net = N.build("sa-re-dae", (16, 32), 3, Rng(1))
        O.train(net, tiny_dataset(3, size=64), None,
                tiny_cfg(epochs=3, batch_size=2, shuffle=False))
        assert len(steps) == 6
        first_epoch = steps[0] + steps[1]
        assert all(held_before(a, first_epoch) for step in steps[2:] for a in step)
        full_step = sum(a.nbytes for a in steps[0])
        assert sum(s.nbytes for s in pools[-1]._slots) <= 2 * full_step

    @pytest.mark.parametrize("variant", N.VARIANTS)
    def test_nothing_that_outlives_a_step_shares_the_pools_memory(self, variant, monkeypatch):
        # the pool hands a step's arrays to the next step, so a parameter,
        # grad, velocity or running statistic in one of them would be overwritten
        pools = []

        class Pool(O.BufferPool):
            def __init__(self):
                super().__init__()
                pools.append(self)

        def assert_apart(lasting):
            pooled = pools[0]._slots
            assert pooled and lasting
            for a in lasting:
                assert not any(np.shares_memory(a, b) for b in pooled)

        net = N.build(variant, (2, 3), 3, Rng(1))
        sgdm_step = O.sgdm_step
        checked = []

        def checked_step(params, state, cfg):
            assert_apart([t.data for _, t in params] + [t.grad for _, t in params]
                         + [b for _, b in N.named_buffers(net)])
            sgdm_step(params, state, cfg)
            assert_apart([t.data for _, t in params] + list(state.velocity.values()))
            checked.append(len(params))

        monkeypatch.setattr(O, "BufferPool", Pool)
        monkeypatch.setattr(O, "sgdm_step", checked_step)
        O.train(net, tiny_dataset(4), None, tiny_cfg(epochs=1))
        assert len(checked) == 2

    def test_nan_abort_restores_parameters(self):
        samples = tiny_dataset(4)
        net = N.build("re-dae", (2, 3), 3, Rng(4))

        def snapshot():
            return [(name, t.data.copy()) for name, t in N.named_parameters(net)] + \
                [(name, b.copy()) for name, b in N.named_buffers(net)]

        class Steps(list):  # state after each good step
            def append(self, item):
                super().append(item)
                last[:] = snapshot()

        last = snapshot()
        # absurd learning rate blows the loss up to inf within a few steps
        cfg = tiny_cfg(learning_rate=1e8, epochs=50)
        with pytest.raises(NumericError, match="restored"):
            O.train(net, samples, None, cfg, O.TrainLog(steps=Steps()))
        # every parameter and buffer equals its value before the failing step
        for (name, before), (_, now) in zip(last, snapshot()):
            assert np.array_equal(before, now), name

    def test_folded_copy_refuses_to_train(self):
        folded = N.fold(N.build("sa-re-dae", (2, 3), 3, Rng(1)))
        weights = folded.class_weights
        with pytest.raises(ConfigError, match="folded inference copy"):
            O.train(folded, tiny_dataset(2), None, tiny_cfg(epochs=1))
        assert folded.class_weights is weights  # refused before anything changed

    def test_validation_folds_once_per_epoch(self, monkeypatch):
        samples = tiny_dataset(8)
        net = N.build("re-dae", (2, 3), 3, Rng(5))
        folds = count_folds(monkeypatch, N, O)
        O.train(net, samples[:3], samples[3:], tiny_cfg(epochs=2))
        assert folds == [net, net]

    def test_val_metrics_logged_per_epoch(self):
        samples = tiny_dataset(6)
        net = N.build("re-dae", (2, 3), 3, Rng(5))
        _, log = O.train(net, samples[:4], samples[4:], tiny_cfg(epochs=2))
        assert [e for e, _ in log.epoch_metrics] == [1, 2]

    def test_log_csv_files(self, tmp_path):
        samples = tiny_dataset(4)
        net = N.build("re-dae", (2, 3), 3, Rng(6))
        _, log = O.train(net, samples[:2], samples[2:], tiny_cfg(epochs=1))
        loss_csv = tmp_path / "loss.csv"
        met_csv = tmp_path / "metrics.csv"
        log.write_csv(str(loss_csv))
        log.write_metrics_csv(str(met_csv))
        assert loss_csv.read_text().splitlines()[0] == "epoch,step,loss,seconds"
        assert met_csv.read_text().splitlines()[0].startswith("epoch,")


class TestCarveValidation:
    def test_partition(self):
        ids = [f"s{i}" for i in range(20)]
        tr, val = O.carve_validation(ids, 0.25, seed=1)
        assert len(val) == 5 and len(tr) == 15
        assert sorted(tr + val) == sorted(ids)

    def test_deterministic(self):
        ids = [f"s{i}" for i in range(10)]
        assert O.carve_validation(ids, 0.2, 7) == O.carve_validation(ids, 0.2, 7)

    def test_zero_fraction(self):
        ids = ["a", "b"]
        tr, val = O.carve_validation(ids, 0.0, 1)
        assert tr == ids and val == []


class TestEvaluate:
    def _trained(self):
        samples = tiny_dataset(6)
        net = N.build("re-dae", (2, 3), 3, Rng(7))
        O.train(net, samples[:4], None, tiny_cfg(epochs=1))
        return net, samples[4:]

    def test_report_matches_manual_scoring(self):
        import redae.metrics as M
        from redae.data import pad_to_multiple, crop_mask
        net, test = self._trained()
        rep, counts = O.evaluate(net, test)
        manual = M.ConfusionCounts(3)
        for s in test:
            padded, crop = pad_to_multiple(s, 4)
            x, _ = O._batch_tensors([padded])
            pred = crop_mask(N.predict(net, x)[0], crop)
            manual = M.accumulate(manual, pred, s.mask)
        assert counts.tp.tolist() == manual.tp.tolist()
        assert counts.fp.tolist() == manual.fp.tolist()
        assert rep == M.compute_report(manual)

    def test_folds_once_per_call(self, monkeypatch):
        net = N.build("sa-re-dae", (2, 3), 3, Rng(7))
        samples = tiny_dataset(5, seed=3)
        folds = count_folds(monkeypatch, N, O)
        O.evaluate(net, samples)
        assert folds == [net]


def test_segment_304_peak_memory():
    # the untracked convs' banded im2col keeps this ~31 MB; whole columns took 83 MB
    net = N.build("sa-re-dae", (16, 32), 3, Rng(0))
    image = Rng(1).uniform(0.0, 1.0, (304, 304, 1))
    tracemalloc.start()
    try:
        O.segment(net, image)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


class TestInferenceState:
    """Inference reads batch norm's running statistics and writes no network state."""

    @pytest.mark.parametrize("kind", ["fresh", "trained", "loaded"])
    def test_only_the_training_loss_writes_running_stats(self, kind, tmp_path):
        net = N.build("sa-re-dae", (2, 3), 3, Rng(8))
        if kind != "fresh":
            O.train(net, tiny_dataset(4), None, tiny_cfg(epochs=1))
        if kind == "loaded":
            C.save(net, str(tmp_path / "m.ckpt"))
            net = C.load(str(tmp_path / "m.ckpt"))
        samples = tiny_dataset(2, seed=9)
        x, labels = O._batch_tensors(samples)
        est = HybridPoolingSegmenter()
        est.network_ = net
        calls = {
            "network.predict": lambda: N.predict(net, x),
            "optim.segment": lambda: O.segment(net, samples[0].image[:30, :30]),
            "optim.evaluate": lambda: O.evaluate(net, samples),
            "HybridPoolingSegmenter.predict":
                lambda: est.predict(np.stack([s.image for s in samples])),
        }
        before = [b.tobytes() for _, b in N.named_buffers(net)]
        params = [t.data.tobytes() for _, t in N.named_parameters(net)]
        for name, call in calls.items():
            call()
            assert [b.tobytes() for _, b in N.named_buffers(net)] == before, name
            assert [t.data.tobytes() for _, t in N.named_parameters(net)] == params, name
        N.loss(net, x, labels)
        after = [b.tobytes() for _, b in N.named_buffers(net)]
        assert all(a != b for a, b in zip(after, before))
