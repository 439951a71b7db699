"""Network assembly, forward shape laws, and structural variant properties."""

import inspect

import numpy as np
import pytest

import redae.layers as L
import redae.network as N
from redae.errors import ConfigError, ShapeError
from redae.tensor import Rng, Tape, Tensor4, backward, grad_check


def small_net(variant="sa-re-dae", widths=(4, 6), classes=3, seed=0):
    return N.build(variant, widths, classes, Rng(seed))


def conv_size(c_in, c_out, k, bias=True):
    return c_out * c_in * k * k + bias * c_out


class TestBuild:
    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            N.build("segnet", (4, 6), 3, Rng(0))

    def test_needs_two_widths(self):
        with pytest.raises(ConfigError):
            N.build("re-dae", (4, 6, 8), 3, Rng(0))

    @pytest.mark.parametrize("widths,in_channels", [((0, 6), 1), ((4, 6), 0)])
    def test_empty_widths_are_config_errors(self, widths, in_channels):
        # each once reached a division by zero in an initialiser
        with pytest.raises(ConfigError, match="in_channels >= 1"):
            N.build("re-dae", widths, 3, Rng(0), in_channels=in_channels)

    def test_deterministic_init(self):
        a = small_net(seed=3)
        b = small_net(seed=3)
        for (na, ta), (nb, tb) in zip(N.named_parameters(a), N.named_parameters(b)):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    @pytest.mark.parametrize("variant", N.VARIANTS)
    def test_parameter_count_closed_form(self, variant):
        w0, w1, cls, cin, k = 4, 6, 3, 1, 3
        net = N.build(variant, (w0, w1), cls, Rng(1), in_channels=cin)
        expected = (  # no conv ahead of a bn has a bias
            conv_size(cin, w0, k, False) + 2 * w0      # enc0 conv + bn
            + conv_size(w0, w1, k, False) + 2 * w1     # enc1 conv + bn
            + conv_size(w1, w0, k, False) + 2 * w0     # dec0 conv + bn (mirror enc1)
            + conv_size(w0, w0, k, False) + 2 * w0     # dec1 conv + bn (mirror enc0)
            + conv_size(w0, cls, 1)                    # head
        )
        if variant in ("re-dae", "sa-re-dae"):
            expected += (conv_size(2 * w0, w0, 1) + conv_size(2 * w1, w1, 1)
                         + conv_size(2 * w1, w1, 1) + conv_size(2 * w0, w0, 1))
        assert sum(t.data.size for _, t in N.named_parameters(net)) == expected
        names = [n for n, _ in N.named_parameters(net)]
        assert len(names) == (22 if variant in ("re-dae", "sa-re-dae") else 14)
        assert not [n for n in names if n.endswith(".conv.bias")]

    def test_one_block_type_and_a_fixed_kernel(self):
        net = small_net()
        assert all(type(b) is N.Block for b in net.encoders + net.decoders)
        assert all(b.conv.filters.shape[2:] == (3, 3) for b in net.encoders + net.decoders)
        assert "kernel" not in inspect.signature(N.build).parameters
        assert not hasattr(net, "kernel")

    def test_named_parameters_unique_and_stable(self):
        net = small_net()
        names = [n for n, _ in N.named_parameters(net)]
        assert len(names) == len(set(names))
        assert names[0] == "enc0.conv.filters" and names[-1] == "head.bias"

    def test_buffers_are_running_stats(self):
        net = small_net()
        names = [n for n, _ in N.named_buffers(net)]
        assert len(names) == 8  # 4 BN layers x (mean, var)
        assert all("running_" in n for n in names)


class TestForward:
    @pytest.mark.parametrize("variant", N.VARIANTS)
    def test_output_shape_full_resolution(self, variant):
        net = small_net(variant)
        x = Rng(2).tensor_normal((2, 1, 8, 12))
        assert N.forward(net, x).shape == (2, 3, 8, 12)

    def test_divisibility_error_mentions_padding(self):
        net = small_net()
        with pytest.raises(ShapeError, match="optim.segment"):
            N.forward(net, Rng(3).tensor_normal((1, 1, 6, 8)))

    def test_channel_mismatch(self):
        net = small_net()
        with pytest.raises(ShapeError):
            N.forward(net, Rng(3).tensor_normal((1, 3, 8, 8)))

    def test_predict_equals_softmax_argmax(self):
        net = small_net()
        x = Rng(4).tensor_normal((1, 1, 8, 8))
        logits = N.forward(net, x)
        probs = L.softmax_pixels(logits)
        assert np.array_equal(N.predict(net, x), probs.data.argmax(axis=1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("classes", [2, 3, 4, 5])
    def test_predict_matches_argmax_with_ties(self, monkeypatch, classes, dtype):
        # few distinct logit values, signed zeros among them, so most pixels
        # tie between classes; argmax keeps the lowest tied class
        rng = Rng([21, classes])
        values = np.array([-1.0, -0.0, 0.0, 0.5, 2.0], dtype)
        logits = values[np.asarray(rng.integers(0, 5, (2, classes, 6, 7)))]
        logits[0, :, 0, 0] = 0.5  # every class tied
        monkeypatch.setattr(N, "forward", lambda net, x: Tensor4(logits, validate=False))
        mask = N.predict(small_net(), None)
        assert mask.dtype == np.uint8 and mask[0, 0, 0] == 0
        assert np.array_equal(mask, logits.argmax(axis=1))

    def test_eval_mode_is_deterministic_per_input(self):
        net = small_net()
        x = Rng(5).tensor_normal((1, 1, 8, 8))
        a = N.forward(net, x).data
        b = N.forward(net, x).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("variant", N.VARIANTS)
    def test_full_network_gradient(self, variant):
        net = N.build(variant, (4, 6), 3, Rng(0), dtype=np.float64)
        labels = np.asarray(Rng(6).integers(0, 3, (2, 8, 8)), dtype=np.int64)

        def f(t):
            return N.loss(net, t, labels)
        x = Rng(7).tensor_normal((2, 1, 8, 8))
        assert grad_check(f, x) <= 1e-4

    def test_hybrid_differs_from_single_branch(self):
        # same seed, same input: pooling path must change the output
        x = Rng(8).tensor_normal((1, 1, 8, 8))
        outs = {}
        for v in N.VARIANTS:
            net = small_net(v, seed=9)
            outs[v] = N.forward(net, x).data
        assert not np.array_equal(outs["max-only"], outs["avg-only"])
        assert not np.array_equal(outs["re-dae"], outs["max-only"])

    def test_re_dae_and_sa_re_dae_share_topology(self):
        # the SA variant differs only in loss weighting, not architecture
        a = small_net("re-dae", seed=10)
        b = small_net("sa-re-dae", seed=10)
        for (na, ta), (nb, tb) in zip(N.named_parameters(a), N.named_parameters(b)):
            assert na == nb and ta.shape == tb.shape
        x = Rng(11).tensor_normal((1, 1, 8, 8))
        assert np.array_equal(N.forward(a, x).data, N.forward(b, x).data)


class TestFold:
    def test_folded_copy_shares_what_it_does_not_fold(self):
        net = small_net()
        folded = N.fold(net)
        assert N.fold(folded) is folded
        assert all(b.bn is None for b in folded.encoders + folded.decoders)
        assert all(b.bn is not None for b in net.encoders + net.decoders)  # net unchanged
        for a, b in zip(net.encoders + net.decoders, folded.encoders + folded.decoders):
            assert a.fuse is b.fuse and a.conv is not b.conv
        assert folded.head is net.head and folded.class_weights is net.class_weights

    def test_forward_runs_the_folded_copy(self):
        net = small_net()
        x = Rng(12).tensor_normal((2, 1, 8, 8))
        assert np.array_equal(N.forward(net, x).data, N.forward(N.fold(net), x).data)

    def test_folded_copy_refuses_to_train(self):
        folded = N.fold(small_net())
        x = Rng(13).tensor_normal((2, 1, 8, 8))
        labels = np.zeros((2, 8, 8), np.int64)
        with pytest.raises(ConfigError, match="folded inference copy"):
            N.forward(folded, x, train=True)
        with pytest.raises(ConfigError, match="folded inference copy"):
            N.loss(folded, x, labels)
        with pytest.raises(ConfigError, match="folded inference copy"):
            N.named_parameters(folded)


class TestLossAndWeights:
    def test_loss_is_finite_scalar(self):
        net = small_net()
        x = Rng(12).tensor_normal((2, 1, 8, 8))
        labels = np.zeros((2, 8, 8), dtype=np.int64)
        val = N.loss(net, x, labels).item()
        assert np.isfinite(val) and val > 0

    def test_training_step_reduces_loss_on_one_batch(self):
        # single-batch overfit sanity: loss after 40 steps < loss before
        from redae.optim import OptimizerState, TrainConfig, sgdm_step
        net = small_net(seed=13)
        params = N.named_parameters(net)
        state = OptimizerState(params)
        cfg = TrainConfig(learning_rate=1e-2, epochs=1, seed=0)
        x = Rng(14).tensor_normal((2, 1, 8, 8))
        labels = np.asarray(Rng(15).integers(0, 3, (2, 8, 8)), dtype=np.int64)
        first = None
        for _ in range(40):
            with Tape():
                lv = N.loss(net, x, labels)
                backward(lv)
            if first is None:
                first = lv.item()
            sgdm_step(params, state, cfg)
            for _, t in params:
                t.zero_grad()
        with Tape():
            last = N.loss(net, x, labels).item()
        assert last < first

    def test_median_frequency_weights_hand_case(self):
        # frequencies: class0 = 6/8, class1 = 1/8, class2 = 1/8
        # median = 1/8, so weights = (1/6, 1, 1)
        mask = np.array([[0, 0, 0, 0], [0, 0, 1, 2]], dtype=np.uint8)
        w = N.median_frequency_weights([mask], 3).w
        assert w == pytest.approx([1.0 / 6.0, 1.0, 1.0])

    def test_median_frequency_weights_absent_class(self):
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[0, 0] = 1
        w = N.median_frequency_weights([mask], 3).w
        assert w[2] == 1.0  # absent class falls back to 1
        assert np.all(w > 0)

    def test_rarer_class_gets_larger_weight(self):
        rng = Rng(16)
        mask = np.zeros((32, 32), dtype=np.uint8)
        mask[:16] = 1
        mask[0, :4] = 2  # rare class
        w = N.median_frequency_weights([mask], 3).w
        assert w[2] > w[1] and w[2] > w[0]
