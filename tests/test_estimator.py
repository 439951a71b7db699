"""Scikit-learn style estimator interface."""

import numpy as np
import pytest

import redae.estimator as E
import redae.network as N
import redae.optim as O
from redae import HybridPoolingSegmenter
from redae.data import Sample, generate_phantoms
from redae.errors import ConfigError, DataError
from redae.tensor import Rng

from test_optim import count_folds


def small_xy(n=6, size=32, seed=0):
    samples = generate_phantoms(n, size, size, Rng(seed))
    X = np.stack([s.image[:, :, 0] for s in samples])
    y = np.stack([s.mask for s in samples])
    return X, y


def small_estimator(**kw):
    base = dict(variant="re-dae", widths=(2, 3), epochs=2,
                learning_rate=1e-3, seed=1)
    base.update(kw)
    return HybridPoolingSegmenter(**base)


class TestParams:
    def test_get_params_round_trips_through_init(self):
        est = small_estimator()
        clone = HybridPoolingSegmenter(**est.get_params())
        assert clone.get_params() == est.get_params()

    def test_set_params_chains_and_updates(self):
        est = small_estimator()
        out = est.set_params(epochs=7, momentum=0.5)
        assert out is est
        assert est.epochs == 7 and est.momentum == 0.5

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ConfigError):
            small_estimator().set_params(learning_rates=1.0)

    def test_defaults_match_training_recipe(self):
        est = HybridPoolingSegmenter()
        p = est.get_params()
        assert p["learning_rate"] == 1e-4
        assert p["momentum"] == 0.9
        assert p["batch_size"] == 2
        assert p["epochs"] == 30
        assert p["variant"] == "sa-re-dae"
        assert p["widths"] == (16, 32)


class TestFitPredict:
    def test_predict_before_fit_errors(self):
        X, _ = small_xy(2)
        with pytest.raises(ConfigError, match="fit"):
            small_estimator().predict(X)

    def test_fit_predict_shapes_and_labels(self):
        X, y = small_xy()
        est = small_estimator().fit(X[:4], y[:4])
        pred = est.predict(X[4:])
        assert pred.shape == y[4:].shape
        assert pred.dtype == np.uint8
        assert set(np.unique(pred)) <= {0, 1, 2}

    def test_predict_folds_once_and_writes_nothing(self, monkeypatch):
        X, y = small_xy(4)
        est = small_estimator(epochs=1).fit(X, y)
        net = est.network_

        def state():
            return [t.data.tobytes() for _, t in N.named_parameters(net)] + \
                [b.tobytes() for _, b in N.named_buffers(net)]
        before = state()
        folds = count_folds(monkeypatch, N, O, E)
        assert est.predict(X[:3]).shape == (3, 32, 32)
        assert folds == [net]
        assert state() == before

    def test_predict_pads_odd_sizes(self):
        X, y = small_xy()
        est = small_estimator().fit(X[:4], y[:4])
        odd = X[4:, :30, :27]
        pred = est.predict(odd)
        assert pred.shape == odd.shape

    def test_fit_is_deterministic(self):
        X, y = small_xy()
        a = small_estimator().fit(X[:4], y[:4]).predict(X[4:])
        b = small_estimator().fit(X[:4], y[:4]).predict(X[4:])
        assert np.array_equal(a, b)

    def test_score_in_unit_interval(self):
        X, y = small_xy()
        est = small_estimator().fit(X[:4], y[:4])
        s = est.score(X[4:], y[4:])
        assert 0.0 <= s <= 1.0

    def test_fit_predict_score_with_a_fourth_class(self):
        # the class count is the estimator's, not the three of the mask files
        X, y = small_xy(4)
        y[:, :4, :4] = 3
        est = small_estimator(classes=4, epochs=1).fit(X, y)
        assert est.network_.classes == 4
        assert est.predict(X).max() <= 3
        assert 0.0 <= est.score(X, y) <= 1.0

    def test_score_names_classes_past_the_third(self):
        X, y = small_xy(4)  # labels 0-2 only
        est = small_estimator(classes=5, epochs=1).fit(X, y)
        assert 0.0 <= est.score(X, y) <= 1.0
        rep, _ = O.evaluate(est.network_, [Sample(X[0][:, :, None], y[0], "s")])
        assert [c.name for c in rep.classes] == ["Background", "Muscle", "Tear",
                                                 "class3", "class4"]

    def test_bad_variant_rejected_at_fit(self):
        X, y = small_xy(2)
        with pytest.raises(ConfigError):
            small_estimator(variant="unet").fit(X, y)

    @pytest.mark.parametrize("label", [256, 3, -1, 1.7, np.nan, np.inf])
    def test_bad_labels_rejected_not_wrapped(self, label):
        # astype(uint8) used to train 256 as 0, 1.7 as 1 and NaN as 0
        X, y = small_xy(2)
        y = y.astype(np.float64)
        y[1, 3, 5] = label
        with pytest.raises(DataError, match=r"at \(1, 3, 5\)"):
            small_estimator().fit(X, y)

    def test_bad_shapes_rejected(self):
        X, y = small_xy(2)
        with pytest.raises(DataError):
            small_estimator().fit(X, y[:, :16])

    @pytest.mark.parametrize("method", ["fit", "predict", "score"])
    @pytest.mark.parametrize("shape", [(0, 8, 8), (2, 0, 5), (2, 5, 0), (1, 8, 8, 0)],
                             ids=["no-images", "no-rows", "no-columns", "no-channels"])
    def test_empty_images_rejected(self, method, shape):
        # no images, or images without pixels, are refused before numpy or
        # batch norm sees them
        X, y = small_xy(2)
        est = small_estimator(epochs=1).fit(X, y)
        X = np.zeros(shape)
        args = (X,) if method == "predict" else (X, np.zeros(shape[:3], np.uint8))
        with pytest.raises(DataError, match="at least one image"):
            getattr(est, method)(*args)
