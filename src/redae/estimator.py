"""Scikit-learn style estimator wrapping the segmentation engine.

`HybridPoolingSegmenter` exposes fit/predict/score with get_params/set_params
so the model composes with pipelines and grid search. X is an array of images
(N, h, w) or (N, h, w, c) with values in [0, 1]; y is an array of integer
label masks (N, h, w).
"""

from __future__ import annotations

import numpy as np

from .data import Sample
from .errors import ConfigError, DataError
from .metrics import dice_frac
from .network import build, fold
from .optim import TrainConfig, TrainLog, evaluate, segment, train
from .tensor import Rng


def _as_image_array(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 3:
        X = X[:, :, :, None]
    if X.ndim != 4:
        raise DataError(f"X must be (N, h, w) or (N, h, w, c), got shape {X.shape}")
    return X


def _as_mask_array(y, n: int, hw: tuple[int, int], classes: int) -> np.ndarray:
    y = np.asarray(y)
    if y.shape != (n,) + hw:
        raise DataError(f"y must have shape {(n,) + hw}, got {y.shape}")
    bad = ~((y >= 0) & (y < classes) & (y == np.round(y)))  # NaN fails every test
    if bad.any():
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise DataError(f"y holds label {y[where]} at {where}; labels are integers in [0, {classes})")
    return y.astype(np.uint8)


class HybridPoolingSegmenter:
    """Pixel classifier built on the region/edge hybrid-pooling auto-encoder."""

    def __init__(self, variant: str = "sa-re-dae", widths: tuple[int, int] = (16, 32),
                 classes: int = 3, learning_rate: float = 1e-4, momentum: float = 0.9,
                 batch_size: int = 2, epochs: int = 30, seed: int = 0,
                 shuffle: bool = True):
        self.variant = variant
        self.widths = widths
        self.classes = classes
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.batch_size = batch_size
        self.epochs = epochs
        self.seed = seed
        self.shuffle = shuffle

    _param_names = ("variant", "widths", "classes", "learning_rate", "momentum",
                    "batch_size", "epochs", "seed", "shuffle")

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params) -> "HybridPoolingSegmenter":
        for key, value in params.items():
            if key not in self._param_names:
                raise ConfigError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    # -- estimator API ------------------------------------------------------

    def fit(self, X, y) -> "HybridPoolingSegmenter":
        X = _as_image_array(X)
        y = _as_mask_array(y, X.shape[0], X.shape[1:3], self.classes)
        samples = [Sample(image=X[i], mask=y[i], id=f"fit{i}") for i in range(X.shape[0])]
        net = build(self.variant, self.widths, self.classes, Rng(self.seed),
                    in_channels=X.shape[3])
        cfg = TrainConfig(learning_rate=self.learning_rate, momentum=self.momentum,
                          batch_size=self.batch_size, epochs=self.epochs,
                          seed=self.seed, shuffle=self.shuffle)
        self.network_, self.log_ = train(net, samples, None, cfg, TrainLog())
        return self

    def _check_fitted(self):
        if not hasattr(self, "network_"):
            raise ConfigError("estimator is not fitted; call fit first")

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        X = _as_image_array(X)
        net = fold(self.network_)
        return np.stack([segment(net, img) for img in X])

    def score(self, X, y) -> float:
        """Mean per-class Dice over all classes, in [0, 1]."""
        self._check_fitted()
        X = _as_image_array(X)
        y = _as_mask_array(y, X.shape[0], X.shape[1:3], self.classes)
        samples = [Sample(image=X[i], mask=y[i], id=f"score{i}") for i in range(X.shape[0])]
        _, counts = evaluate(self.network_, samples)
        return float(np.mean([float(dice_frac(counts, k)) for k in range(counts.classes)]))
