"""SGD-with-momentum training loop, inference and dataset evaluation.

`segment` is the one inference path: it pads an image to the network's input
multiple, predicts and crops the mask back. `evaluate`, `redae predict` and
the estimator all go through it. Training steps run batch norm on the
batch's statistics (`network.loss`); inference runs a copy with batch norm
folded into the convs (`network.fold`), which `evaluate` makes once per call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import metrics as M
from .data import Sample, crop_mask, pad_to_multiple
from .errors import ConfigError, NumericError
from .network import (PLANS, Network, fold, loss as net_loss, median_frequency_weights,
                      named_buffers, named_parameters, predict)
from .tensor import BufferPool, Rng, Tape, Tensor4, backward


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    momentum: float = 0.9
    batch_size: int = 2
    epochs: int = 30
    seed: int = 0
    shuffle: bool = True
    log_every: int = 50
    val_fraction: float = 0.1  # carve-out from training for per-epoch metrics

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if not 0 <= self.val_fraction < 1:
            raise ConfigError(f"val_fraction must be in [0, 1), got {self.val_fraction}")


class OptimizerState:
    """Per-parameter velocity buffers, zero-initialized in each parameter's dtype."""

    def __init__(self, params: list[tuple[str, Tensor4]]):
        self.velocity = {name: np.zeros_like(t.data) for name, t in params}


def sgdm_step(params: list[tuple[str, Tensor4]], state: OptimizerState,
              cfg: TrainConfig) -> None:
    """Classical momentum update: v <- mu*v - lr*g; w <- w + v.

    All or nothing: every new velocity and weight is computed and checked
    before any is written, so a raise leaves parameters and velocities as
    they were.
    """
    updates = []
    for name, t in params:
        if t.grad is None:
            raise NumericError(f"parameter {name!r} has no gradient")
        v = cfg.momentum * state.velocity[name]
        v -= cfg.learning_rate * t.grad
        w = t.data + v
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(w))):
            raise NumericError(f"non-finite update for parameter {name!r}")
        updates.append((name, t, v, w))
    for name, t, v, w in updates:
        state.velocity[name] = v
        t.data = w


@dataclass
class TrainLog:
    steps: list[tuple[int, int, float, float]] = field(default_factory=list)  # epoch, step, loss, seconds
    epoch_metrics: list[tuple[int, M.MetricsReport]] = field(default_factory=list)

    def epoch_mean_loss(self, epoch: int) -> float:
        vals = [l for e, _, l, _ in self.steps if e == epoch]
        return float(np.mean(vals))

    def write_csv(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("epoch,step,loss,seconds\n")
            for e, s, l, t in self.steps:
                f.write(f"{e},{s},{l:.10g},{t:.3f}\n")

    def write_metrics_csv(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("epoch," + M.CSV_HEADER + "\n")
            for e, rep in self.epoch_metrics:
                for row in M.report_csv_rows(rep, f"epoch{e}"):
                    f.write(f"{e},{row}\n")


def _batch_tensors(samples: list[Sample]) -> tuple[Tensor4, np.ndarray]:
    imgs = np.stack([s.image.transpose(2, 0, 1) for s in samples])
    masks = np.stack([s.mask for s in samples])
    return Tensor4(imgs, validate=False), masks


def train(net: Network, train_set: list[Sample], val_set: list[Sample] | None,
          cfg: TrainConfig, log: TrainLog | None = None) -> tuple[Network, TrainLog]:
    """Train in place; returns the network plus the log.

    Static-attention weights are computed once from the training split before
    the first epoch (sa-re-dae only). A step is all or nothing: a NaN/Inf
    loss or update raises `NumericError` with the parameters, velocities and
    batch-norm running statistics of the last good step.
    """
    if not train_set:
        raise ConfigError("training set is empty")
    params = named_parameters(net)  # raises for a folded copy, before anything changes
    log = log or TrainLog()
    padded = [pad_to_multiple(s, net.input_multiple)[0] for s in train_set]

    if PLANS[net.variant][2]:  # static attention
        net.class_weights = median_frequency_weights([s.mask for s in padded], net.classes)

    buffers = [buf for _, buf in named_buffers(net)]
    state = OptimizerState(params)
    pool = BufferPool()  # step arena: nothing a step takes from it outlives the step
    order_rng = Rng([cfg.seed, 0x0D0E])
    t0 = time.monotonic()
    step_no = 0

    for epoch in range(1, cfg.epochs + 1):
        order = list(range(len(padded)))
        if cfg.shuffle:
            order_rng.shuffle(order)
        for lo in range(0, len(order), cfg.batch_size):
            batch = [padded[i] for i in order[lo:lo + cfg.batch_size]]
            x, labels = _batch_tensors(batch)
            # the forward pass updates the running stats in place; parameters
            # change only in sgdm_step, which writes nothing when it raises
            stats = [buf.copy() for buf in buffers]
            try:
                with Tape(pool):
                    l = net_loss(net, x, labels)
                    lv = l.item()
                    if not np.isfinite(lv):
                        raise NumericError(f"non-finite loss {lv}")
                    backward(l)
                sgdm_step(params, state, cfg)
            except NumericError as e:
                for buf, saved in zip(buffers, stats):
                    buf[...] = saved
                raise NumericError(
                    f"{e} at epoch {epoch} step {step_no}; parameters and "
                    "running statistics restored to the last good step") from e
            for _, t in params:
                t.zero_grad()
            step_no += 1
            log.steps.append((epoch, step_no, lv, time.monotonic() - t0))

        if val_set:
            rep, _ = evaluate(net, val_set)
            log.epoch_metrics.append((epoch, rep))

    return net, log


def carve_validation(train_ids: list[str], fraction: float, seed: int) -> tuple[list[str], list[str]]:
    """Deterministically reserve a fraction of the training ids for validation."""
    ids = list(train_ids)
    if fraction <= 0 or len(ids) < 2:
        return ids, []
    rng = Rng([seed, 0x7A1])
    rng.shuffle(ids)
    n_val = max(1, int(np.floor(fraction * len(ids) + 0.5)))
    return ids[n_val:], ids[:n_val]


def segment(net: Network, image: np.ndarray) -> np.ndarray:
    """Class mask (h, w) uint8 of one (h, w, c) image of any size.

    The image is zero-padded right/bottom to `net.input_multiple`, predicted
    as a batch of one, and the mask cropped back to (h, w).
    """
    s = Sample(image=image, mask=np.zeros(image.shape[:2], dtype=np.uint8), id="segment")
    padded, crop = pad_to_multiple(s, net.input_multiple)
    x, _ = _batch_tensors([padded])
    return crop_mask(predict(net, x)[0], crop)


def evaluate(net: Network, samples: list[Sample]) -> tuple[M.MetricsReport, M.ConfusionCounts]:
    """Segment every sample in order and accumulate pixel confusion counts."""
    if not samples:
        raise ConfigError("evaluation set is empty")
    net = fold(net)
    counts = M.ConfusionCounts(net.classes)
    for s in samples:
        M.accumulate(counts, segment(net, s.image), s.mask)
    return M.compute_report(counts), counts
