"""The three benchmark workloads: set-up, a timed closed loop, output checks.

Each workload drives redae through its public API or its in-process CLI,
one client in one process. Its unit of work is a training step (`train-64`),
a `redae eval` pass (`eval-64`) or a `redae predict` call (`predict-304`).
Every unit and every post-run check is one attempted operation; an
exception, a non-zero exit code or a failed output check makes it a failed
one.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import _benchmark as acceptance  # tests/_benchmark.py: the acceptance-run constants
from redae import checkpoint, cli, data, network, optim, pipeline
from redae.tensor import Rng

VARIANT = "sa-re-dae"  # the hybrid path runs every op, the weighted loss too
WIDTHS = (16, 32)
CLASSES = 3
PREDICT_SIZE = 304  # the CLI's default image size
PREDICT_IMAGES = 4  # distinct phantoms, cycled through call after call

# Run-length floors. A p90 needs >= 100 samples so that ten lie beyond it.
# train_loss_final is the mean loss of steps (LOSS_STEPS - LOSS_WINDOW,
# LOSS_STEPS]: a fixed window, so it is one number per seed however long the
# run is, and a change that keeps the arithmetic must reproduce it exactly.
MIN_SAMPLES = 100
TRACE_MIN_SAMPLES = 20
WARMUP = 5  # units run (train: step intervals dropped) before timing starts
LOSS_STEPS = 128
LOSS_WINDOW = 32


class _Stop(Exception):
    """Raised from inside `optim.train` once the run has measured enough."""


class _StepLog(list):
    """`TrainLog.steps` that stops training after a deadline and a step floor."""

    def __init__(self, deadline: float, min_steps: int):
        super().__init__()
        self.deadline, self.min_steps = deadline, min_steps

    def append(self, item) -> None:
        super().append(item)
        if len(self) >= self.min_steps and time.monotonic() >= self.deadline:
            raise _Stop


@dataclass
class Tally:
    """Attempted and failed operations, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
        return ok

    def crash(self, what: str) -> None:
        """Count an operation that raised; the traceback goes to stderr."""
        traceback.print_exc(file=sys.stderr)
        self.check(False, what)


@dataclass
class Run:
    """One measuring phase: the timed unit durations (s) and all units run."""

    durations: list[float]
    images_per_unit: int
    units: int  # warm-up and failed units included


def _acceptance_dataset(seed: int, augment_copies: int):
    samples, manifest = pipeline.generate_dataset(acceptance.COUNT, acceptance.SIZE,
                                                  acceptance.SIZE, seed,
                                                  acceptance.TEAR_FRACTION)
    by_id = {s.id: s for s in samples}
    return pipeline.preprocess(by_id, manifest, equalize=True,
                               augment_copies=augment_copies, seed=seed)


def read_netpbm(path: str) -> tuple[bytes, int, int, bytes]:
    """(magic, width, height, pixels) of a PGM/PPM in the layout redae writes.

    Independent of redae's reader; raises ValueError on a malformed or
    truncated file.
    """
    with open(path, "rb") as f:
        magic, size, maxval, pixels = f.read().split(b"\n", 3)
    width, height = (int(t) for t in size.split())
    planes = {b"P5": 1, b"P6": 3}.get(magic)
    if planes is None or maxval != b"255":
        raise ValueError(f"{path}: bad header")
    if len(pixels) != width * height * planes:
        raise ValueError(f"{path}: {len(pixels)} pixel bytes, "
                         f"expected {width * height * planes}")
    return magic, width, height, pixels


def _closed_loop(one, seconds: float, min_units: int, images_per_unit: int) -> Run:
    """Warm up, then call `one` back to back for `seconds` and >= `min_units` times.

    `one` returns the duration of a successful unit, or None for a failed one.
    """
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for _ in range(WARMUP):
            one()
        durations: list[float] = []
        attempts, start = 0, time.monotonic()
        while attempts < min_units or time.monotonic() - start < seconds:
            attempts += 1
            elapsed = one()
            if elapsed is not None:
                durations.append(elapsed)
    return Run(durations, images_per_unit, WARMUP + attempts)


def _timed_cli(argv: list[str], tally: Tally) -> float | None:
    """Duration of one in-process `redae` call, or None (counted) if it failed."""
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:
        tally.crash(f"redae {argv[0]} raised")
        return None
    elapsed = time.perf_counter() - t0
    if code != 0:
        tally.check(False, f"redae {argv[0]} exited {code}")
        return None
    return elapsed


# ---------------------------------------------------------------------------
# train-64


class Train64:
    name = "train-64"
    unit = "step"
    root_span = "optim.train"
    names = ("train_step_ms_p50", "train_step_ms_p90", "train_images_per_s")

    def setup(self, seed: int, workdir: str) -> dict:
        processed, manifest = _acceptance_dataset(seed, acceptance.AUGMENT_COPIES)
        return {"seed": seed, "workdir": workdir, "losses": None,
                "train": [processed[i] for i in manifest.train],
                "net": network.build(VARIANT, WIDTHS, CLASSES, rng=Rng(seed))}

    def measure(self, state: dict, seconds: float, min_units: int, tally: Tally) -> Run:
        first_run = state["losses"] is None
        min_steps = max(min_units + WARMUP + 1, LOSS_STEPS if first_run else 0)
        steps = _StepLog(time.monotonic() + seconds, min_steps)
        cfg = optim.TrainConfig(epochs=10**6, seed=state["seed"], val_fraction=0.0)
        try:
            optim.train(state["net"], state["train"], None, cfg, optim.TrainLog(steps=steps))
        except _Stop:
            pass
        except Exception:
            tally.crash(f"training step {len(steps) + 1} raised")
        for _, step, loss, _ in steps:
            tally.check(bool(np.isfinite(loss)), f"step {step}: non-finite loss {loss}")
        if first_run:
            state["losses"] = [loss for _, _, loss, _ in steps]
        # step times come from successive TrainLog timestamps
        stamps = [t for _, _, _, t in steps]
        return Run([b - a for a, b in zip(stamps, stamps[1:])][WARMUP:], cfg.batch_size,
                   len(steps))

    def check(self, state: dict, tally: Tally) -> dict:
        losses, found = state["losses"], {}
        if len(losses) < LOSS_STEPS:
            tally.check(False, f"only {len(losses)} steps, {LOSS_STEPS} needed for the final loss")
        else:
            final = statistics.fmean(losses[LOSS_STEPS - LOSS_WINDOW:LOSS_STEPS])
            found["train_loss_final"] = final
            tally.check(final < losses[0],
                        f"final loss {final} is not below the first step's {losses[0]}")
        found["acceptance_steps"] = acceptance.EPOCHS * math.ceil(
            len(state["train"]) / optim.TrainConfig().batch_size)
        first = os.path.join(state["workdir"], "model.ckpt")
        again = os.path.join(state["workdir"], "model_again.ckpt")
        try:
            checkpoint.save(state["net"], first)
            checkpoint.save(checkpoint.load(first), again)
            with open(first, "rb") as a, open(again, "rb") as b:
                same = a.read() == b.read()
        except Exception:
            tally.crash("checkpoint round trip raised")
        else:
            tally.check(same, "checkpoint save -> load -> save is not byte-identical")
            found["checkpoint_bytes"] = os.path.getsize(first)
        return found


# ---------------------------------------------------------------------------
# eval-64


class Eval64:
    name = "eval-64"
    unit = "pass"
    root_span = "cli"
    names = ("eval_pass_ms_p50", "eval_pass_ms_p90", "eval_images_per_s")

    def setup(self, seed: int, workdir: str) -> dict:
        # augmentation only adds training copies, so the held-out split is
        # the acceptance run's byte for byte without it
        processed, manifest = _acceptance_dataset(seed, augment_copies=0)
        root = os.path.join(workdir, "heldout")
        held_out = data.SplitManifest(train=[], test=list(manifest.test),
                                      seed=manifest.seed, ratio=manifest.ratio)
        data.write_dataset(root, [processed[i] for i in manifest.test], held_out)
        ckpt = os.path.join(workdir, "model.ckpt")
        checkpoint.save(network.build(VARIANT, WIDTHS, CLASSES, rng=Rng(seed)), ckpt)
        return {"data": root, "ckpt": ckpt, "images": len(manifest.test),
                "prefix": os.path.join(workdir, "eval_"), "first_report": None}

    def _one(self, state: dict, tally: Tally) -> float | None:
        elapsed = _timed_cli(["eval", "--data", state["data"], "--ckpt", state["ckpt"],
                              "--out-prefix", state["prefix"]], tally)
        if elapsed is None:
            return None
        try:
            with open(state["prefix"] + "metrics.json", "rb") as f:
                report = f.read()
        except OSError as e:
            tally.check(False, f"unreadable metrics.json: {e}")
            return None
        if state["first_report"] is None:
            state["first_report"] = report
        if not tally.check(report == state["first_report"],
                           "metrics.json differs from the first pass"):
            return None
        return elapsed

    def measure(self, state: dict, seconds: float, min_units: int, tally: Tally) -> Run:
        return _closed_loop(lambda: self._one(state, tally), seconds, min_units,
                            state["images"])

    def check(self, state: dict, tally: Tally) -> dict:
        prefix = os.path.join(os.path.dirname(state["prefix"]), "oracle_")
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            ok = _timed_cli(["eval", "--data", state["data"], "--oracle",
                             "--out-prefix", prefix], tally) is not None
        if ok:
            with open(prefix + "metrics.json") as f:
                report = json.load(f)
            tally.check(report["global_accuracy"] == 100.0 and all(
                c["dice"] == 100.0 and c["iou"] == 100.0 for c in report["classes"]),
                "redae eval --oracle does not report 100%")
        return {"checkpoint_bytes": os.path.getsize(state["ckpt"])}


# ---------------------------------------------------------------------------
# predict-304


class Predict304:
    name = "predict-304"
    unit = "call"
    root_span = "cli"
    names = ("predict_ms_p50", "predict_ms_p90", "predict_images_per_s")

    def setup(self, seed: int, workdir: str) -> dict:
        samples, _ = pipeline.generate_dataset(PREDICT_IMAGES, PREDICT_SIZE, PREDICT_SIZE, seed)
        images = []
        for s in samples:
            path = os.path.join(workdir, f"{s.id}.pgm")
            data.write_pgm(path, data.image_to_bytes(s.image)[:, :, 0])
            images.append(path)
        ckpt = os.path.join(workdir, "model.ckpt")
        checkpoint.save(network.build(VARIANT, WIDTHS, CLASSES, rng=Rng(seed)), ckpt)
        return {"images": images, "ckpt": ckpt, "prefix": os.path.join(workdir, "pred"),
                "calls": 0, "first_masks": {}}

    def _one(self, state: dict, tally: Tally) -> float | None:
        image = state["images"][state["calls"] % len(state["images"])]
        state["calls"] += 1
        elapsed = _timed_cli(["predict", "--ckpt", state["ckpt"], "--image", image,
                              "--out", state["prefix"]], tally)
        if elapsed is None:
            return None
        try:
            _, w, h, mask = read_netpbm(state["prefix"] + "_mask.pgm")
            magic, ow, oh, _ = read_netpbm(state["prefix"] + "_overlay.ppm")
        except (OSError, ValueError) as e:
            tally.check(False, f"unreadable predict output: {e}")
            return None
        size = (PREDICT_SIZE, PREDICT_SIZE)
        first = state["first_masks"].setdefault(image, mask)
        ok = ((w, h) == size and max(mask) <= 2 and magic == b"P6" and (ow, oh) == size
              and mask == first)
        if not tally.check(ok, f"predict output for {image}: wrong size, labels or bytes"):
            return None
        return elapsed

    def measure(self, state: dict, seconds: float, min_units: int, tally: Tally) -> Run:
        return _closed_loop(lambda: self._one(state, tally), seconds, min_units, 1)

    def check(self, state: dict, tally: Tally) -> dict:
        return {"checkpoint_bytes": os.path.getsize(state["ckpt"])}


WORKLOADS = {w.name: w for w in (Train64(), Eval64(), Predict304())}
