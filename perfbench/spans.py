"""Span tracer that wraps redae's public functions where they are looked up.

A `Tracer` replaces module attributes such as ``redae.network.conv2d`` or
``redae.optim.sgdm_step`` with timing wrappers while it is installed, and
puts the originals back when it is removed. Nothing under ``src/`` changes.
Backward time is attributed per op by wrapping ``Tape.record``: each closure
an op records is timed under the name of the forward op that recorded it.

Spans are kept in memory as (id, parent id, name, start ns, end ns, phase,
output bytes). A span's self time is its duration minus the union of its
children's intervals. Spans started in a worker thread with nothing open in
that thread take the main thread's innermost open span as their parent, so
`optim.evaluate`'s thread pool is attributed to the evaluate call.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns

from redae import checkpoint, cli, data, metrics, network, optim, pipeline, tensor

# forward ops, wrapped in redae.network where `forward` looks them up
_OPS = {
    "batch_norm": "layers.batch_norm", "relu": "layers.relu",
    "max_pool": "layers.pool", "avg_pool": "layers.pool",
    "max_unpool": "layers.pool", "avg_upsample": "layers.pool",
    "concat_channels": "layers.pool",
    "softmax_pixels": "layers.loss", "weighted_cross_entropy": "layers.loss",
}

# (owner, attribute, span name): every place the workloads reach a layer
_CALLS = [
    (network, "forward", "network.forward"),
    (network, "predict", "network.predict"),
    (optim, "predict", "network.predict"),
    (optim, "net_loss", "network.loss"),
    (optim, "backward", "tensor.backward"),
    (optim, "sgdm_step", "optim.sgdm_step"),
    (optim, "train", "optim.train"),
    (cli, "evaluate", "optim.evaluate"),
    (cli, "main", "cli"),
    (cli, "read_dataset", "data.read_dataset"),
    (cli, "overlay", "pipeline.overlay"),
    (optim, "pad_to_multiple", "data.pad_crop"),
    (optim, "crop_mask", "data.pad_crop"),
    (data, "pad_to_multiple", "data.pad_crop"),
    (data, "crop_mask", "data.pad_crop"),
    (data, "read_pgm", "data.pgm_io"),
    (data, "read_ppm", "data.pgm_io"),
    (data, "write_pgm", "data.pgm_io"),
    (data, "write_ppm", "data.pgm_io"),
    (checkpoint, "save", "checkpoint.save"),
    (checkpoint, "load", "checkpoint.load"),
    (metrics, "accumulate", "metrics.accumulate"),
    (metrics, "compute_report", "metrics.report"),
    (metrics, "render_report", "metrics.report"),
    (metrics, "report_csv_rows", "metrics.report"),
    (metrics.MetricsReport, "to_json", "metrics.report"),
    (pipeline, "generate_dataset", "data.generate"),
    (pipeline, "preprocess", "pipeline.preprocess"),
]

# span name -> reported per-layer metric (self times are summed per metric)
METRIC_OF_SPAN = {
    "network.forward": "network.forward_ms",
    "network.predict": "network.forward_ms",
    "network.loss": "network.forward_ms",
    "tensor.backward": "tensor.backward_ms",
    "tensor.other.bwd": "tensor.backward_ms",
    "optim.sgdm_step": "optim.sgdm_step_ms",
    "optim.train": "optim.step_other_ms",
    "optim.evaluate": "optim.evaluate_ms",
    "cli": "cli.self_ms",
    "data.read_dataset": "data.read_dataset_ms",
    "pipeline.overlay": "pipeline.overlay_ms",
    "data.pad_crop": "data.pad_crop_ms",
    "data.pgm_io": "data.pgm_io_ms",
    "checkpoint.save": "checkpoint.save_ms",
    "checkpoint.load": "checkpoint.load_ms",
    "metrics.accumulate": "metrics.accumulate_ms",
    "metrics.report": "metrics.report_ms",
    "data.generate": "data.generate_ms",
    "pipeline.preprocess": "pipeline.preprocess_ms",
}
for _layer in ("conv3x3", "conv1x1", "batch_norm", "relu", "pool", "loss"):
    for _dir in ("fwd", "bwd"):
        METRIC_OF_SPAN[f"layers.{_layer}.{_dir}"] = f"layers.{_layer}.{_dir}_ms"


def _out_bytes(out) -> int:
    if isinstance(out, tuple):  # max_pool: (values, indices)
        return out[0].data.nbytes + out[1].offsets.nbytes
    return out.data.nbytes


def _merged_length(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int, str, int]] = []
        self.tape_ops: Counter = Counter()  # Tape.record calls per phase
        self.phase = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, out_bytes: bool = False, **kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:  # first span of a worker thread: caused by the main thread's open span
            main = self._main_stack
            parent = main[-1][0] if main and main is not stack else 0
        sid = next(self._ids)
        stack.append((sid, name))
        nbytes = 0
        t0 = perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
            if out_bytes:
                nbytes = _out_bytes(out)
            return out
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, self.phase, nbytes))

    # -- installing the wrappers ---------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn, out_bytes: bool = False):
        call = self.call

        def wrapper(*args, **kwargs):
            return call(name, fn, *args, out_bytes=out_bytes, **kwargs)
        return wrapper

    def _wrap_conv(self, fn):
        call = self.call

        def conv2d(x, p):
            kind = "conv1x1" if p.filters.shape[2:] == (1, 1) else "conv3x3"
            return call(f"layers.{kind}.fwd", fn, x, p, out_bytes=True)
        return conv2d

    def _wrap_record(self, fn):
        tracer = self

        def record(tape, out, backward_fn):
            stack = tracer._stack()
            op = stack[-1][1] if stack else ""
            name = op[:-4] + ".bwd" if op.endswith(".fwd") else "tensor.other.bwd"
            with tracer._lock:
                tracer.tape_ops[tracer.phase] += 1
            return fn(tape, out, lambda g: tracer.call(name, backward_fn, g))
        return record

    def install(self, phase: str) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.phase = phase
        self._main_stack = self._stack()
        self._patch(network, "conv2d", self._wrap_conv(network.conv2d))
        for attr, layer in _OPS.items():
            self._patch(network, attr, self._wrap(f"{layer}.fwd", getattr(network, attr), True))
        for owner, attr, name in _CALLS:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        self._patch(tensor.Tape, "record", self._wrap_record(tensor.Tape.record))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------------

    def self_times(self, phases: tuple[str, ...]) -> tuple[dict, dict, dict, dict]:
        """Per span name over `phases`: self ns, span count, output bytes, total ns."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _, parent, _, t0, t1, _, _ in self.spans:
            children[parent].append((t0, t1))
        self_ns: dict[str, int] = defaultdict(int)
        count: dict[str, int] = defaultdict(int)
        nbytes: dict[str, int] = defaultdict(int)
        total_ns: dict[str, int] = defaultdict(int)
        for sid, _, name, t0, t1, phase, nb in self.spans:
            if phase in phases:
                self_ns[name] += (t1 - t0) - _merged_length(children.get(sid, []), t0, t1)
                count[name] += 1
                nbytes[name] += nb
                total_ns[name] += t1 - t0
        return self_ns, count, nbytes, total_ns
