"""redae benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload train-64 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` the run measures the end-to-end metrics with nothing
wrapped. With ``--trace 1`` it measures untraced and traced blocks in turn,
every layer wrapped in spans in the traced ones, and reports the per-layer
metrics. The last line of standard output is one JSON object; the lines
before it give the same numbers under the names perfbench/README.md uses,
plus run metadata. Exit code 0 means every operation and check passed.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave the checkout's source trees as they are

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUPS = 8  # set-ups per run; setup_s is their median
COVERAGE_GATE_PCT = 10.0  # train-64: traced self times vs the untraced step p50

END_TO_END = {  # name -> unit, in the order they are printed
    "op_ms_p50": "ms", "op_ms_p90": "ms", "images_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
# the first three are printed under each workload's own names (Workload.names)
END_TO_END_ALIASES = ("op_ms_p50", "op_ms_p90", "images_per_s")
PER_LAYER = {
    **{f"layers.{op}.{d}_ms": "ms"
       for op in ("conv3x3", "conv1x1", "batch_norm", "relu", "pool", "loss")
       for d in ("fwd", "bwd")},
    "layers.out_mb": "MB",
    "tensor.backward_ms": "ms", "tensor.tape_ops": "count",
    "optim.sgdm_step_ms": "ms", "optim.step_other_ms": "ms",
    "network.forward_ms": "ms", "optim.evaluate_ms": "ms", "optim.forward_calls": "count",
    "checkpoint.save_ms": "ms", "checkpoint.load_ms": "ms", "checkpoint.bytes": "B",
    "data.read_dataset_ms": "ms", "data.pgm_io_ms": "ms", "data.pad_crop_ms": "ms",
    "pipeline.overlay_ms": "ms", "metrics.accumulate_ms": "ms", "metrics.report_ms": "ms",
    "cli.self_ms": "ms", "data.generate_ms": "ms", "pipeline.preprocess_ms": "ms",
    "trace_overhead_pct": "%", "trace.uncovered_pct": "%",
}
PER_CALL = ("checkpoint.save_ms", "checkpoint.load_ms")  # mean over every call in the run
PER_SETUP = ("data.generate_ms", "pipeline.preprocess_ms")  # mean over the set-ups


def add_sources() -> None:
    """Import redae from this checkout's src/ (and tests/_benchmark.py), or exit."""
    for rel in ("src/redae/__init__.py", "tests/_benchmark.py"):
        if not (ROOT / rel).is_file():
            sys.exit(f"perfbench: {ROOT / rel} is missing; run from a full checkout")
    for rel in ("tests", "src"):
        if str(ROOT / rel) not in sys.path:
            sys.path.insert(0, str(ROOT / rel))


def _blas() -> dict:
    """BLAS library name and thread count as the loaded library reports them."""
    import numpy
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with contextlib.suppress(OSError):
        with open("/proc/self/maps") as maps:
            libs = {ln.split()[-1] for ln in maps if "blas" in ln.lower() and "/" in ln}
        for lib in sorted(libs):
            handle = ctypes.CDLL(lib)
            # numpy's bundled OpenBLAS first, then a system OpenBLAS
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    threads = int(getattr(handle, sym)())
                    break
    return {"blas": f"{info.get('name')} {info.get('version')}", "blas_threads": threads}


def metadata(seed: int, trace: bool) -> dict:
    import numpy
    import _benchmark
    lines = sum(p.read_bytes().count(b"\n") for p in (ROOT / "src" / "redae").glob("*.py"))
    return {"seed": seed, "trace": trace, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__, **_blas(),
            "REDAE_THREADS": os.environ.get("REDAE_THREADS", "unset"),
            "source_hash": _benchmark.source_hash(), "src_lines": lines}


@contextlib.contextmanager
def _phase(tracer, phase: str):
    if tracer is None:
        yield
        return
    tracer.install(phase)
    try:
        yield
    finally:
        tracer.remove()


def end_to_end(run, setup_times: list[float]) -> dict:
    d = run.durations
    return {
        "op_ms_p50": statistics.median(d) * 1e3,
        "op_ms_p90": statistics.quantiles(d, n=10)[-1] * 1e3,
        "images_per_s": run.images_per_unit * len(d) / sum(d),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def per_layer(tracer, workload, plain, traced, found: dict) -> tuple[dict, float]:
    """Per-layer metrics of the traced phase, and its self-time sum per unit (ms)."""
    import spans
    out = {name: 0.0 for name in PER_LAYER}
    run_self, run_count, run_bytes, run_total = tracer.self_times(("run",))
    for name, ns in run_self.items():
        metric = spans.METRIC_OF_SPAN[name]
        if metric not in PER_CALL + PER_SETUP:
            out[metric] += ns / 1e6 / traced.units
    all_self, all_count, _, _ = tracer.self_times(("setup", "run", "check"))
    for name in ("checkpoint.save", "checkpoint.load"):
        if all_count.get(name):
            out[spans.METRIC_OF_SPAN[name]] = all_self[name] / 1e6 / all_count[name]
    setup_self, _, _, _ = tracer.self_times(("setup",))
    for name in ("data.generate", "pipeline.preprocess"):
        out[spans.METRIC_OF_SPAN[name]] = setup_self.get(name, 0) / 1e6 / SETUPS
    out["layers.out_mb"] = sum(run_bytes.values()) / 1e6 / traced.units
    out["tensor.tape_ops"] = tracer.tape_ops["run"] / traced.units
    out["optim.forward_calls"] = run_count.get("network.forward", 0) / traced.units
    out["checkpoint.bytes"] = float(found.get("checkpoint_bytes", 0))
    out["trace_overhead_pct"] = 100 * (statistics.median(traced.durations)
                                       / statistics.median(plain.durations) - 1)
    root = workload.root_span
    out["trace.uncovered_pct"] = 100 * run_self.get(root, 0) / max(run_total.get(root, 0), 1)
    return out, sum(run_self.values()) / 1e6 / traced.units


def _set_up(workload, seed: int, workdir: str, count: int, tracer, times: list[float]):
    """Run `count` full set-ups, appending each one's time; returns the last state."""
    state = None
    for _ in range(count):
        state = None  # let the previous set-up's data go first
        t0 = time.perf_counter()
        with _phase(tracer, "setup"):
            state = workload.setup(seed, workdir)
        times.append(time.perf_counter() - t0)
    return state


def _untraced_and_traced(workload, state, seconds: float, tracer, tally):
    """Measure untraced and traced blocks in the order A B B A.

    Interleaving exposes both sides to the same drift in machine speed, so
    their difference is the tracing overhead rather than the drift.
    """
    import workloads
    sides = {False: [], True: []}
    for traced in (False, True, True, False):
        with _phase(tracer if traced else None, "run"):
            sides[traced].append(workload.measure(state, seconds / 4,
                                                  workloads.TRACE_MIN_SAMPLES // 2, tally))
    return [workloads.Run(sum((r.durations for r in runs), []), runs[0].images_per_unit,
                          sum(r.units for r in runs)) for runs in (sides[False], sides[True])]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-64", "eval-64", "predict-304"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    add_sources()
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tally = workloads.Tally()
    tracer = spans.Tracer() if args.trace else None
    scratch = ROOT / "perfbench" / ".work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        # half the set-ups before measuring and half after, so that setup_s
        # samples the machine over the whole run, not only its first seconds
        setup_times: list[float] = []
        state = _set_up(workload, args.seed, workdir, (SETUPS + 1) // 2, tracer, setup_times)
        if tracer is None:
            run = workload.measure(state, args.seconds, workloads.MIN_SAMPLES, tally)
            found = workload.check(state, tally)
        else:
            plain, run = _untraced_and_traced(workload, state, args.seconds, tracer, tally)
            with _phase(tracer, "check"):
                found = workload.check(state, tally)
        state = None
        _set_up(workload, args.seed, workdir, SETUPS // 2, tracer, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no other run is using it

    ok = tally.failed == 0 and len(run.durations) >= 2
    print(f"workload {workload.name} (unit: one {workload.unit})")
    print("meta " + json.dumps(metadata(args.seed, bool(args.trace))))
    if tracer is None:
        metrics = end_to_end(run, setup_times) if ok else dict.fromkeys(END_TO_END, 0.0)
        names = dict(zip(END_TO_END_ALIASES, workload.names))
        for key, unit in END_TO_END.items():
            print(f"{names.get(key, key)} = {metrics[key]:.6g} {unit}")
        print(f"samples = {len(run.durations)} {workload.unit}s")
        if "train_loss_final" in found:
            print(f"train_loss_final = {found['train_loss_final']!r} (mean loss of steps "
                  f"{workloads.LOSS_STEPS - workloads.LOSS_WINDOW + 1}-{workloads.LOSS_STEPS})")
        if "acceptance_steps" in found and ok:
            steps = found["acceptance_steps"]
            estimate = steps * metrics["op_ms_p50"] / 1e3 + metrics["setup_s"]
            print(f"derived, not measured: acceptance_run_s = {estimate:.1f} s "
                  f"({steps} steps x train_step_ms_p50 + setup_s)")
    else:
        metrics, self_sum = per_layer(tracer, workload, plain, run, found) if ok else (
            dict.fromkeys(PER_LAYER, 0.0), 0.0)
        for key, unit in PER_LAYER.items():
            print(f"{key} = {metrics[key]:.6g} {unit}")
        if ok:
            p50 = statistics.median(plain.durations) * 1e3
            off = 100 * (self_sum / p50 - 1)
            verdict = "PASS" if abs(off) <= COVERAGE_GATE_PCT else "FAIL"
            gate = f" (gate +-{COVERAGE_GATE_PCT:g}%: {verdict})" \
                if workload.name == "train-64" else ""
            print(f"trace coverage: self times sum to {self_sum:.6g} ms per {workload.unit}, "
                  f"{off:+.2f}% against the untraced p50 of {p50:.6g} ms{gate}")
    print(f"error_rate = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    for note in tally.notes[:20]:
        print(f"failed: {note}")
    units = END_TO_END if tracer is None else PER_LAYER
    print(json.dumps({"correct": ok, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
