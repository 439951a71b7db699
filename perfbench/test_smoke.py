"""Smoke test of the benchmark itself, at a tiny run length.

    python3 -m pytest perfbench -q

Every workload runs in this process with its run-length floors lowered. The
tests check that each run prints every metric BENCHMARK.json declares, with
its unit, and that a corrupted output is counted as a failed operation and
fails the run.
"""

import json

import pytest

import run

run.add_sources()

import workloads  # noqa: E402  (needs the checkout's src/ on sys.path)
from redae import checkpoint, data, metrics  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    floors = {"MIN_SAMPLES": 3, "TRACE_MIN_SAMPLES": 2, "WARMUP": 1,
              "LOSS_STEPS": 8, "LOSS_WINDOW": 4}
    for name, value in floors.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "SETUPS", 1)


def bench(capsys, workload: str, trace: int):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    return code, out, json.loads(out.splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert WORKLOADS == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    code, out, result = bench(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    lines = out.splitlines()
    for name, unit in declared.items():
        if not trace and name in run.END_TO_END_ALIASES:
            name = workloads.WORKLOADS[workload].names[run.END_TO_END_ALIASES.index(name)]
        assert any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}") for ln in lines), name
    assert f"error_rate = 0 (0 failed / {result['attempted']} attempted)" in lines
    if workload == "train-64" and not trace:
        assert any(ln.startswith("train_loss_final = ") for ln in lines)
        assert any(ln.startswith("derived, not measured: acceptance_run_s") for ln in lines)


def _truncate_masks(write_pgm):
    def write(path, arr):
        write_pgm(path, arr)
        if path.endswith("_mask.pgm"):
            with open(path, "r+b") as f:
                f.truncate(100)
    return write


def _drifting_reports(to_json):
    calls = []

    def write(report):
        calls.append(1)
        return to_json(report) + "\n" * len(calls)
    return write


def _padded_second_save(save):
    def write(net, path):
        save(net, path)
        if path.endswith("model_again.ckpt"):
            with open(path, "ab") as f:
                f.write(b"\0")
    return write


CORRUPTIONS = {
    "predict-304": (data, "write_pgm", _truncate_masks),
    "eval-64": (metrics.MetricsReport, "to_json", _drifting_reports),
    "train-64": (checkpoint, "save", _padded_second_save),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_output_is_a_failed_operation(capsys, monkeypatch, workload):
    owner, attr, corrupt = CORRUPTIONS[workload]
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    code, out, result = bench(capsys, workload, 0)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    rate = result["failed"] / result["attempted"]
    assert f"error_rate = {rate:.6g} ({result['failed']} failed / " \
           f"{result['attempted']} attempted)" in out.splitlines()
