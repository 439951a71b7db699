"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Criteria 5-7 share twelve full training runs (four variants x three seeds)
of the synthetic benchmark; results are cached on disk keyed by a source
hash (see _benchmark.py), so a warm cache makes this module fast while a
cold one takes a few hours of single-core compute.
"""

import math
import os
import statistics
import time

import numpy as np
import pytest

import redae.layers as L
import redae.metrics as M
import redae.network as N
from redae.data import hist_equalize
from redae.optim import OptimizerState, TrainConfig, sgdm_step
from redae.tensor import Rng, Tensor4, grad_check

from _benchmark import BENCH_SEEDS, RUNS, cached_benchmark


def _report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def bench():
    """All twelve benchmark runs, cached on disk across sessions."""
    return {run: cached_benchmark(*run) for run in RUNS}


def test_criterion_1_gradient_correctness():
    """Every layer and the full forward pass pass a central-difference
    gradient check at 1e-4 relative on 10 seeded random inputs, in <= 60 s."""
    from test_layers import _layer_grad_cases

    start = time.monotonic()
    worst_by_case = {}
    for name, factory in _layer_grad_cases():
        worst = 0.0
        for trial in range(10):
            f, x = factory(Rng([0xACC1, trial]))
            worst = max(worst, grad_check(f, x))
        worst_by_case[name] = worst
    for trial in range(10):
        rng = Rng([0xACC2, trial])
        net = N.build("sa-re-dae", (3, 4), 3, rng, dtype=np.float64)
        labels = np.asarray(rng.integers(0, 3, (2, 8, 8)), dtype=np.int64)
        x = rng.tensor_normal((2, 1, 8, 8))
        worst_by_case["full_forward"] = max(
            worst_by_case.get("full_forward", 0.0),
            grad_check(lambda t: N.loss(net, t, labels), x))
    elapsed = time.monotonic() - start
    worst = max(worst_by_case.values())
    ok = worst <= 1e-4 and elapsed <= 60
    _report("criterion 1 (gradient correctness)", ok,
            f"worst relative error {worst:.3e} over {len(worst_by_case)} ops, "
            f"{elapsed:.1f}s")


def test_criterion_2_pooling_algebra():
    """Exact pooling laws on 1,000 seeded random tensors, zero tolerance."""
    rng = Rng(0xACC3)
    checked = 0
    ok = True
    for i in range(1000):
        r = rng.child(i)
        shape = (int(r.integers(1, 3)), int(r.integers(1, 4)),
                 2 * int(r.integers(1, 5)), 2 * int(r.integers(1, 5)))
        x = Tensor4(np.abs(r.normal(shape)))
        y = L.avg_pool(x)
        ok &= np.array_equal(L.avg_pool(L.avg_upsample(y)).data, y.data)
        mx, idx = L.max_pool(x)
        up = L.max_unpool(mx, idx)
        y2, _ = L.max_pool(up)
        ok &= np.array_equal(y2.data, mx.data)
        win = up.data.reshape(shape[0], shape[1], shape[2] // 2, 2,
                              shape[3] // 2, 2)
        nz = (win != 0).sum(axis=(3, 5))
        ok &= bool(np.all(nz <= 1) and np.all((nz == 1) | (mx.data == 0)))
        ok &= bool(np.all(y.data <= mx.data))
        checked += 1
        if not ok:
            break
    _report("criterion 2 (pooling algebra)", ok,
            f"{checked}/1000 random tensors, exact equality")


def test_criterion_3_metric_oracle():
    """All reported metrics match a brute-force rational recount exactly,
    and D = 2J/(1+J) holds, on 200 random mask pairs."""
    from test_metrics import brute_counts, brute_metrics, random_pair

    ok = True
    for i in range(200):
        rng = Rng([0xACC4, i])
        pred, true = random_pair(rng, 3)
        c = M.accumulate(M.ConfusionCounts(3), pred, true)
        tp, fp, fn, tn = brute_counts(pred, true, 3)
        ref = brute_metrics(tp, fp, fn, tn, 3)
        for k in range(3):
            ok &= M.iou_frac(c, k) == ref["iou"][k]
            ok &= M.dice_frac(c, k) == ref["dice"][k]
            ok &= M.recall_frac(c, k) == ref["recall"][k]
            ok &= M.accuracy_ovr_frac(c, k) == ref["acc_ovr"][k]
            j = M.iou_frac(c, k)
            ok &= M.dice_frac(c, k) == 2 * j / (1 + j)
        ok &= M.global_accuracy_frac(c) == ref["global"]
        ok &= M.mean_accuracy_frac(c) == ref["mean_acc"]
        ok &= M.weighted_iou_frac(c) == ref["weighted_iou"]
        if not ok:
            break
    _report("criterion 3 (metric oracle equivalence)", ok,
            "200 mask pairs, exact rational equality incl. D=2J/(1+J)")


def test_criterion_4_hand_derived_values():
    """Momentum recurrence, equalization example, and uniform CE loss."""
    # SGDM: lr=0.1, mu=0.9, g=1 twice from w0=0 gives w2 = -0.29
    params = [("w", Tensor4(np.zeros((1, 1, 1, 1)), requires_grad=True))]
    state = OptimizerState(params)
    cfg = TrainConfig(learning_rate=0.1, momentum=0.9)
    for _ in range(2):
        params[0][1].accumulate_grad(np.ones((1, 1, 1, 1)))
        sgdm_step(params, state, cfg)
        params[0][1].zero_grad()
    w2 = params[0][1].item()

    eq = hist_equalize(np.array([[52, 52], [154, 205]], dtype=np.uint8))
    eq_ok = eq.tolist() == [[0, 0], [128, 255]]

    probs = Tensor4(np.full((1, 3, 4, 4), 1.0 / 3.0))
    ce = L.weighted_cross_entropy(probs, np.zeros((1, 4, 4), dtype=np.int64),
                                  L.ClassWeights.unit(3)).item()
    ce_ok = abs(ce - math.log(3.0)) <= 1e-12

    ok = abs(w2 - (-0.29)) <= 1e-12 and eq_ok and ce_ok
    _report("criterion 4 (hand-derived values)", ok,
            f"w2={w2:.4f}, equalize->{eq.reshape(-1).tolist()}, "
            f"CE-ln3={ce - math.log(3.0):.2e}")


def test_criterion_5_synthetic_benchmark(bench):
    """200 phantoms, 8:2 split, equalize, 4x augment, 30-epoch default
    training: held-out Dice >= 0.80 muscle / >= 0.60 tear, strictly
    decreasing first->last epoch loss, wall clock within budget."""
    r = bench[("sa-re-dae", 42)]
    muscle = r["per_class"]["Muscle"]["dice"]
    tear = r["per_class"]["Tear"]["dice"]
    loss_drop = r["epoch_losses"][-1] < r["epoch_losses"][0]
    # budget is stated for a 4-core desktop CPU; scale for fewer cores
    budget = 15 * 60 * (4 / min(4, os.cpu_count() or 1))
    in_time = r["train_seconds"] <= budget
    ok = muscle >= 0.80 and tear >= 0.60 and loss_drop and in_time
    _report("criterion 5 (synthetic benchmark)", ok,
            f"muscle Dice {muscle:.4f} (>=0.80), tear Dice {tear:.4f} (>=0.60), "
            f"loss {r['epoch_losses'][0]:.4f}->{r['epoch_losses'][-1]:.4f}, "
            f"{r['train_seconds']:.0f}s of {budget:.0f}s budget "
            f"({os.cpu_count()} core(s))")


def test_criterion_6_static_attention_property(bench):
    """Median held-out tear recall of the weighted variant is at least that
    of the unit-weight variant over three seeds."""
    sa = statistics.median(
        bench[("sa-re-dae", s)]["per_class"]["Tear"]["recall"]
        for s in BENCH_SEEDS)
    plain = statistics.median(
        bench[("re-dae", s)]["per_class"]["Tear"]["recall"]
        for s in BENCH_SEEDS)
    ok = sa >= plain
    _report("criterion 6 (static-attention property)", ok,
            f"median tear recall: weighted {sa:.4f} vs unit {plain:.4f}")


def test_criterion_7_hybrid_pooling_property(bench):
    """Median held-out mean Dice of the hybrid variant is within 0.02 of the
    best single-branch variant (non-inferiority) over three seeds."""
    med = {v: statistics.median(bench[(v, s)]["mean_dice"] for s in BENCH_SEEDS)
           for v in ("re-dae", "max-only", "avg-only")}
    ok = (med["re-dae"] >= med["max-only"] - 0.02
          and med["re-dae"] >= med["avg-only"] - 0.02)
    strictly = (med["re-dae"] >= med["max-only"]
                and med["re-dae"] >= med["avg-only"])
    _report("criterion 7 (hybrid pooling property)", ok,
            f"median mean Dice: hybrid {med['re-dae']:.4f}, "
            f"max-only {med['max-only']:.4f}, avg-only {med['avg-only']:.4f}"
            f"{' (strictly superior)' if strictly else ''}")


def test_criterion_8_determinism_and_formats(tmp_path):
    """Same seed gives byte-identical datasets and checkpoints; a loaded
    checkpoint reproduces logits within 1e-5 relative; the report header
    matches its pinned format exactly."""
    import redae.checkpoint as C
    from redae.cli import main
    from test_cli import tree_bytes

    ok = True
    details = []

    # byte-identical generated + augmented datasets
    dirs = []
    for tag in ("a", "b"):
        raw = str(tmp_path / f"raw_{tag}")
        prep = str(tmp_path / f"prep_{tag}")
        assert main(["generate", "--out", raw, "--count", "8",
                     "--size", "32,32", "--seed", "11"]) == 0
        assert main(["preprocess", "--in", raw, "--out", prep,
                     "--augment", "2"]) == 0
        dirs.append((raw, prep))
    same_raw = tree_bytes(dirs[0][0]) == tree_bytes(dirs[1][0])
    same_prep = tree_bytes(dirs[0][1]) == tree_bytes(dirs[1][1])
    ok &= same_raw and same_prep
    details.append(f"datasets byte-identical={same_raw and same_prep}")

    # byte-identical checkpoints from identical runs
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("epochs=2\nwidths=2,3\nlearning_rate=0.001\n")
    ckpts = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"m_{tag}.ckpt")
        assert main(["train", "--data", dirs[0][1], "--config", str(cfg),
                     "--seed", "3", "--out", out]) == 0
        ckpts.append(open(out, "rb").read())
    same_ckpt = ckpts[0] == ckpts[1]
    ok &= same_ckpt
    details.append(f"checkpoints byte-identical={same_ckpt}")

    # logits reproduced within 1e-5 relative after a save/load round trip
    from test_checkpoint import trained_net
    net = trained_net("sa-re-dae", seed=4)
    C.save(net, str(tmp_path / "rt.ckpt"))
    loaded = C.load(str(tmp_path / "rt.ckpt"))
    x = Rng(1).tensor_normal((1, 1, 32, 32), scale=0.1)
    x.data[:] = np.abs(x.data) % 1.0
    a = N.forward(net, x).data
    b = N.forward(loaded, x).data
    rel = float((np.abs(a - b) / np.maximum(1.0, np.abs(a))).max())
    ok &= rel <= 1e-5
    details.append(f"logit reload error {rel:.1e}")

    # pinned report header
    counts = M.accumulate(M.ConfusionCounts(3),
                          np.zeros((4, 4), np.int64), np.zeros((4, 4), np.int64))
    header = M.render_report(M.compute_report(counts)).splitlines()[0]
    header_ok = header == \
        "Region | DS % | Accuracy % | IOU % | Global Acc% | Weighed IOU%"
    ok &= header_ok
    details.append(f"header pinned={header_ok}")

    _report("criterion 8 (determinism & formats)", ok, "; ".join(details))
