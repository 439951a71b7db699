"""Confusion-matrix metrics against an independent brute-force oracle."""

import json
from fractions import Fraction

import numpy as np
import pytest

import redae.metrics as M
from redae.errors import DataError
from redae.tensor import Rng


def brute_counts(pred: np.ndarray, true: np.ndarray, classes: int):
    """Per-pixel Python-loop recount, independent of the library vectorization."""
    tp = [0] * classes
    fp = [0] * classes
    fn = [0] * classes
    tn = [0] * classes
    for p, t in zip(pred.reshape(-1).tolist(), true.reshape(-1).tolist()):
        for k in range(classes):
            if p == k and t == k:
                tp[k] += 1
            elif p == k and t != k:
                fp[k] += 1
            elif p != k and t == k:
                fn[k] += 1
            else:
                tn[k] += 1
    return tp, fp, fn, tn


def brute_metrics(tp, fp, fn, tn, classes):
    """Exact rational metrics; vacuous ratios (0/0) evaluate to 1."""
    def ratio(n, d):
        return Fraction(n, d) if d else Fraction(1)

    out = {"iou": [], "dice": [], "recall": [], "acc_ovr": []}
    total = tp[0] + fp[0] + fn[0] + tn[0]
    for k in range(classes):
        out["iou"].append(ratio(tp[k], tp[k] + fp[k] + fn[k]))
        out["dice"].append(ratio(2 * tp[k], 2 * tp[k] + fp[k] + fn[k]))
        out["recall"].append(ratio(tp[k], tp[k] + fn[k]))
        out["acc_ovr"].append(ratio(tp[k] + tn[k], total))
    out["global"] = ratio(sum(tp), total)
    out["mean_acc"] = sum(out["recall"]) / classes
    out["weighted_iou"] = sum(
        Fraction(tp[k] + fn[k], total) * out["iou"][k] for k in range(classes)
    ) if total else Fraction(1)
    return out


def random_pair(rng, classes=3):
    h = int(rng.integers(1, 17))
    w = int(rng.integers(1, 17))
    # bias towards label 0 so some classes are often absent (vacuous cases)
    true = np.asarray(rng.integers(0, classes + 2, (h, w)), dtype=np.int64)
    pred = np.asarray(rng.integers(0, classes + 2, (h, w)), dtype=np.int64)
    return np.minimum(pred, classes - 1), np.minimum(true, classes - 1)


class TestOracleEquivalence:
    N_PAIRS = 200
    CLASSES = 3

    def test_all_metrics_match_brute_force_exactly(self):
        for i in range(self.N_PAIRS):
            rng = Rng([0x0E0A, i])
            pred, true = random_pair(rng, self.CLASSES)
            c = M.accumulate(M.ConfusionCounts(self.CLASSES), pred, true)
            tp, fp, fn, tn = brute_counts(pred, true, self.CLASSES)
            assert c.tp.tolist() == tp and c.fp.tolist() == fp
            assert c.fn.tolist() == fn and c.tn.tolist() == tn

            ref = brute_metrics(tp, fp, fn, tn, self.CLASSES)
            for k in range(self.CLASSES):
                assert M.iou_frac(c, k) == ref["iou"][k]
                assert M.dice_frac(c, k) == ref["dice"][k]
                assert M.recall_frac(c, k) == ref["recall"][k]
                assert M.accuracy_ovr_frac(c, k) == ref["acc_ovr"][k]
            assert M.global_accuracy_frac(c) == ref["global"]
            assert M.mean_accuracy_frac(c) == ref["mean_acc"]
            assert M.weighted_iou_frac(c) == ref["weighted_iou"]

    def test_dice_iou_identity(self):
        # D = 2J / (1 + J), exactly, for every class of every pair
        for i in range(self.N_PAIRS):
            rng = Rng([0x0E0A, i])
            pred, true = random_pair(rng, self.CLASSES)
            c = M.accumulate(M.ConfusionCounts(self.CLASSES), pred, true)
            for k in range(self.CLASSES):
                j = M.iou_frac(c, k)
                assert M.dice_frac(c, k) == 2 * j / (1 + j)


class TestConventions:
    def test_vacuous_class_scores_100(self):
        # class 2 absent from truth and prediction
        pred = np.zeros((4, 4), dtype=np.int64)
        true = np.zeros((4, 4), dtype=np.int64)
        c = M.accumulate(M.ConfusionCounts(3), pred, true)
        assert M.dice(c, 2) == 100.0
        assert M.iou(c, 2) == 100.0
        assert M.recall(c, 2) == 100.0

    def test_hand_worked_two_class_case(self):
        # truth: 3 pixels of class 1 in 2x3; prediction hits 2, misses 1,
        # and falsely claims 1more
        true = np.array([[1, 1, 1], [0, 0, 0]], dtype=np.int64)
        pred = np.array([[1, 1, 0], [1, 0, 0]], dtype=np.int64)
        c = M.accumulate(M.ConfusionCounts(2), pred, true)
        assert M.iou_frac(c, 1) == Fraction(2, 4)
        assert M.dice_frac(c, 1) == Fraction(4, 6)
        assert M.recall_frac(c, 1) == Fraction(2, 3)
        assert M.global_accuracy_frac(c) == Fraction(4, 6)

    @pytest.mark.parametrize("pred,true", [([[-1, 0]], [[0, 0]]), ([[0, 0]], [[0, -1]]),
                                           ([[3, 0]], [[0, 0]]), ([[0, 0]], [[0, 3]])])
    def test_label_outside_the_classes_rejected(self, pred, true):
        # a -1 used to score as a Background miss, and the report read Dice 66.7
        c = M.ConfusionCounts(3)
        with pytest.raises(DataError, match="outside"):
            M.accumulate(c, np.array(pred), np.array(true))
        assert c.tp.sum() == c.fp.sum() == c.fn.sum() == c.tn.sum() == 0

    def test_shape_mismatch_rejected(self):
        from redae.errors import ShapeError
        with pytest.raises(ShapeError):
            M.accumulate(M.ConfusionCounts(3),
                         np.zeros((2, 2), dtype=np.int64),
                         np.zeros((2, 3), dtype=np.int64))


class TestReport:
    def _report(self):
        rng = Rng(0xBEEF)
        pred, true = random_pair(rng)
        c = M.accumulate(M.ConfusionCounts(3), pred, true)
        return M.compute_report(c)

    def test_table_header_pinned(self):
        text = M.render_report(self._report())
        assert text.splitlines()[0] == \
            "Region | DS % | Accuracy % | IOU % | Global Acc% | Weighed IOU%"

    def test_report_rows_cover_foreground_classes(self):
        text = M.render_report(self._report())
        assert any(line.startswith("Muscle") for line in text.splitlines())
        assert any(line.startswith("Tear") for line in text.splitlines())

    def test_json_round_trip(self):
        rep = self._report()
        d = json.loads(rep.to_json())
        back = M.MetricsReport(classes=[M.ClassMetrics(**c) for c in d.pop("classes")], **d)
        assert back == rep

    def test_csv_rows_parse(self):
        rows = M.report_csv_rows(self._report(), "sa-re-dae")
        assert all(len(r.split(",")) == len(M.CSV_HEADER.split(","))
                   for r in rows)
