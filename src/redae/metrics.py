"""Pixel-level confusion accounting and segmentation metrics.

Counts are exact integers. Metric values are computed as exact rationals
(`fractions.Fraction`) and converted to percent floats only when a report is
assembled, so incremental accumulation and a brute-force recount agree
exactly.

Conventions, pinned for degenerate inputs:
* IoU / Dice / recall with a zero denominator (class absent from both truth
  and prediction) report 100.
* The printed table's per-class "Accuracy %" column shows recall; the
  one-vs-rest accuracy is also computed and kept in the JSON record as
  ``accuracy_ovr``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DataError, ShapeError

TABLE_HEADER = "Region | DS % | Accuracy % | IOU % | Global Acc% | Weighed IOU%"
CLASS_NAMES = ("Background", "Muscle", "Tear")  # then class3, class4, ...


def class_name(k: int) -> str:
    return CLASS_NAMES[k] if k < len(CLASS_NAMES) else f"class{k}"


@dataclass
class ConfusionCounts:
    """One-vs-rest TP/FP/FN/TN pixel tallies per class."""

    classes: int
    tp: np.ndarray = field(default=None)
    fp: np.ndarray = field(default=None)
    fn: np.ndarray = field(default=None)
    tn: np.ndarray = field(default=None)

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(self.classes, dtype=np.int64))

    @property
    def total(self) -> int:
        return int(self.tp[0] + self.fp[0] + self.fn[0] + self.tn[0])

    def truth_pixels(self, c: int) -> int:
        return int(self.tp[c] + self.fn[c])


def accumulate(counts: ConfusionCounts, pred: np.ndarray, true: np.ndarray) -> ConfusionCounts:
    """Add one predicted/true mask pair into the tallies (in place)."""
    pred = np.asarray(pred)
    true = np.asarray(true)
    if pred.shape != true.shape:
        raise ShapeError(f"mask shapes differ: {pred.shape} vs {true.shape}")
    k = counts.classes
    if pred.size and (min(pred.min(), true.min()) < 0 or max(pred.max(), true.max()) >= k):
        raise DataError(f"mask label outside [0, {k}), the class count")
    # one class's TP is a diagonal cell of the confusion matrix m[true, pred], its
    # FP and FN the rest of its column and of its row
    pairs = true.reshape(-1).astype(np.intp) * k + pred.reshape(-1)
    m = np.bincount(pairs, minlength=k * k).reshape(k, k)
    tp = np.diagonal(m)
    counts.tp += tp
    counts.fp += m.sum(axis=0) - tp
    counts.fn += m.sum(axis=1) - tp
    counts.tn += pred.size - m.sum(axis=0) - m.sum(axis=1) + tp
    return counts


# ---------------------------------------------------------------------------
# Exact per-class measures (fractions in [0, 1])


def _ratio(num: int, den: int, vacuous: Fraction = Fraction(1)) -> Fraction:
    return Fraction(num, den) if den else vacuous


def iou_frac(c: ConfusionCounts, k: int) -> Fraction:
    return _ratio(int(c.tp[k]), int(c.tp[k] + c.fp[k] + c.fn[k]))


def dice_frac(c: ConfusionCounts, k: int) -> Fraction:
    return _ratio(2 * int(c.tp[k]), int(2 * c.tp[k] + c.fp[k] + c.fn[k]))


def recall_frac(c: ConfusionCounts, k: int) -> Fraction:
    return _ratio(int(c.tp[k]), int(c.tp[k] + c.fn[k]))


def accuracy_ovr_frac(c: ConfusionCounts, k: int) -> Fraction:
    return Fraction(int(c.tp[k] + c.tn[k]), c.total)


def global_accuracy_frac(c: ConfusionCounts) -> Fraction:
    return Fraction(int(c.tp.sum()), c.total)


def mean_accuracy_frac(c: ConfusionCounts) -> Fraction:
    return sum(recall_frac(c, k) for k in range(c.classes)) / c.classes


def weighted_iou_frac(c: ConfusionCounts) -> Fraction:
    total = c.total
    return sum(Fraction(c.truth_pixels(k), total) * iou_frac(c, k)
               for k in range(c.classes))


def iou(counts: ConfusionCounts, k: int) -> float:
    return float(iou_frac(counts, k) * 100)


def dice(counts: ConfusionCounts, k: int) -> float:
    return float(dice_frac(counts, k) * 100)


def recall(counts: ConfusionCounts, k: int) -> float:
    return float(recall_frac(counts, k) * 100)


def class_accuracy(counts: ConfusionCounts, k: int) -> tuple[float, float]:
    """(one-vs-rest accuracy, recall), both in percent."""
    return float(accuracy_ovr_frac(counts, k) * 100), recall(counts, k)


# ---------------------------------------------------------------------------
# Report


@dataclass
class ClassMetrics:
    name: str
    dice: float
    accuracy_ovr: float
    recall: float
    iou: float
    truth_pixels: int


@dataclass
class MetricsReport:
    classes: list[ClassMetrics]
    global_accuracy: float
    mean_accuracy: float
    weighted_iou: float
    total_pixels: int

    def class_by_name(self, name: str) -> ClassMetrics:
        for c in self.classes:
            if c.name.lower() == name.lower():
                return c
        raise KeyError(name)

    def to_json(self) -> str:
        return json.dumps({
            "classes": [vars(c) for c in self.classes],
            "global_accuracy": self.global_accuracy,
            "mean_accuracy": self.mean_accuracy,
            "weighted_iou": self.weighted_iou,
            "total_pixels": self.total_pixels,
        }, indent=2)


def compute_report(counts: ConfusionCounts) -> MetricsReport:
    if counts.total == 0:
        raise DataError("cannot compute metrics from empty accumulation")
    per_class = []
    for k in range(counts.classes):
        acc, rec = class_accuracy(counts, k)
        per_class.append(ClassMetrics(name=class_name(k), dice=dice(counts, k),
                                      accuracy_ovr=acc, recall=rec,
                                      iou=iou(counts, k),
                                      truth_pixels=counts.truth_pixels(k)))
    return MetricsReport(classes=per_class,
                         global_accuracy=float(global_accuracy_frac(counts) * 100),
                         mean_accuracy=float(mean_accuracy_frac(counts) * 100),
                         weighted_iou=float(weighted_iou_frac(counts) * 100),
                         total_pixels=counts.total)


def render_report(report: MetricsReport, foreground=("Muscle", "Tear")) -> str:
    """Text table in the pinned column layout; foreground classes only.

    Global columns are printed once, on the first row.
    """
    lines = [TABLE_HEADER]
    for i, name in enumerate(foreground):
        c = report.class_by_name(name)
        glob = f"{report.global_accuracy:.2f} | {report.weighted_iou:.2f}" if i == 0 else " | "
        lines.append(f"{c.name} | {c.dice:.2f} | {c.recall:.2f} | {c.iou:.2f} | {glob}")
    return "\n".join(lines)


def report_csv_rows(report: MetricsReport, model: str) -> list[str]:
    """`metrics.csv` rows: one per class per model."""
    rows = []
    for c in report.classes:
        rows.append(f"{model},{c.name},{c.dice:.6f},{c.accuracy_ovr:.6f},"
                    f"{c.recall:.6f},{c.iou:.6f},{report.global_accuracy:.6f},"
                    f"{report.mean_accuracy:.6f},{report.weighted_iou:.6f}")
    return rows


CSV_HEADER = ("model,region,dice,accuracy_ovr,recall,iou,"
              "global_accuracy,mean_accuracy,weighted_iou")
