"""Accuracy reporting, paired tests and shot-sweep bookkeeping.

Predictions are argmax over class logits; ties resolve to the lowest class
index so evaluation is deterministic.  Reports split accuracy into base and
novel groups, mirroring the two-phase protocol.
"""

import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .embeddings import save_csv
from .head import Head, check_finite, forward_pass
from .records import FeatureSet, batch_features


@dataclass
class MetricsReport:
    class_names: tuple
    per_class_accuracy: dict
    base_accuracy: float
    novel_accuracy: float
    overall_accuracy: float
    confusion: np.ndarray  # rows = true class, cols = predicted
    record_count: int

    def to_json(self) -> dict:
        return {
            "record_count": self.record_count,
            "overall_accuracy": self.overall_accuracy,
            "base_accuracy": _or_null(self.base_accuracy),
            "novel_accuracy": _or_null(self.novel_accuracy),
            "per_class_accuracy": self.per_class_accuracy,
            "confusion": self.confusion.tolist(),
            "class_names": list(self.class_names),
        }


def _or_null(group_accuracy: float):
    """A group's accuracy for JSON: None (``null``) for a group with no records."""
    return None if math.isnan(group_accuracy) else group_accuracy


def evaluate(head: Head, data: FeatureSet) -> MetricsReport:
    """Per-class and grouped accuracy over labeled records."""
    if not len(data):
        raise ValueError("evaluate needs at least one record")
    labels = data.label_indices(head.registry)
    scores = check_finite(head, forward_pass(head, batch_features(data)).logits.value,
                          "class scores")
    preds = np.argmax(scores, axis=0)

    confusion = np.zeros((head.registry.n,) * 2, dtype=np.int64)
    np.add.at(confusion, (labels, preds), 1)

    names = head.registry.names
    totals = confusion.sum(axis=1)
    per_class = {name: float(confusion[i, i] / totals[i])
                 for i, name in enumerate(names) if totals[i]}

    def group_acc(indices):
        accs = [per_class[names[i]] for i in indices if totals[i]]
        return float(np.mean(accs)) if accs else math.nan

    return MetricsReport(
        class_names=names,
        per_class_accuracy=per_class,
        base_accuracy=group_acc(head.registry.base_indices()),
        novel_accuracy=group_acc(head.registry.novel_indices()),
        overall_accuracy=float((preds == labels).mean()),
        confusion=confusion,
        record_count=len(data),
    )


def paired_onesided_pvalue(greater, lesser) -> float:
    """One-sided paired t-test p-value for mean(greater) > mean(lesser).

    Zero-variance difference vectors short-circuit: identical samples give
    p=1, a constant positive gap gives p=0.  Only an exactly constant gap
    counts; gaps that differ by rounding go to the t-test.  The t-test runs
    on the differences scaled by an exact power of two to a largest
    magnitude in [0.5, 1), which leaves t as it is while its mean cannot
    overflow and its variance cannot underflow.  Samples whose differences
    overflow float64 are an error.
    """
    a = np.asarray(greater, dtype=np.float64)
    b = np.asarray(lesser, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired test needs two equal-length 1-D samples")
    if a.size < 2:
        raise ValueError("paired test needs at least two pairs")
    for name, sample in (("greater", a), ("lesser", b)):
        if not np.isfinite(sample).all():
            raise ValueError(f"paired test sample {name!r} holds a non-finite value")
    try:
        with np.errstate(over="raise"):
            diff = a - b
    except FloatingPointError as exc:
        raise ValueError(f"paired test overflows float64: {exc}") from None
    if (diff == diff[0]).all():
        return 0.0 if diff[0] > 0 else 1.0
    from scipy import stats  # deferred: no CLI command needs it, and it dominates import time

    scaled = np.ldexp(diff, -np.frexp(np.abs(diff).max())[1])
    return float(stats.ttest_1samp(scaled, 0.0, alternative="greater").pvalue)


@dataclass
class SweepRow:  # one line of sweep.csv, in column order
    k: int
    seed: int
    base_accuracy_before: float
    base_accuracy: float
    novel_accuracy: float


@dataclass
class SweepResult:
    rows: list

    def _mean(self, k: int, field: str) -> float:
        vals = [getattr(r, field) for r in self.rows if r.k == k]
        if not vals:
            raise ValueError(f"no sweep rows for k={k}")
        return float(np.mean(vals))

    def mean_novel(self, k: int) -> float:
        return self._mean(k, "novel_accuracy")

    def mean_base(self, k: int) -> float:
        return self._mean(k, "base_accuracy")

    def summary(self) -> dict:
        ks = sorted({r.k for r in self.rows})
        return {
            "shots": ks,
            "mean_novel_accuracy": {str(k): self.mean_novel(k) for k in ks},
            "mean_base_accuracy": {str(k): self.mean_base(k) for k in ks},
            "runs": len(self.rows),
        }


def save_sweep_csv(path, rows):
    save_csv(path, [f.name for f in fields(SweepRow)], map(astuple, rows))
