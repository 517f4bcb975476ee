"""Classification metrics: confusion matrices, Wald intervals, one-vs-rest
statistics with macro averaging, Cohen's kappa, and threshold-sweep ROC / PR
curves with trapezoidal AUC and non-interpolated average precision.

Conventions
-----------
* Classes are indexed 0=A-EGJA, 1=E-EGJA, 2=control (severity order).
* Confidence intervals are 95% Wald: p +- 1.96*sqrt(p(1-p)/n). Presentation
  bounds are clipped to [0, 1]; the unclipped bounds are kept alongside
  because macro averages are taken over the unclipped values before the
  final clip (clipping first would bias the pooled interval inward).
* Zero-denominator ratios are flagged undefined (value None), excluded from
  macro means, and reported in the warnings list; they are never coerced to 0.
* All computation is float64; rounding happens only at presentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .data import CLASS_ORDER, ClassLabel

__all__ = [
    "Z_95",
    "RateCI",
    "BinaryStats",
    "OverallStats",
    "CurveSeries",
    "MetricReport",
    "METRIC_NAMES",
    "confusion_matrix",
    "rate_ci",
    "class_stats",
    "macro_stats",
    "cohen_kappa",
    "curve_pair",
    "micro_curves",
    "binary_scored",
    "repr_runs",
    "compute_report",
]

Z_95 = 1.96


@dataclass(frozen=True)
class RateCI:
    """A proportion with its Wald interval.

    ``lo``/``hi`` are clipped to [0, 1]; ``raw_lo``/``raw_hi`` are not.
    ``value`` is None when the underlying ratio has a zero denominator.
    """

    value: float | None
    lo: float | None = None
    hi: float | None = None
    raw_lo: float | None = None
    raw_hi: float | None = None

    @property
    def defined(self) -> bool:
        return self.value is not None

    def as_dict(self) -> dict:
        if not self.defined:
            return {"value": None}
        return {"value": self.value, "ci95": [self.lo, self.hi]}


def rate_ci(num: float, den: float) -> RateCI:
    """RateCI for num/den; undefined (value None) when den == 0."""
    if den == 0:
        return RateCI(value=None)
    p = num / den
    half = Z_95 * float(np.sqrt(p * (1.0 - p) / den))
    return RateCI(
        value=p,
        lo=max(0.0, p - half),
        hi=min(1.0, p + half),
        raw_lo=p - half,
        raw_hi=p + half,
    )


def confusion_matrix(
    truths: Sequence[int], preds: Sequence[int], weights: Sequence[float] | None = None
) -> np.ndarray:
    """Accumulate a (possibly weighted) truth-by-prediction confusion matrix:
    a read-only (3, 3) float64 array in canonical class order. Counts are
    float64 so weighted and unit-weight matrices share one type; unit-weight
    accumulation stays exact because small integers are exact in binary floats.
    """
    t = np.asarray(truths, dtype=np.int64)
    p = np.asarray(preds, dtype=np.int64)
    if t.shape != p.shape:
        raise ValueError("truths and preds must have the same length")
    if t.size == 0:
        raise ValueError("cannot build a confusion matrix from zero records")
    if np.any((t < 0) | (t > 2)) or np.any((p < 0) | (p > 2)):
        raise ValueError("labels must be in {0, 1, 2}")
    if weights is None:
        w = np.ones(t.size, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != t.shape:
            raise ValueError("weights must match truths in length")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite and non-negative")
    counts = np.zeros((3, 3), dtype=np.float64)
    np.add.at(counts, (t, p), w)
    counts.flags.writeable = False
    return counts


@dataclass(frozen=True)
class BinaryStats:
    """One-vs-rest statistics for a single class.

    PPV uses the predicted-positive count as its denominator; NPV the
    predicted-negative count.
    """

    cls: ClassLabel
    tp: float
    fp: float
    fn: float
    tn: float
    accuracy: RateCI
    sensitivity: RateCI
    specificity: RateCI
    ppv: RateCI
    npv: RateCI

    def as_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "tn": self.tn,
            "accuracy": self.accuracy.as_dict(),
            "sensitivity": self.sensitivity.as_dict(),
            "specificity": self.specificity.as_dict(),
            "ppv": self.ppv.as_dict(),
            "npv": self.npv.as_dict(),
        }


METRIC_NAMES = ("accuracy", "sensitivity", "specificity", "ppv", "npv")


def class_stats(cm: np.ndarray, cls: ClassLabel) -> BinaryStats:
    """One-vs-rest accuracy/sensitivity/specificity/PPV/NPV for one class."""
    k = int(cls)
    total = float(cm.sum())
    tp = float(cm[k, k])
    fn = float(cm[k].sum() - tp)
    fp = float(cm[:, k].sum() - tp)
    tn = float(total - tp - fn - fp)
    return BinaryStats(
        cls=cls,
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        accuracy=rate_ci(tp + tn, total),
        sensitivity=rate_ci(tp, tp + fn),
        specificity=rate_ci(tn, tn + fp),
        ppv=rate_ci(tp, tp + fp),
        npv=rate_ci(tn, tn + fn),
    )


@dataclass(frozen=True)
class OverallStats:
    """Macro-averaged metrics plus plain overall accuracy.

    Per-class values are averaged arithmetically; their interval bounds are
    averaged on the unclipped scale and clipped once at the end. Undefined
    per-class values are excluded from the mean with a warning; the overall
    value is None only when all three classes are undefined.
    """

    accuracy: RateCI
    sensitivity: RateCI
    specificity: RateCI
    ppv: RateCI
    npv: RateCI
    warnings: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {name: getattr(self, name).as_dict() for name in METRIC_NAMES}


def _macro_rate(stats: Sequence[BinaryStats], name: str, warnings: list[str]) -> RateCI:
    defined = [getattr(s, name) for s in stats if getattr(s, name).defined]
    for s in stats:
        if not getattr(s, name).defined:
            warnings.append(f"{name} undefined for class {s.cls.display}; excluded from macro mean")
    if not defined:
        return RateCI(value=None)
    value = sum(r.value for r in defined) / len(defined)
    raw_lo = sum(r.raw_lo for r in defined) / len(defined)
    raw_hi = sum(r.raw_hi for r in defined) / len(defined)
    return RateCI(
        value=value,
        lo=max(0.0, raw_lo),
        hi=min(1.0, raw_hi),
        raw_lo=raw_lo,
        raw_hi=raw_hi,
    )


def macro_stats(per_class: Sequence[BinaryStats], cm: np.ndarray) -> OverallStats:
    """Overall metrics: macro means of the per-class stats, plus overall accuracy
    computed directly as trace/total with its own Wald interval."""
    warnings: list[str] = []
    overall_acc = rate_ci(float(np.trace(cm)), float(cm.sum()))
    return OverallStats(
        accuracy=overall_acc,
        sensitivity=_macro_rate(per_class, "sensitivity", warnings),
        specificity=_macro_rate(per_class, "specificity", warnings),
        ppv=_macro_rate(per_class, "ppv", warnings),
        npv=_macro_rate(per_class, "npv", warnings),
        warnings=tuple(warnings),
    )


def cohen_kappa(cm: np.ndarray) -> float:
    """Cohen's kappa from a (possibly weighted) agreement matrix.

    Returns 1.0 for perfect agreement even when chance agreement is also
    perfect (single shared category); returns NaN for the degenerate case
    p_e == 1 with p_o < 1, which cannot arise from a real cross-table.
    """
    counts = np.asarray(cm, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValueError(f"agreement matrix must be square, got {counts.shape}")
    total = float(counts.sum())
    if total <= 0:
        raise ValueError("empty confusion matrix")
    p_o = float(np.trace(counts)) / total
    marg = counts.sum(axis=1) / total
    marg_c = counts.sum(axis=0) / total
    p_e = float(np.dot(marg, marg_c))
    if 1.0 - p_e < 1e-15:
        return 1.0 if p_o >= 1.0 - 1e-12 else float("nan")
    return (p_o - p_e) / (1.0 - p_e)


def repr_runs(values: np.ndarray) -> list[str]:
    """``repr`` of each value of a float64 array, computed once per run of
    bit-identical neighbours (so ``-0.0`` and ``0.0`` stay apart)."""
    bits = values.view(np.int64)
    new = np.empty(bits.size, dtype=bool)
    new[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=new[1:])
    texts = list(map(repr, values[new].tolist()))
    if len(texts) == values.size:
        return texts
    return list(map(texts.__getitem__, (np.cumsum(new) - 1).tolist()))


@dataclass(frozen=True, eq=False)
class CurveSeries:
    """A ROC or PR curve: points plus its summary area.

    ``kind`` is "ROC" (x=FPR, y=TPR, area=AUC) or "PR" (x=recall,
    y=precision, area=average precision). ``x``, ``y`` and ``thresholds``
    are read-only float64 arrays of equal length; the ROC origin carries
    threshold +inf.
    """

    kind: str
    x: np.ndarray
    y: np.ndarray
    thresholds: np.ndarray
    area: float

    def __post_init__(self) -> None:
        for arr in (self.x, self.y, self.thresholds):
            arr.flags.writeable = False

    def to_csv(self, columns: tuple[list[str], list[str], list[str]], head: bool = True) -> str:
        """The curve as CSV: a ``# kind= area=`` line, a header, one row per point.

        ``columns`` holds the x, y and threshold texts (``repr_runs`` of each
        array, see ``report.curve_csvs``), of all rows or of a block of them.
        ``head=False`` leaves out the two header lines.
        """
        x, y, t = columns
        comma = repeat(",")
        rows = chain.from_iterable(zip(x, comma, y, comma, t, repeat("\n")))
        lines = (f"# kind={self.kind} area={self.area!r}\nx,y,threshold\n",) if head else ()
        return "".join(chain(lines, rows))


def _grouped_sweep(
    scores: np.ndarray, labels: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative (threshold, positive-mass, total-mass) at each distinct score,
    sweeping thresholds from high to low with tied scores grouped."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    pos_w = (weights * labels)[order]
    all_w = weights[order]
    # last index of each tie group
    last = np.flatnonzero(np.diff(s))
    idx = np.append(last, s.size - 1)
    cum_pos = np.cumsum(pos_w)[idx]
    cum_all = np.cumsum(all_w)[idx]
    return s[idx], cum_pos, cum_all


def binary_scored(labels, *scores) -> tuple[np.ndarray, ...]:
    """Each score vector, then the labels, as float64 arrays, once they are
    checked: 1-D and of one length, finite scores, labels in {0, 1}."""
    y = np.asarray(labels, dtype=np.float64)
    arrays = [np.asarray(s, dtype=np.float64) for s in scores]
    if y.ndim != 1 or any(s.shape != y.shape for s in arrays):
        raise ValueError("scores and labels must be 1-D and equal length")
    if not all(np.all(np.isfinite(s)) for s in arrays):
        raise ValueError("scores must be finite")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be binary 0/1")
    return (*arrays, y)


def _validate_scored(scores, labels, weights):
    """Checked float64 scores, labels and weights, without the samples of
    zero weight (they move neither curve, and would give a precision of
    0/0), and the positive and negative mass."""
    s, y = binary_scored(labels, scores)
    if weights is None:
        w = np.ones(s.size, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != s.shape or np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite, non-negative, and match scores")
        if not w.all():
            keep = w > 0
            s, y, w = s[keep], y[keep], w[keep]
    pos = float((w * y).sum())
    neg = float(w.sum() - pos)
    if pos <= 0 or neg <= 0:
        raise ValueError("need positive mass in both classes for a curve")
    return s, y, w, pos, neg


# perfbench/spans.py wraps roc_points and pr_points by name: each runs once
# per curve set, as the two derivations of the set's one sweep.
def roc_points(sweep, pos: float, neg: float) -> CurveSeries:
    """ROC curve of a ``_grouped_sweep`` over ``pos`` positive and ``neg``
    negative mass, with trapezoidal AUC: over grouped ties it equals the
    Mann-Whitney statistic with half credit for ties."""
    thr, cum_pos, cum_all = sweep
    tpr = np.concatenate(([0.0], cum_pos / pos))
    fpr = np.concatenate(([0.0], (cum_all - cum_pos) / neg))
    thresholds = np.concatenate(([np.inf], thr))
    area = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) * 0.5))
    return CurveSeries(kind="ROC", x=fpr, y=tpr, thresholds=thresholds, area=area)


def pr_points(sweep, roc: CurveSeries) -> CurveSeries:
    """Precision-recall curve of the sweep that gave ``roc``; area is
    non-interpolated average precision (sum of precision times recall
    increment over tie groups). Recall and thresholds are views of the ROC
    TPR and thresholds without the origin; only precision is a new array."""
    _, cum_pos, cum_all = sweep
    precision = cum_pos / cum_all
    area = float(np.sum(precision * np.diff(roc.y)))
    return CurveSeries(kind="PR", x=roc.y[1:], y=precision, thresholds=roc.thresholds[1:], area=area)


def curve_pair(scores, labels, weights=None) -> tuple[CurveSeries, CurveSeries]:
    """ROC and PR curves of binary labels, from one validated sweep of the
    scores (see ``roc_points`` and ``pr_points``). Samples of zero weight
    are left out: the curves are those of the other samples."""
    s, y, w, pos, neg = _validate_scored(scores, labels, weights)
    sweep = _grouped_sweep(s, y, w)
    roc = roc_points(sweep, pos, neg)
    return roc, pr_points(sweep, roc)


def micro_curves(
    probs: np.ndarray, truths: np.ndarray, weights: np.ndarray | None = None
) -> tuple[CurveSeries, CurveSeries]:
    """Micro-averaged ROC and PR curves.

    Flattens each record into three (score, is-this-class) pairs, one per
    class, and sweeps a single threshold over the pooled pool. Each pair
    inherits its record's weight.
    """
    p = np.asarray(probs, dtype=np.float64)
    t = np.asarray(truths, dtype=np.int64)
    if p.ndim != 2 or p.shape[1] != 3 or p.shape[0] != t.size:
        raise ValueError("probs must be (n, 3) aligned with truths")
    n = t.size
    scores = p.reshape(-1)
    onehot = np.zeros((n, 3), dtype=np.float64)
    onehot[np.arange(n), t] = 1.0
    labels = onehot.reshape(-1)
    if weights is None:
        w = None
    else:
        w = np.repeat(np.asarray(weights, dtype=np.float64), 3)
    return curve_pair(scores, labels, w)


@dataclass(frozen=True, eq=False)
class MetricReport:
    """Full evaluation bundle at one analysis level.

    ``curves`` maps ``"micro"``, then each class slug in ``CLASS_ORDER``, to
    that set's (ROC, PR) pair; a set whose sweep raised is absent. The
    ``auc`` and ``ap`` blocks of ``as_dict`` are the areas of these curves.
    """

    level: str
    n: float
    cm: np.ndarray
    per_class: tuple[BinaryStats, BinaryStats, BinaryStats]
    overall: OverallStats
    kappa: float
    curves: dict[str, tuple[CurveSeries, CurveSeries]] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()
    time_cost_s: float | None = None

    def as_dict(self) -> dict:
        out = {
            "level": self.level,
            "n": self.n,
            "tie_break": "severity",
            "confusion_matrix": {
                "classes": [c.display for c in CLASS_ORDER],
                "counts": self.cm.tolist(),
            },
            "per_class": {s.cls.display: s.as_dict() for s in self.per_class},
            "overall": self.overall.as_dict(),
            "kappa": None if np.isnan(self.kappa) else self.kappa,
        }
        if "micro" in self.curves:
            for key, k in (("auc", 0), ("ap", 1)):
                areas = {name: pair[k].area for name, pair in self.curves.items()}
                out[key] = {"micro": areas.pop("micro"), "per_class": areas}
        if self.time_cost_s is not None:
            out["time_cost_s"] = self.time_cost_s
        out["warnings"] = list(self.warnings)
        return out


def compute_report(
    truths,
    preds,
    probs=None,
    weights=None,
    level: str = "image",
    time_cost_s: float | None = None,
    extra_warnings: Sequence[str] = (),
) -> MetricReport:
    """Assemble the full metric bundle for a set of (truth, prediction) pairs.

    When ``probs`` is given, per-class and micro ROC/PR curves are added.
    ``weights`` switches every count, interval, and curve to weighted form;
    the effective n (sum of weights) replaces the record count everywhere.
    """
    t = np.asarray(truths, dtype=np.int64)
    pr = np.asarray(preds, dtype=np.int64)
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    cm = confusion_matrix(t, pr, w)
    per_class = tuple(class_stats(cm, c) for c in CLASS_ORDER)
    overall = macro_stats(per_class, cm)
    kappa = cohen_kappa(cm)
    n_eff = float(cm.sum())
    warnings = list(extra_warnings) + list(overall.warnings)

    curves: dict[str, tuple[CurveSeries, CurveSeries]] = {}
    if probs is not None:
        p = np.asarray(probs, dtype=np.float64)
        for name, k in [("micro", None)] + [(c.slug, int(c)) for c in CLASS_ORDER]:
            try:
                if k is None:
                    curves[name] = micro_curves(p, t, w)
                else:
                    y = (t == k).astype(np.float64)
                    curves[name] = curve_pair(p[:, k], y, w)
            except ValueError as exc:
                warnings.append(f"curves for {name} skipped: {exc}")

    return MetricReport(
        level=level,
        n=n_eff,
        cm=cm,
        per_class=per_class,  # type: ignore[arg-type]
        overall=overall,
        kappa=kappa,
        curves=curves,
        warnings=tuple(warnings),
        time_cost_s=time_cost_s,
    )
