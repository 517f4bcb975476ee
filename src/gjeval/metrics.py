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
    "agreement",
    "cohen_kappa",
    "curve_pair",
    "micro_curves",
    "binary_scored",
    "repr_bytes",
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
    A weighted cell sums its records' weights in record order.
    """
    t = np.asarray(truths, dtype=np.int64)
    p = np.asarray(preds, dtype=np.int64)
    if t.ndim != 1 or t.shape != p.shape:
        raise ValueError("truths and preds must be 1-D and of the same length")
    if t.size == 0:
        raise ValueError("cannot build a confusion matrix from zero records")
    if np.any((t < 0) | (t > 2)) or np.any((p < 0) | (p > 2)):
        raise ValueError("labels must be in {0, 1, 2}")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != t.shape:
            raise ValueError("weights must match truths in length")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and non-negative")
    counts = np.bincount(3 * t + p, weights=weights, minlength=9).astype(np.float64, copy=False).reshape(3, 3)
    counts.flags.writeable = False
    return counts


METRIC_NAMES = ("accuracy", "sensitivity", "specificity", "ppv", "npv")


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
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn, "tn": self.tn,
                **{name: getattr(self, name).as_dict() for name in METRIC_NAMES}}


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
    # accuracy is taken over the whole matrix; the other rates are macro means
    rates = {name: _macro_rate(per_class, name, warnings) for name in METRIC_NAMES[1:]}
    return OverallStats(accuracy=rate_ci(float(np.trace(cm)), float(cm.sum())), **rates, warnings=tuple(warnings))


def agreement(cm: np.ndarray) -> tuple[float, float, np.ndarray, np.ndarray, float, bool]:
    """A (possibly weighted) square table's observed agreement p_o (trace /
    total), chance agreement p_e (row by column marginals), its row and column
    marginals as proportions, Cohen's kappa, and whether p_e == 1 (a single
    shared category). kappa is then 1.0 if p_o == 1 and NaN otherwise, which
    cannot arise from a real cross-table."""
    counts = np.asarray(cm, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValueError(f"agreement matrix must be square, got {counts.shape}")
    total = float(counts.sum())
    if total <= 0:
        raise ValueError("empty confusion matrix")
    p_o = float(np.trace(counts)) / total
    row = counts.sum(axis=1) / total
    col = counts.sum(axis=0) / total
    p_e = float(np.dot(row, col))
    if 1.0 - p_e < 1e-15:
        return p_o, p_e, row, col, 1.0 if p_o >= 1.0 - 1e-12 else float("nan"), True
    return p_o, p_e, row, col, (p_o - p_e) / (1.0 - p_e), False


def cohen_kappa(cm: np.ndarray) -> float:
    """Cohen's kappa of a (possibly weighted) agreement matrix, as ``agreement`` gives it."""
    _, _, _, _, kappa, _ = agreement(cm)
    return kappa


_U = np.uint64
_POW5 = _U(5) ** np.arange(15, 22, dtype=_U)  # 5**k for k = 15..21, the k that _scaled sees
_POW10 = _U(10) ** np.arange(5, dtype=_U)


def _digit_words() -> np.ndarray:
    """"0000" to "9999" as uint32 words of ASCII digits, first with their
    trailing zeros as NUL bytes, then whole: index ``g + 10000`` reads ``g``
    whole. Built by broadcasting, so that importing the module stays cheap."""
    digits = np.arange(48, 58, dtype=np.uint8)
    words = np.empty((2, 10, 10, 10, 10, 4), dtype=np.uint8)
    for j, place in enumerate(np.ix_(digits, digits, digits, digits)):
        words[1, ..., j] = place
    kept = words[1] > 48  # a digit that is not 0, or has one after it
    for j in (2, 1, 0):
        kept[..., j] |= kept[..., j + 1]
    words[0] = words[1] * kept
    return words.view(np.uint32).ravel()


_WORDS = _digit_words()
_SPECIAL = np.array([b"0.0", b"-0.0", b"inf"]).view(np.uint8).reshape(3, 4)
_SUB_CHUNK = 2048  # values formatted per vector pass: bounds the temporaries


def _scaled(m: np.ndarray, q: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """For ``v = m / 2**q`` and ``k = 16 - e``: ``floor(v * 10**k)``, the
    remainder of ``m * 5**k`` below ``2**s`` with ``s = q - k``, ``s`` and
    ``5**k``. ``m * 5**k`` (below 2**102) is taken in two uint64 limbs."""
    k = 16 - e
    p5 = _POW5[k - 15]
    s = (q - k).astype(_U)
    m_lo, m_hi = m & _U(0xFFFFFFFF), m >> _U(32)
    p_lo, p_hi = p5 & _U(0xFFFFFFFF), p5 >> _U(32)
    mid = m_lo * p_hi + m_hi * p_lo
    low = m_lo * p_lo
    lo = low + (mid << _U(32))  # modulo 2**64: it wrapped where lo < low
    hi = m_hi * p_hi + (mid >> _U(32)) + (lo < low)
    return (hi << (_U(64) - s)) | (lo >> s), lo & ((_U(1) << s) - _U(1)), s, p5


def _shortest_fixed(v: np.ndarray) -> np.ndarray:
    """``repr`` of each value of ``v``, all finite and in [1e-4, 10), as rows
    of ASCII padded with NUL bytes: (len(v), 22) uint8.

    With ``e = floor(log10 v)`` (``log10`` can be off by one next to a power
    of ten, so it is checked against the 17-digit result), ``v * 10**(16 - e)``
    is ``d17 + rem / 2**s`` exactly. For 15, 16 and 17 significant digits in
    turn, the d-digit numbers just below and above ``v`` are tested against
    ``v``'s rounding interval, half an ulp on each side; the first count with
    one inside wins, the nearer of two, the even one on a tie. Three bounds
    of the general method never act in [1e-4, 10): a candidate never lies on
    an interval's end (an end has 50 or more decimals after the point, a
    candidate at most 21), the narrower interval below a power of two never
    decides (each power of two here has at most 15 significant digits, so
    the 15-digit floor is ``v`` itself) and no candidate rounds up to a
    power of ten (the double nearest each 10**j, j = -3..1, lies at or
    above it).
    """
    bits = v.view(_U)
    m = (bits & _U((1 << 52) - 1)) | _U(1 << 52)
    q = 1075 - (bits >> _U(52)).astype(np.int64)
    e = np.floor(np.log10(v)).astype(np.int64)
    d17, rem, s, p5 = _scaled(m, q, e)
    if (d17 - _U(10**16) >= _U(9 * 10**16)).any():  # some d17 not of 17 digits
        e += (d17 >= _U(10**17)).astype(np.int64) - (d17 < _U(10**16))
        d17, rem, s, p5 = _scaled(m, q, e)
    # distances from v in units of 2**-(s + 2), where the half ulp is 2 * 5**k;
    # the nearer of d17 and d17 + 1 is within it, the even one on a tie
    unit, rem, half_ulp = _U(4) << s, rem << _U(2), p5 << _U(1)
    digits = d17 + (unit - rem < (rem | (d17 & _U(1))))
    for p in (_U(10), _U(100)):
        floor = d17 // p
        below = (d17 - floor * p) * unit + rem
        above = p * unit - below
        # up when it fits and is nearer, or as near and floor is odd (below is even)
        up = (above < half_ulp) & (above < (below | (floor & _U(1))))
        digits = np.where((below < half_ulp) | up, (floor + up) * p, digits)
    # the 20 digits after the point, as 20-digit F = digits * 10**(4 + e)
    # without the leading digit when e = 0; F is taken in 8-digit halves
    lead = digits // _U(10**16)
    frac = np.where(e == 0, digits - lead * _U(10**16), digits)
    scale = _POW10[4 + e]
    low = frac % _U(10**8) * scale
    high = frac // _U(10**8) * scale + low // _U(10**8)
    low %= _U(10**8)
    groups = np.stack([high // _U(10**8), high // _U(10**4) % _U(10**4), high % _U(10**4),
                       low // _U(10**4), low % _U(10**4)])
    # a group is written whole when a later group is not 0000, else trimmed
    whole = np.zeros(groups.shape, dtype=bool)
    for t in range(3, -1, -1):
        whole[t] = whole[t + 1] | (groups[t + 1] != 0)
    out = np.empty((v.size, 24), dtype=np.uint8)
    out[:, 2] = np.where(e == 0, lead, 0) + 48
    out[:, 3] = 46  # "."
    out[:, 4:].view(np.uint32)[...] = _WORDS[groups + whole * _U(10000)].T
    np.maximum(out[:, 4], 48, out=out[:, 4])  # "d.0" keeps its 0
    return out[:, 2:]


def repr_bytes(values: np.ndarray) -> np.ndarray:
    """``repr`` of each value of a 1-D float64 array as the rows of a
    (len(values), W) uint8 array: the ASCII text, padded with NUL bytes to
    the longest. Values in [1e-4, 10) are formatted in numpy
    (``_shortest_fixed``), zeros and ``inf`` from constants, and every other
    value by ``repr``, in one batch."""
    v = np.asarray(values, dtype=np.float64)
    out = np.zeros((v.size, 24), dtype=np.uint8)
    width = 0
    fast = (v >= 1e-4) & (v < 10.0)
    for a in range(0, v.size, _SUB_CHUNK):
        b = a + _SUB_CHUNK
        if fast[a:b].any():  # the other values take "1.0" here, then their own text
            out[a:b, :22] = _shortest_fixed(np.where(fast[a:b], v[a:b], 1.0))
            width = 22
    special = (v == 0.0) | (v == np.inf)
    if special.any():
        chosen = v[special]
        out[special, :4] = _SPECIAL[np.where(chosen == np.inf, 2, np.signbit(chosen))]
        width = max(width, 4)
    other = ~(fast | special)
    if other.any():
        texts = np.array(list(map(repr, v[other].tolist())), dtype=np.bytes_)
        out[other, : texts.itemsize] = texts.view(np.uint8).reshape(texts.size, -1)
        width = max(width, texts.itemsize)
    return out[:, :width]


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

    def to_csv(self, columns: tuple[np.ndarray, np.ndarray, np.ndarray], head: bool = True) -> str:
        """The curve as CSV: a ``# kind= area=`` line, a header, one row per point.

        ``columns`` holds the x, y and threshold texts as ``repr_bytes``
        rows (see ``report.curve_csvs``), of all rows or of a block of them.
        ``head=False`` leaves out the two header lines.
        """
        x, y, t = columns
        comma, newline = (np.full((x.shape[0], 1), c, dtype=np.uint8) for c in b",\n")
        rows = np.concatenate((x, comma, y, comma, t, newline), axis=1).ravel()
        text = rows[rows != 0].tobytes().decode("ascii")
        return f"# kind={self.kind} area={self.area!r}\nx,y,threshold\n{text}" if head else text


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
    0/0). Raises ValueError unless both classes keep a sample."""
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
    if not (y.any() and not y.all()):
        raise ValueError("need positive mass in both classes for a curve")
    return s, y, w


# perfbench/spans.py wraps roc_points and pr_points by name: each runs once
# per curve set, as the two derivations of the set's one sweep.
def roc_points(sweep) -> CurveSeries:
    """ROC curve of a ``_grouped_sweep``, with trapezoidal AUC: over grouped
    ties it equals the Mann-Whitney statistic with half credit for ties.
    The class masses are the sweep's last cumulative ones, so the curve ends
    at (1, 1) exactly."""
    thr, cum_pos, cum_all = sweep
    pos = cum_pos[-1]
    neg = cum_all[-1] - pos
    if neg <= 0:
        # a negative mass below the last bit of the total is lost in its sum
        raise ValueError("need positive mass in both classes for a curve")
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
    sweep = _grouped_sweep(*_validate_scored(scores, labels, weights))
    roc = roc_points(sweep)
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
