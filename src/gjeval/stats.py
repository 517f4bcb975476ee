"""Hypothesis tests for comparing classifiers, plus the special functions
they need.

Implemented tests
-----------------
* McNemar-Bowker symmetry test on the 3x3 cross-table of two sets of hard
  predictions. Off-diagonal pairs with zero disagreements in both directions
  contribute no information; they are dropped and the degrees of freedom
  reduced accordingly.
* DeLong's test for correlated AUCs, via the structural components of the
  Mann-Whitney statistic, counted over the tie groups of the pooled scores
  (the fast O(n log n) form).
* A kappa consistency z-test using the null-hypothesis standard error; the
  large-sample (non-null) standard error is also reported for interval use.

The normal CDF is computed from the complementary error function, and the
chi-square survival function, for the integer degrees of freedom it
accepts, as a finite sum of closed-form terms, so there is no runtime
dependency on a stats library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .metrics import agreement, binary_scored, confusion_matrix

__all__ = [
    "TestResult",
    "std_normal_cdf",
    "chi2_sf",
    "delong_test",
    "bowker_test",
    "kappa_test",
]

_SQRT2 = math.sqrt(2.0)
_DEGENERATE_VAR = 1e-15


@dataclass(frozen=True)
class TestResult:
    """Outcome of one hypothesis test.

    ``df`` is present only for chi-square based tests. ``detail`` carries
    test-specific numbers (AUCs, variances, kappa, standard errors, flags).
    """

    name: str
    statistic: float
    p_value: float
    df: int | None = None
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {"name": self.name, "statistic": self.statistic}
        if self.df is not None:
            out["df"] = self.df
        out["p"] = self.p_value
        if self.detail:
            out["detail"] = {
                k: (None if isinstance(v, float) and math.isnan(v) else v)
                for k, v in self.detail.items()
            }
        return out


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    The erfc form keeps full relative accuracy deep in the lower tail,
    which is what two-sided p-values ultimately depend on. The symmetry
    Phi(x) + Phi(-x) == 1 holds to within one ulp.
    """
    return 0.5 * math.erfc(-x / _SQRT2)


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function P(X >= x) with ``df`` degrees of freedom.

    Equals the regularized upper incomplete gamma Q(df/2, h) at h = x/2,
    which for integer df is a finite sum (Abramowitz and Stegun, section
    26.4): Q(1/2, h) = erfc(sqrt(h)) for odd df, Q(0, h) = 0 for even df,
    then Q(a + 1, h) = Q(a, h) + h^a e^-h / Gamma(a + 1) up to a = df/2.
    Every term is positive, so nothing cancels. For df = 2 this is
    exp(-x/2) exactly.
    """
    if df < 1 or int(df) != df:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    if not math.isfinite(x) or x < 0:
        raise ValueError(f"x must be finite and non-negative, got {x!r}")
    h = x / 2.0
    if h == 0.0:
        return 1.0
    log_h = math.log(h)
    a = (df % 2) / 2.0
    q = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    while a < df / 2.0:
        q += math.exp(a * log_h - h - math.lgamma(a + 1.0))
        a += 1.0
    return q


def _structural_components(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """AUC and the per-observation structural components V10 (positives) and
    V01 (negatives) of the Mann-Whitney statistic with half credit for ties,
    from one pass over the tie groups of the pooled scores (Sun and Xu 2014).
    Each numerator is an exact count of half pairs, so each value is one
    correctly rounded division."""
    m, n = x.size, y.size
    values, group = np.unique(np.concatenate([x, y]), return_inverse=True)
    at_x = np.bincount(group[:m], minlength=values.size)
    at_y = np.bincount(group[m:], minlength=values.size)
    # 2 x (pairs an observation wins + half the pairs it ties), an exact count
    twice_x = (2 * np.cumsum(at_y) - at_y)[group[:m]]
    twice_y = (2 * np.cumsum(at_x) - at_x)[group[m:]]
    return twice_x.sum() * 0.5 / (m * n), twice_x * 0.5 / n, 1.0 - twice_y * 0.5 / m


def delong_test(scores_a, scores_b, labels) -> TestResult:
    """Two-sided DeLong z-test for equality of two correlated AUCs.

    Both score vectors must be evaluated on the same records; ``labels`` are
    the shared binary ground-truth indicators. Requires at least two
    positives and two negatives (sample covariances use ddof=1). When the
    variance of the difference collapses below 1e-15 (typically identical
    or perfectly separable scores) the comparison is flagged degenerate and
    reported as z = 0, p = 1 rather than dividing by ~0.
    """
    sa, sb, y = binary_scored(labels, scores_a, scores_b)
    pos = y == 1
    m = int(pos.sum())
    n = int(y.size - m)
    if m < 2 or n < 2:
        raise ValueError(f"need >= 2 positives and >= 2 negatives, got {m} and {n}")
    aucs, v10, v01 = zip(*(_structural_components(s[pos], s[~pos]) for s in (sa, sb)))
    s = np.cov(v10, ddof=1) / m + np.cov(v01, ddof=1) / n
    auc_a, auc_b = float(aucs[0]), float(aucs[1])
    var_a, var_b, cov = float(s[0, 0]), float(s[1, 1]), float(s[0, 1])
    detail = {"auc_a": auc_a, "auc_b": auc_b, "var_a": var_a, "var_b": var_b, "cov": cov, "degenerate": False}
    var_diff = var_a + var_b - 2.0 * cov
    if var_diff < _DEGENERATE_VAR:
        detail["degenerate"] = True
        return TestResult(name="delong", statistic=0.0, p_value=1.0, detail=detail)
    z = (auc_a - auc_b) / math.sqrt(var_diff)
    p = 2.0 * std_normal_cdf(-abs(z))
    return TestResult(name="delong", statistic=z, p_value=p, detail=detail)


def bowker_test(labels_a: Sequence[int], labels_b: Sequence[int]) -> TestResult:
    """McNemar-Bowker test of symmetry on the cross-table T of two label
    vectors, one pair of predictions per record.

    statistic = sum over class pairs (i, j), i < j, of
    (T[i,j] - T[j,i])^2 / (T[i,j] + T[j,i]). Pairs with
    T[i,j] + T[j,i] == 0 are dropped and df reduced; ``detail`` counts them
    as ``dropped_pairs``. A table with no informative pairs returns
    statistic 0, p = 1.
    """
    t = confusion_matrix(labels_a, labels_b)
    stat = 0.0
    df = 0
    dropped = 0
    for i in range(3):
        for j in range(i + 1, 3):
            s = t[i, j] + t[j, i]
            if s > 0:
                stat += (t[i, j] - t[j, i]) ** 2 / s
                df += 1
            else:
                dropped += 1
    detail = {"dropped_pairs": dropped}
    if df == 0:
        return TestResult(name="bowker", statistic=0.0, p_value=1.0, df=0, detail=detail)
    return TestResult(name="bowker", statistic=stat, p_value=chi2_sf(stat, df), df=df, detail=detail)


def kappa_test(labels_a: Sequence[int], labels_b: Sequence[int]) -> TestResult:
    """z-test of Cohen's kappa against zero agreement beyond chance.

    The statistic is kappa / SE0 where SE0 is the standard error under the
    null (kappa = 0). The large-sample non-null standard error is included
    in the detail payload for confidence-interval construction. Kappa, p_o
    and p_e are those of ``metrics.agreement`` on the cross-table. When both
    raters use a single shared category the test is degenerate: kappa is 1
    by convention if the ratings are identical, NaN otherwise.
    """
    t = confusion_matrix(labels_a, labels_b)
    p_o, p_e, row, col, kappa, degenerate = agreement(t)
    n = float(t.sum())
    detail: dict = {"p_o": p_o, "p_e": p_e, "n": n, "degenerate": degenerate}
    if degenerate:
        detail["kappa"] = kappa
        return TestResult(name="kappa", statistic=0.0, p_value=1.0, detail=detail)
    # Null-hypothesis variance (Fleiss): the z statistic tests kappa = 0.
    var0_num = p_e + p_e**2 - float(np.sum(row * col * (row + col)))
    se0 = math.sqrt(max(0.0, var0_num)) / ((1.0 - p_e) * math.sqrt(n))
    # Large-sample non-null variance (Fleiss-Cohen-Everitt form).
    p = t / n
    term1 = float(np.sum(np.diag(p) * ((1.0 - p_e) - (row + col) * (1.0 - p_o)) ** 2))
    off = ~np.eye(3, dtype=bool)
    term2 = float(np.sum((p * (col[:, None] + row) ** 2)[off])) * (1.0 - p_o) ** 2
    term3 = (p_o * p_e - 2.0 * p_e + p_o) ** 2
    var_full = (term1 + term2 - term3) / (n * (1.0 - p_e) ** 4)
    se_full = math.sqrt(max(0.0, var_full))
    detail.update(kappa=kappa, se0=se0, se=se_full)
    if se0 == 0.0:
        detail["degenerate"] = True
        return TestResult(name="kappa", statistic=0.0, p_value=1.0, detail=detail)
    z = kappa / se0
    return TestResult(name="kappa", statistic=z, p_value=2.0 * std_normal_cdf(-abs(z)), detail=detail)
