"""Hypothesis tests and special functions against independent oracles.

scipy and mpmath are used here as high-precision references only; the
package itself must not import them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.stats

from conftest import midranks

from gjeval import (
    bowker_test,
    chi2_sf,
    cohen_kappa,
    confusion_matrix,
    delong_test,
    kappa_test,
    std_normal_cdf,
)
from gjeval.stats import TestResult as StatResult


def delong_single(scores, labels) -> tuple[float, float]:
    """(AUC, DeLong variance) of one score vector: the first diagonal entry
    of its covariance with itself."""
    detail = delong_test(scores, scores, labels).detail
    return detail["auc_a"], detail["var_a"]


DELONG_KEYS = ("auc_a", "auc_b", "var_a", "var_b", "cov")


def delong_by_midranks(scores_a, scores_b, labels) -> dict:
    """DeLong's AUCs and (co)variances from three midrank vectors per model:
    of the pooled scores, of the positives and of the negatives. A
    component is a pooled midrank less the midrank within its own class."""
    pos = np.asarray(labels) == 1
    m, n = int(pos.sum()), int((~pos).sum())
    aucs, v10, v01 = [], [], []
    for s in (np.asarray(scores_a, dtype=float), np.asarray(scores_b, dtype=float)):
        x, y = s[pos], s[~pos]
        tz, tx, ty = midranks(np.concatenate([x, y])), midranks(x), midranks(y)
        aucs.append((tz[:m].sum() - m * (m + 1) / 2.0) / (m * n))
        v10.append((tz[:m] - tx) / n)
        v01.append(1.0 - (tz[m:] - ty) / m)
    cov = np.cov(v10, ddof=1) / m + np.cov(v01, ddof=1) / n
    return dict(zip(DELONG_KEYS, (aucs[0], aucs[1], cov[0, 0], cov[1, 1], cov[0, 1])))


def tie_heavy_cases(rng, count: int):
    """Seeded (scores_a, scores_b, labels) on coarse grids of signed values,
    so that ties within and across the classes are common and 0.0 ties
    -0.0; then hand cases: all-tied vectors and two positives or two
    negatives."""
    for _ in range(count):
        size = int(rng.integers(4, 81))
        labels = np.zeros(size)
        labels[rng.permutation(size)[: int(rng.integers(2, size - 1))]] = 1.0
        a, b = (np.copysign(rng.integers(0, k + 1, size) / k, rng.choice([-1.0, 1.0], size))
                for k in rng.integers(1, 6, 2))
        yield a, b, labels
    labels = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    signed_zeros = np.array([-0.0, 0.0, 0.0, -0.0, 0.0, -0.0])
    yield np.full(6, 0.3), signed_zeros, labels
    yield signed_zeros, np.array([0.5, -0.0, 0.0, 0.5, -0.0, 1.0]), 1.0 - labels
    yield np.array([0.2, 0.9, 0.2, 0.4, 0.9, 0.1]), np.full(6, 0.0), labels


def _auc_from_ranks(scores: np.ndarray, pos_mask: np.ndarray) -> float:
    m = int(pos_mask.sum())
    n = scores.size - m
    ranks = midranks(scores)
    return (ranks[pos_mask].sum() - m * (m + 1) / 2.0) / (m * n)


def bootstrap_auc_variance(scores, labels, n_boot: int = 10000, seed: int = 0) -> float:
    """Nonparametric bootstrap variance of a single AUC, an oracle for the
    DeLong variance.

    Each replicate gets its own child seed spawned from the root seed, so the
    result does not depend on execution order. Replicates that lose one of
    the classes are redrawn.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = s.size
    children = np.random.SeedSequence(seed).spawn(n_boot)
    aucs = np.empty(n_boot)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        while True:
            idx = rng.integers(0, n, n)
            ys = y[idx]
            mp = int(ys.sum())
            if 0 < mp < n:
                break
        aucs[i] = _auc_from_ranks(s[idx], ys == 1)
    return float(np.var(aucs, ddof=1))


def test_package_has_no_scipy_dependency():
    import gjeval

    for mod_name in ("data", "metrics", "stats", "aggregate", "fusion", "report", "cli"):
        mod = getattr(__import__(f"gjeval.{mod_name}"), mod_name)
        source = open(mod.__file__).read()
        assert "import scipy" not in source
        assert "import sklearn" not in source


class TestNormalCDF:
    def test_reference_values(self):
        # high-precision oracle via mpmath's erf
        mpmath.mp.dps = 50
        for x in (-8.0, -3.0, -1.959963985, -1.0, -0.5, 0.0, 0.5, 1.0, 1.96, 2.575829, 4.0, 8.0):
            oracle = float(0.5 * (1 + mpmath.erf(mpmath.mpf(x) / mpmath.sqrt(2))))
            assert std_normal_cdf(x) == pytest.approx(oracle, abs=1e-15)

    def test_symmetry_within_one_ulp(self, rng):
        for x in rng.normal(0, 3, 200):
            total = std_normal_cdf(float(x)) + std_normal_cdf(float(-x))
            assert total == pytest.approx(1.0, abs=2e-16)

    def test_tails(self):
        assert std_normal_cdf(-40.0) == 0.0
        assert std_normal_cdf(40.0) == 1.0

    def test_monotone(self, rng):
        xs = np.sort(rng.normal(0, 2, 100))
        vals = [std_normal_cdf(float(x)) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestChi2SF:
    def test_df2_closed_form_grid(self):
        # survival function with two degrees of freedom is exp(-x/2)
        for x in np.linspace(0.0, 30.0, 100):
            assert chi2_sf(float(x), 2) == math.exp(-x / 2)

    def test_against_scipy_grid(self):
        for df in (1, 2, 3, 5, 10, 30, 100):
            for x in (0.0, 0.5, 1.0, 2.0, 3.84, 5.99, 7.81, 20.0, 50.0, 150.0):
                assert chi2_sf(x, df) == pytest.approx(
                    float(scipy.stats.chi2.sf(x, df)), abs=1e-8
                )

    def test_against_mpmath(self):
        mpmath.mp.dps = 50
        for df, x in ((1, 3.841458820694124), (3, 7.814727903251179), (6, 12.591587243743977)):
            oracle = float(mpmath.gammainc(df / 2, x / 2, mpmath.inf, regularized=True))
            assert chi2_sf(x, df) == pytest.approx(oracle, abs=1e-12)

    def test_relative_error_against_mpmath_to_the_underflow(self):
        # every (df, x) whose tail is a normal double keeps 12 digits; none is 0
        mpmath.mp.dps = 50
        xs = np.concatenate([np.geomspace(1e-8, 3000.0, 67), [1.0, 3.841458820694124, 1381.0, 1382.0]])
        for df in (*range(1, 11), 15, 20, 30, 50, 100):
            for x in xs.tolist():
                oracle = mpmath.gammainc(df / 2, x / 2, mpmath.inf, regularized=True)
                got = chi2_sf(x, df)
                if oracle >= 1e-300:
                    assert got > 0.0, (df, x)
                    assert abs(got - oracle) <= 1e-12 * oracle, (df, x, got, float(oracle))
                else:
                    assert 0.0 <= got < 1e-299, (df, x, got)

    def test_critical_values(self):
        # classic alpha = 0.05 critical points
        assert chi2_sf(3.841, 1) == pytest.approx(0.05, abs=1e-3)
        assert chi2_sf(5.991, 2) == pytest.approx(0.05, abs=1e-3)
        assert chi2_sf(7.815, 3) == pytest.approx(0.05, abs=1e-3)

    def test_bounds_and_edges(self):
        assert chi2_sf(0.0, 4) == 1.0
        # x / 2 rounds to 0 here; its log once raised "math domain error"
        assert [chi2_sf(5e-324, df) for df in (1, 2, 3)] == [1.0, 1.0, 1.0]
        assert 0.0 <= chi2_sf(1000.0, 1) < 1e-100
        with pytest.raises(ValueError):
            chi2_sf(-1.0, 2)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)


class TestMidranks:
    def test_hand_case(self):
        assert np.array_equal(midranks(np.array([1.0, 2.0, 2.0, 3.0])), [1.0, 2.5, 2.5, 4.0])

    def test_against_scipy_rankdata(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 50))
            x = rng.integers(0, 8, n).astype(float)
            assert np.allclose(midranks(x), scipy.stats.rankdata(x, method="average"))

    def test_all_equal(self):
        assert np.array_equal(midranks(np.full(5, 2.0)), np.full(5, 3.0))


class TestDeLong:
    def test_auc_equals_pair_counting_1000_cases(self, rng):
        # exhaustive oracle over many tied, small instances: 2U counts two
        # per pair won and one per pair tied, and the AUC is 2U / 2mn
        # rounded once
        for _ in range(1000):
            n = int(rng.integers(5, 51))
            labels = rng.integers(0, 2, n).astype(float)
            if labels.sum() < 2 or labels.sum() > n - 2:
                continue
            scores = rng.integers(0, 10, n) / 9.0
            auc, _ = delong_single(scores, labels)
            pos, neg = scores[labels == 1], scores[labels == 0]
            twice_u = int(2 * np.sum(pos[:, None] > neg) + np.sum(pos[:, None] == neg))
            assert auc == float(Fraction(twice_u, 2 * pos.size * neg.size))

    def test_bits_equal_midrank_formula(self, rng):
        # every float of the detail, bit for bit, on tie-heavy and signed-zero cases
        cases = 0
        for a, b, labels in tie_heavy_cases(rng, 1200):
            detail = delong_test(a, b, labels).detail
            ref = delong_by_midranks(a, b, labels)
            ours = np.array([detail[k] for k in DELONG_KEYS]).view(np.int64)
            assert np.array_equal(ours, np.array([ref[k] for k in DELONG_KEYS]).view(np.int64)), (a, b, labels)
            cases += 1
        assert cases > 1000

    def test_variance_positive_and_shrinks(self, rng):
        labels = np.array([1] * 50 + [0] * 50, float)
        s_small = np.concatenate([rng.normal(1, 1, 50), rng.normal(0, 1, 50)])
        _, v_small = delong_single(s_small, labels)
        labels_big = np.array([1] * 500 + [0] * 500, float)
        s_big = np.concatenate([rng.normal(1, 1, 500), rng.normal(0, 1, 500)])
        _, v_big = delong_single(s_big, labels_big)
        assert v_small > 0 and v_big > 0
        assert v_big < v_small

    def test_identical_scores_degenerate(self, rng):
        labels = np.array([1, 1, 0, 0, 1, 0], float)
        scores = rng.random(6)
        res = delong_test(scores, scores.copy(), labels)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.detail["degenerate"] is True

    def test_symmetric_in_model_order(self, rng):
        labels = (rng.random(40) < 0.5).astype(float)
        labels[:2] = 1
        labels[-2:] = 0
        a = rng.random(40)
        b = rng.random(40)
        r1 = delong_test(a, b, labels)
        r2 = delong_test(b, a, labels)
        assert r1.statistic == pytest.approx(-r2.statistic, abs=1e-12)
        assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)

    def test_two_sided_p_from_z(self, rng):
        labels = np.array([1] * 30 + [0] * 30, float)
        a = np.concatenate([rng.normal(2, 1, 30), rng.normal(0, 1, 30)])
        b = np.concatenate([rng.normal(0.5, 1, 30), rng.normal(0, 1, 30)])
        res = delong_test(a, b, labels)
        z = res.statistic
        assert res.p_value == pytest.approx(2 * (1 - std_normal_cdf(abs(z))), abs=1e-12)

    def test_requires_two_per_class(self):
        with pytest.raises(ValueError):
            delong_single(np.array([0.1, 0.2, 0.3]), np.array([1.0, 0.0, 0.0]))

    def test_pairwise_var_matches_single(self, rng):
        # model a's AUC and variance do not depend on the partner vector
        labels = np.array([1] * 25 + [0] * 25, float)
        a = rng.random(50)
        b = rng.random(50)
        detail = delong_test(a, b, labels).detail
        auc_a, var_a = delong_single(a, labels)
        assert detail["auc_a"] == pytest.approx(auc_a, abs=1e-15)
        assert detail["var_a"] == pytest.approx(var_a, abs=1e-15)

    def test_detail_payload(self, rng):
        labels = np.array([1] * 20 + [0] * 20, float)
        a = rng.random(40)
        b = rng.random(40)
        res = delong_test(a, b, labels)
        for key in ("auc_a", "auc_b", "var_a", "var_b", "cov"):
            assert key in res.detail


class TestBootstrapVariance:
    def test_close_to_delong_on_synthetic(self, rng):
        n = 200
        labels = (rng.random(n) < 0.5).astype(float)
        labels[:2] = 1
        labels[-2:] = 0
        scores = np.where(labels == 1, rng.normal(0.8, 1, n), rng.normal(0, 1, n))
        _, dl_var = delong_single(scores, labels)
        bs_var = bootstrap_auc_variance(scores, labels, n_boot=2000, seed=7)
        assert bs_var == pytest.approx(dl_var, rel=0.25)

    def test_deterministic_per_seed(self, rng):
        labels = np.array([1] * 30 + [0] * 30, float)
        scores = rng.random(60)
        v1 = bootstrap_auc_variance(scores, labels, n_boot=200, seed=3)
        v2 = bootstrap_auc_variance(scores, labels, n_boot=200, seed=3)
        v3 = bootstrap_auc_variance(scores, labels, n_boot=200, seed=4)
        assert v1 == v2
        assert v1 != v3


class TestBowker:
    def test_hand_case_single_pair(self):
        res = bowker_test([0] * 4, [1] * 4)
        assert res.statistic == 4.0
        assert res.df == 1
        assert res.p_value == pytest.approx(0.0455, abs=1e-3)

    def test_hand_case_three_pairs(self):
        # T[0,1] = 5, T[1,0] = 1, T[0,2] = T[2,0] = 2, T[1,2] = T[2,1] = 3
        a = [0] * 5 + [1] + [0] * 2 + [2] * 2 + [1] * 3 + [2] * 3
        b = [1] * 5 + [0] + [2] * 2 + [0] * 2 + [2] * 3 + [1] * 3
        res = bowker_test(a, b)
        assert res.statistic == pytest.approx(16 / 6)
        assert res.df == 3
        assert res.p_value == pytest.approx(float(scipy.stats.chi2.sf(16 / 6, 3)), abs=1e-10)

    def test_symmetric_table_is_null(self):
        res = bowker_test([0, 1, 0, 2, 1, 2, 0, 1], [1, 0, 2, 0, 2, 1, 0, 1])
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_diagonal_only_table(self):
        res = bowker_test([0, 1, 2], [0, 1, 2])
        assert res.statistic == 0.0 and res.df == 0 and res.p_value == 1.0
        assert res.detail == {"dropped_pairs": 3}

    def test_accepts_paired_predictions(self):
        res = bowker_test(np.array([0, 1, 2]), np.array([1, 1, 2]))
        assert res.df == 1 and res.detail == {"dropped_pairs": 2}

    def test_rejects_label_vectors_not_1d_equal_length(self):
        # the check kappa_test makes: one flat vector per rater, same length, not empty
        for a, b in (([0, 1], [0]), ([[0, 1], [1, 0]], [[0, 1], [1, 0]]), ([], [])):
            with pytest.raises(ValueError, match="label vectors must be 1-D, non-empty, equal length"):
                bowker_test(a, b)
            with pytest.raises(ValueError, match="label vectors must be 1-D, non-empty, equal length"):
                kappa_test(a, b)

    def test_p_in_unit_interval_fuzz(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 40))
            res = bowker_test(rng.integers(0, 3, n), rng.integers(0, 3, n))
            assert 0.0 <= res.p_value <= 1.0
            assert res.statistic >= 0.0


class TestKappaTest:
    def test_labels_out_of_range_rejected(self):
        # -1 would otherwise index the table from the end and count as class 2
        with pytest.raises(ValueError, match=r"labels must be in \{0, 1, 2\}"):
            kappa_test([-1, 0, 1], [2, 0, 1])
        with pytest.raises(ValueError, match=r"labels must be in \{0, 1, 2\}"):
            bowker_test([0, 1], [3, 1])

    def test_hand_kappa_value(self):
        a = [0, 0, 1, 1, 2, 2, 0, 1, 2]
        b = [0, 0, 1, 2, 2, 2, 1, 1, 0]
        res = kappa_test(a, b)
        assert res.detail["kappa"] == pytest.approx(0.5)
        assert res.p_value == pytest.approx(2 * (1 - std_normal_cdf(abs(res.statistic))), abs=1e-12)

    def test_null_se_formula(self):
        # recompute SE0 from the cross-table marginals by hand
        a = [0, 0, 1, 1, 2, 2, 0, 1, 2, 0, 1, 2]
        b = [0, 1, 1, 1, 2, 0, 0, 1, 2, 0, 2, 2]
        res = kappa_test(a, b)
        t = np.zeros((3, 3))
        for x, y in zip(a, b):
            t[x, y] += 1
        n = t.sum()
        p = t / n
        row, col = p.sum(axis=1), p.sum(axis=0)
        p_e = float(row @ col)
        var0 = p_e + p_e**2 - float(np.sum(row * col * (row + col)))
        se0 = math.sqrt(var0) / ((1 - p_e) * math.sqrt(n))
        kappa = res.detail["kappa"]
        assert res.statistic == pytest.approx(kappa / se0, abs=1e-12)

    def test_perfect_single_category(self):
        res = kappa_test([1] * 8, [1] * 8)
        assert res.detail["degenerate"] is True
        assert res.detail["kappa"] == 1.0
        assert res.p_value == 1.0

    def test_identical_ratings_kappa_one(self):
        a = [0, 1, 2, 0, 1, 2]
        res = kappa_test(a, list(a))
        assert res.detail["kappa"] == pytest.approx(1.0)

    def test_nonnull_se_present(self):
        res = kappa_test([0, 0, 1, 1, 2, 2], [0, 1, 1, 2, 2, 0])
        assert "se" in res.detail and res.detail["se"] >= 0

    def test_kappa_is_cohen_kappa_of_the_cross_table(self):
        # one arithmetic for both kappas, bit for bit; skewed class odds give
        # single-category and near-degenerate tables too
        gen = np.random.default_rng(28)
        for _ in range(300):
            n = int(gen.integers(1, 80))
            a = gen.choice(3, n, p=gen.dirichlet((0.5, 0.5, 0.5)))
            b = np.where(gen.random(n) < gen.random(), a, gen.integers(0, 3, n))
            got = kappa_test(a, b).detail["kappa"]
            assert got.hex() == cohen_kappa(confusion_matrix(a, b)).hex(), (a.tolist(), b.tolist())

    def test_kappa_range_fuzz(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 60))
            a = rng.integers(0, 3, n)
            b = rng.integers(0, 3, n)
            res = kappa_test(a, b)
            k = res.detail["kappa"]
            if k is not None and not (isinstance(k, float) and math.isnan(k)):
                assert -1.0 - 1e-12 <= k <= 1.0 + 1e-12
            assert 0.0 <= res.p_value <= 1.0


class TestSerialization:
    def test_p_key_and_field_order(self):
        res = StatResult(name="demo", statistic=1.5, p_value=0.13, df=2, detail={"x": 1.0})
        d = res.as_dict()
        assert list(d) == ["name", "statistic", "df", "p", "detail"]
        assert d["p"] == 0.13

    def test_df_omitted_when_absent(self):
        d = StatResult(name="z", statistic=0.1, p_value=0.9).as_dict()
        assert "df" not in d and "detail" not in d

    def test_nan_detail_becomes_none(self):
        d = StatResult(name="k", statistic=0.0, p_value=1.0, detail={"kappa": float("nan")}).as_dict()
        assert d["detail"]["kappa"] is None
