"""Confusion metrics, Wald intervals, macro averaging, kappa, ROC/PR curves.

The curve implementations are checked against the quadratic pair-counting
and explicit step-sum oracles in conftest; the macro-CI rule is checked
against hand-computed values.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import brute_auc, brute_average_precision, brute_weighted_auc

from gjeval import (
    CLASS_ORDER,
    ClassLabel,
    class_stats,
    cohen_kappa,
    compute_report,
    confusion_matrix,
    curve_pair,
    macro_stats,
    micro_curves,
    rate_ci,
)
from gjeval import metrics
from gjeval.report import dump_json
from gjeval.report import curve_csvs


class TestWaldCI:
    # the 95% Wald interval of a proportion p over n, as rate_ci(p * n, n)
    def test_symmetric_half_width(self):
        r = rate_ci(50, 100)
        half = 1.96 * math.sqrt(0.25 / 100)
        assert r.lo == pytest.approx(0.5 - half)
        assert r.hi == pytest.approx(0.5 + half)

    def test_clipping(self):
        assert rate_ci(0.99 * 20, 20).hi == 1.0
        assert rate_ci(0.01 * 20, 20).lo == 0.0

    def test_degenerate_p(self):
        r1, r0 = rate_ci(50, 50), rate_ci(0, 50)
        assert (r1.lo, r1.hi) == (1.0, 1.0)
        assert (r0.lo, r0.hi) == (0.0, 0.0)

    def test_fractional_n_allowed(self):
        r = rate_ci(0.5 * 12.5, 12.5)
        assert r.lo < 0.5 < r.hi

    def test_width_shrinks_with_n(self, rng):
        # stay away from the clip boundaries so widths compare exactly
        for _ in range(50):
            p = float(rng.uniform(0.35, 0.65))
            n = float(rng.integers(50, 500))
            r1 = rate_ci(p * n, n)
            r2 = rate_ci(p * 4 * n, 4 * n)
            assert (r2.hi - r2.lo) == pytest.approx((r1.hi - r1.lo) / 2)


class TestRateCI:
    def test_undefined_on_zero_denominator(self):
        r = rate_ci(0, 0)
        assert not r.defined
        assert r.as_dict() == {"value": None}

    def test_raw_bounds_unclipped(self):
        r = rate_ci(207, 209)
        assert r.hi == 1.0
        assert r.raw_hi > 1.0
        assert r.raw_hi == pytest.approx(r.value + 1.96 * math.sqrt(r.value * (1 - r.value) / 209))

    def test_as_dict_shape(self):
        d = rate_ci(8, 10).as_dict()
        assert d["value"] == pytest.approx(0.8)
        assert len(d["ci95"]) == 2


class TestConfusionMatrix:
    def test_hand_counts(self):
        cm = confusion_matrix([0, 0, 0, 1, 1, 1, 2, 2, 2, 2], [0, 0, 1, 1, 1, 1, 0, 2, 2, 2])
        expected = np.array([[2, 1, 0], [0, 3, 0], [1, 0, 3]], dtype=float)
        assert np.array_equal(cm, expected)
        assert cm.dtype == np.float64 and cm.sum() == 10
        assert not cm.flags.writeable

    def test_weighted_counts(self):
        cm = confusion_matrix([0, 0, 1], [0, 1, 1], weights=[0.5, 0.25, 2.0])
        assert cm[0, 0] == 0.5
        assert cm[0, 1] == 0.25
        assert cm[1, 1] == 2.0

    @pytest.mark.parametrize("n", [1, 7, 1200, 117_600])
    def test_matches_add_at_bit_for_bit(self, n):
        """Unit and weighted matrices equal a sequential ``np.add.at``
        accumulation of the same records, to the last bit."""
        gen = np.random.default_rng(n)
        truths, preds = gen.integers(0, 3, n), gen.integers(0, 3, n)
        weights = gen.exponential(1.0, n) * (gen.random(n) < 0.9)  # a tenth of them zero
        for w in (None, weights):
            ref = np.zeros((3, 3))
            np.add.at(ref, (truths, preds), np.ones(n) if w is None else w)
            assert confusion_matrix(truths, preds, w).tobytes() == ref.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 3], [0, 0])
        with pytest.raises(ValueError):
            confusion_matrix([], [])
        with pytest.raises(ValueError):
            confusion_matrix([0], [0], weights=[-1.0])
        with pytest.raises(ValueError, match="^truths and preds must have the same length$"):
            confusion_matrix([0, 1], [0])
        with pytest.raises(ValueError, match="^weights must match truths in length$"):
            confusion_matrix([0, 1], [0, 1], weights=[1.0])


class TestClassStats:
    def test_hand_case(self):
        cm = confusion_matrix([0, 0, 0, 1, 1, 1, 2, 2, 2, 2], [0, 0, 1, 1, 1, 1, 0, 2, 2, 2])
        a = class_stats(cm, ClassLabel.AEGJA)
        assert (a.tp, a.fn, a.fp, a.tn) == (2, 1, 1, 6)
        assert a.sensitivity.value == pytest.approx(2 / 3)
        assert a.specificity.value == pytest.approx(6 / 7)
        assert a.ppv.value == pytest.approx(2 / 3)
        assert a.npv.value == pytest.approx(6 / 7)
        assert a.accuracy.value == pytest.approx(8 / 10)

    def test_ppv_undefined_when_never_predicted(self):
        cm = confusion_matrix([0, 0, 1], [1, 1, 1])  # class 2 never appears
        c = class_stats(cm, ClassLabel.CONTROL)
        assert not c.ppv.defined
        assert not c.sensitivity.defined  # no true class-2 either
        assert c.specificity.defined

    def test_counts_partition_total(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 40))
            t = rng.integers(0, 3, n)
            p = rng.integers(0, 3, n)
            cm = confusion_matrix(t, p)
            for cls in CLASS_ORDER:
                s = class_stats(cm, cls)
                assert s.tp + s.fp + s.fn + s.tn == n


class TestMacroStats:
    def test_macro_mean_of_per_class(self):
        cm = confusion_matrix([0, 0, 0, 1, 1, 1, 2, 2, 2, 2], [0, 0, 1, 1, 1, 1, 0, 2, 2, 2])
        per = [class_stats(cm, c) for c in CLASS_ORDER]
        ov = macro_stats(per, cm)
        assert ov.sensitivity.value == pytest.approx(
            np.mean([s.sensitivity.value for s in per])
        )
        # overall accuracy is trace/total, not the macro mean of OvR accuracies
        assert ov.accuracy.value == pytest.approx(0.8)

    def test_macro_ci_averages_unclipped_bounds(self):
        # one class's upper bound exceeds 1; macro upper uses the raw value
        per = [rate_ci(463, 497), rate_ci(176, 208), rate_ci(207, 209)]
        raw_mean_hi = np.mean([r.raw_hi for r in per])
        clipped_mean_hi = np.mean([r.hi for r in per])
        assert raw_mean_hi != pytest.approx(clipped_mean_hi, abs=1e-4)
        cm = confusion_matrix([0, 1, 2], [0, 1, 2])  # placeholder matrix

        class _Stub:
            def __init__(self, r, cls):
                self.cls = cls
                self.accuracy = self.sensitivity = self.specificity = r
                self.ppv = self.npv = r

        stubs = [_Stub(r, c) for r, c in zip(per, CLASS_ORDER)]
        ov = macro_stats(stubs, cm)
        assert ov.sensitivity.hi == pytest.approx(float(raw_mean_hi))
        assert ov.sensitivity.raw_hi == pytest.approx(float(raw_mean_hi))

    def test_undefined_excluded_with_warning(self):
        cm = confusion_matrix([0, 0, 1], [1, 1, 1])
        per = [class_stats(cm, c) for c in CLASS_ORDER]
        ov = macro_stats(per, cm)
        defined = [s.sensitivity.value for s in per if s.sensitivity.defined]
        assert ov.sensitivity.value == pytest.approx(np.mean(defined))
        assert any("excluded" in w for w in ov.warnings)

    def test_all_undefined_propagates_none(self):
        class _Stub:
            def __init__(self, cls):
                self.cls = cls
                und = rate_ci(0, 0)
                self.accuracy = self.sensitivity = self.specificity = und
                self.ppv = self.npv = und

        cm = confusion_matrix([0], [0])
        ov = macro_stats([_Stub(c) for c in CLASS_ORDER], cm)
        assert not ov.sensitivity.defined


class TestCohenKappa:
    def test_hand_value(self):
        cm = np.array([[2, 1, 0], [0, 2, 1], [1, 0, 2]], dtype=float)
        assert cohen_kappa(cm) == pytest.approx(0.5)

    def test_perfect_agreement(self):
        assert cohen_kappa(np.diag([3.0, 4.0, 5.0])) == pytest.approx(1.0)

    def test_single_category_perfect(self):
        cm = np.zeros((3, 3))
        cm[1, 1] = 7
        assert cohen_kappa(cm) == 1.0

    def test_range_on_fuzz(self, rng):
        for _ in range(500):
            cm = rng.integers(0, 10, (3, 3)).astype(float)
            if cm.sum() == 0:
                continue
            k = cohen_kappa(cm)
            if not math.isnan(k):
                assert -1.0 - 1e-12 <= k <= 1.0 + 1e-12

    def test_no_agreement_beyond_chance(self):
        # independent marginals: kappa == 0
        cm = np.outer([0.2, 0.3, 0.5], [0.1, 0.4, 0.5]) * 1000
        assert cohen_kappa(cm) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^agreement matrix must be square, got \(2, 3\)$"):
            cohen_kappa(np.ones((2, 3)))
        with pytest.raises(ValueError, match="^empty confusion matrix$"):
            cohen_kappa(np.zeros((3, 3)))


class TestROC:
    def test_known_points(self):
        roc = curve_pair(np.array([0.9, 0.8, 0.4, 0.2]), np.array([1, 1, 0, 1], float))[0]
        assert roc.x[0] == 0.0 and roc.y[0] == 0.0
        assert roc.thresholds[0] == math.inf
        assert roc.x[-1] == 1.0 and roc.y[-1] == 1.0
        assert roc.area == pytest.approx(2 / 3)

    def test_auc_equals_pair_counting_fuzz(self, rng):
        for _ in range(300):
            n = int(rng.integers(4, 40))
            labels = rng.integers(0, 2, n).astype(float)
            if labels.sum() in (0, n):
                continue
            # coarse grid scores force ties
            scores = rng.integers(0, 6, n) / 5.0
            roc = curve_pair(scores, labels)[0]
            assert roc.area == pytest.approx(brute_auc(scores, labels), abs=1e-12)

    def test_monotone_transform_invariance(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 30))
            labels = rng.integers(0, 2, n).astype(float)
            if labels.sum() in (0, n):
                continue
            scores = rng.random(n)
            a1 = curve_pair(scores, labels)[0].area
            a2 = curve_pair(np.exp(3 * scores) + 7, labels)[0].area
            assert a1 == pytest.approx(a2, abs=1e-12)

    def test_permutation_invariance(self, rng):
        scores = rng.random(25)
        labels = (rng.random(25) < 0.4).astype(float)
        labels[0] = 1
        labels[1] = 0
        perm = rng.permutation(25)
        a1 = curve_pair(scores, labels)[0]
        a2 = curve_pair(scores[perm], labels[perm])[0]
        assert a1.area == pytest.approx(a2.area, abs=1e-12)
        assert np.allclose(a1.x, a2.x) and np.allclose(a1.y, a2.y)

    def test_weighted_auc_oracle(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 20))
            labels = rng.integers(0, 2, n).astype(float)
            if labels.sum() in (0, n):
                continue
            scores = rng.integers(0, 4, n) / 3.0
            weights = rng.uniform(0.1, 3.0, n)
            roc = curve_pair(scores, labels, weights=weights)[0]
            assert roc.area == pytest.approx(
                brute_weighted_auc(scores, labels, weights), abs=1e-10
            )

    def test_weighted_curve_ends_at_one_one(self, rng):
        # the rates divide by the sweep's own last masses, not by separately
        # summed totals that round otherwise
        for _ in range(50):
            n = int(rng.integers(20, 400))
            labels = (rng.random(n) < 0.4).astype(float)
            labels[:2] = 1, 0
            weights = rng.uniform(0.01, 3.0, n) * (rng.random(n) < 0.9)
            weights[:2] = 0.7, 1.3
            roc = curve_pair(rng.integers(0, 50, n) / 49.0, labels, weights=weights)[0]
            assert roc.x[-1] == roc.y[-1] == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            curve_pair(np.array([0.1, 0.2]), np.array([1.0, 1.0]))[0]
        # a class whose every sample has zero weight has no mass either
        with pytest.raises(ValueError, match="positive mass in both classes"):
            curve_pair(np.array([0.1, 0.2, 0.3]), np.array([1.0, 0.0, 0.0]), weights=[0.0, 1.0, 2.0])
        # or a negative mass that the sweep's total cannot hold
        with pytest.raises(ValueError, match="positive mass in both classes"):
            curve_pair(np.array([0.1, 0.2]), np.array([1.0, 0.0]), weights=[1e20, 1e-10])

    def test_all_tied_scores(self):
        roc = curve_pair(np.full(6, 0.5), np.array([1, 0, 1, 0, 1, 0], float))[0]
        assert roc.area == pytest.approx(0.5)

    @pytest.mark.parametrize("scores, labels, weights, message", [
        ([0.1, 0.2], [1.0, 0.0, 1.0], None, "scores and labels must be 1-D and equal length"),
        ([[0.1, 0.2]], [[1.0, 0.0]], None, "scores and labels must be 1-D and equal length"),
        ([0.1, np.nan], [1.0, 0.0], None, "scores must be finite"),
        ([0.1, 0.2], [1.0, 2.0], None, "labels must be binary 0/1"),
        ([0.1, 0.2], [1.0, 0.0], [1.0], "weights must be finite, non-negative, and match scores"),
        ([0.1, 0.2], [1.0, 0.0], [1.0, -1.0], "weights must be finite, non-negative, and match scores"),
        ([0.1, 0.2], [1.0, 0.0], [1.0, np.inf], "weights must be finite, non-negative, and match scores"),
    ], ids=["length", "not-1d", "score-nan", "label-2", "weights-length", "weights-negative", "weights-inf"])
    def test_bad_input_rejected(self, scores, labels, weights, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            curve_pair(np.array(scores), np.array(labels), weights=weights)


class TestPR:
    def test_known_ap(self):
        pr = curve_pair(np.array([0.9, 0.8, 0.4, 0.2]), np.array([1, 1, 0, 1], float))[1]
        # steps: recall 1/3 @ prec 1, 2/3 @ prec 1, 3/3 @ prec 3/4
        assert pr.area == pytest.approx(1 / 3 + 1 / 3 + 0.25)

    def test_ap_oracle_fuzz(self, rng):
        for _ in range(300):
            n = int(rng.integers(4, 40))
            labels = rng.integers(0, 2, n).astype(float)
            if labels.sum() == 0:
                continue
            scores = rng.integers(0, 6, n) / 5.0
            pr = curve_pair(scores, labels)[1]
            assert pr.area == pytest.approx(brute_average_precision(scores, labels), abs=1e-12)

    def test_perfect_ranking_ap_is_one(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0], float)
        assert curve_pair(scores, labels)[1].area == pytest.approx(1.0)


class TestMicroCurves:
    def test_flattening_matches_manual(self, rng):
        n = 60
        truths = rng.integers(0, 3, n)
        probs = rng.dirichlet(np.ones(3), n)
        roc, pr = micro_curves(probs, truths)
        flat_scores, flat_labels = [], []
        for i in range(n):
            for k in range(3):
                flat_scores.append(probs[i, k])
                flat_labels.append(1.0 if truths[i] == k else 0.0)
        expect = curve_pair(np.array(flat_scores), np.array(flat_labels))[0]
        assert roc.area == pytest.approx(expect.area, abs=1e-12)
        expect_pr = curve_pair(np.array(flat_scores), np.array(flat_labels))[1]
        assert pr.area == pytest.approx(expect_pr.area, abs=1e-12)

    @pytest.mark.parametrize("shape, n", [((4, 2), 4), ((4, 3), 5), ((12,), 4)], ids=["two-columns", "rows", "flat"])
    def test_misaligned_probs_rejected(self, shape, n):
        with pytest.raises(ValueError, match=r"^probs must be \(n, 3\) aligned with truths$"):
            micro_curves(np.full(shape, 1 / 3), np.zeros(n, dtype=np.int64))

    def test_class_curves_are_one_vs_rest(self, rng):
        probs = rng.dirichlet(np.ones(3), 10)
        truths = np.array([0, 1, 2] * 3 + [1])
        rep = compute_report(truths, probs.argmax(axis=1), probs=probs)
        roc, pr = rep.curves[ClassLabel.EEGJA.slug]
        labels = (truths == 1).astype(float)
        for got, want in ((roc, curve_pair(probs[:, 1], labels)[0]), (pr, curve_pair(probs[:, 1], labels)[1])):
            assert np.array_equal(got.x, want.x) and np.array_equal(got.y, want.y)
            assert np.array_equal(got.thresholds, want.thresholds) and got.area == want.area


class TestCurvePair:
    @pytest.fixture
    def calls(self, monkeypatch) -> dict[str, int]:
        """Counts of the validation and sweep runs, by function name."""
        counts = {"_validate_scored": 0, "_grouped_sweep": 0}
        for name in counts:
            original = getattr(metrics, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(metrics, name, counted)
        return counts

    def test_one_validation_and_one_sweep_per_set(self, rng, calls):
        scores, labels = rng.random(30), (rng.random(30) < 0.4).astype(float)
        labels[:2] = 1, 0
        curve_pair(scores, labels)
        assert calls == {"_validate_scored": 1, "_grouped_sweep": 1}
        truths = np.array([0, 1, 2] * 10)
        probs = rng.dirichlet(np.ones(3), truths.size)
        compute_report(truths, probs.argmax(axis=1), probs=probs)
        # the micro set and the three class sets
        assert calls == {"_validate_scored": 1 + 4, "_grouped_sweep": 1 + 4}

    def test_zero_weight_samples_move_neither_curve(self, rng):
        """Samples of zero weight carry no mass: the pair is the pair of the
        other samples, bit for bit, and its precision is never 0/0."""
        cases = [(np.array([0.9, 0.8, 0.3, 0.2]), np.array([1.0, 1, 0, 0]), np.array([0.0, 1, 1, 1]))]
        for _ in range(20):
            scores = rng.integers(0, 5, 30) / 4.0
            labels = (rng.random(30) < 0.5).astype(float)
            labels[:2] = 1, 0
            cases.append((scores, labels, rng.uniform(0.5, 2.0, 30) * (rng.random(30) < 0.7)))
        for scores, labels, weights in cases:
            keep = weights > 0
            pairs = zip(curve_pair(scores, labels, weights), curve_pair(scores[keep], labels[keep], weights[keep]))
            for got, want in pairs:
                assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()
                assert got.thresholds.tobytes() == want.thresholds.tobytes() and got.area == want.area
            roc, pr = curve_pair(scores, labels, weights)
            assert math.isfinite(pr.area) and np.isfinite(pr.y).all()
            assert roc.area == pytest.approx(brute_weighted_auc(scores, labels, weights), abs=1e-10)

    def test_zero_weight_report_is_strict_json(self):
        truths = np.array([0, 0, 1, 1, 2, 2])
        probs = np.array([[0.9, 0.05, 0.05], [0.7, 0.2, 0.1], [0.1, 0.8, 0.1],
                          [0.3, 0.6, 0.1], [0.1, 0.1, 0.8], [0.2, 0.2, 0.6]])
        report = compute_report(truths, probs.argmax(axis=1), probs=probs, weights=[0, 1, 1, 1, 1, 1])
        ap = report.as_dict()["ap"]
        assert all(math.isfinite(v) for v in (ap["micro"], *ap["per_class"].values())), ap
        dump_json(report.as_dict())

    def test_pr_recall_and_thresholds_are_roc_views(self, rng):
        scores = rng.integers(0, 8, 40) / 7.0
        labels = (rng.random(40) < 0.5).astype(float)
        labels[:2] = 1, 0
        roc, pr = curve_pair(scores, labels, weights=rng.uniform(0.5, 2.0, 40))
        assert np.shares_memory(pr.x, roc.y) and np.shares_memory(pr.thresholds, roc.thresholds)
        assert not np.shares_memory(pr.y, roc.y)
        assert np.array_equal(pr.x, roc.y[1:]) and np.array_equal(pr.thresholds, roc.thresholds[1:])


class TestComputeReport:
    def test_structure_and_canonical_order(self, rng):
        n = 80
        truths = rng.integers(0, 3, n)
        probs = rng.dirichlet(np.ones(3) * 2, n)
        preds = probs.argmax(axis=1)
        rep = compute_report(truths, preds, probs=probs, level="image")
        d = rep.as_dict()
        assert d["level"] == "image"
        assert d["n"] == n
        assert list(d["per_class"]) == ["A-EGJA", "E-EGJA", "control"]
        assert d["tie_break"] == "severity"
        assert set(d["auc"]) == {"micro", "per_class"}
        assert list(d["auc"]["per_class"]) == ["aegja", "eegja", "control"]
        for key, k in (("auc", 0), ("ap", 1)):
            areas = {name: pair[k].area for name, pair in rep.curves.items()}
            assert d[key] == {"micro": areas["micro"], "per_class": {c.slug: areas[c.slug] for c in CLASS_ORDER}}

    def test_weighted_equals_unweighted_under_unit_weights(self, rng):
        n = 50
        truths = rng.integers(0, 3, n)
        probs = rng.dirichlet(np.ones(3), n)
        preds = probs.argmax(axis=1)
        r1 = compute_report(truths, preds, probs=probs, level="image")
        r2 = compute_report(
            truths, preds, probs=probs, weights=np.ones(n), level="image"
        )
        assert np.array_equal(r1.cm, r2.cm)
        assert r1.overall.accuracy.value == pytest.approx(r2.overall.accuracy.value)
        assert r1.curves["micro"][0].area == pytest.approx(r2.curves["micro"][0].area, abs=1e-12)

    def test_without_probs_no_curves(self, rng):
        truths = rng.integers(0, 3, 30)
        preds = rng.integers(0, 3, 30)
        rep = compute_report(truths, preds, level="image")
        assert rep.curves == {}
        assert "auc" not in rep.as_dict() and "ap" not in rep.as_dict()

    def test_missing_class_curves_skipped_with_warning(self, rng):
        # no control rows at all: the control one-vs-rest curve is undefined
        truths = rng.integers(0, 2, 30)
        probs = rng.dirichlet(np.ones(3), 30)
        preds = probs.argmax(axis=1)
        rep = compute_report(truths, preds, probs=probs, level="image")
        assert list(rep.curves) == ["micro", "aegja", "eegja"]
        assert any("control" in w for w in rep.warnings)
        assert list(rep.as_dict()["auc"]["per_class"]) == ["aegja", "eegja"]

    def test_kappa_matches_direct(self, rng):
        truths = rng.integers(0, 3, 40)
        preds = rng.integers(0, 3, 40)
        rep = compute_report(truths, preds, level="image")
        assert rep.kappa == pytest.approx(
            cohen_kappa(confusion_matrix(truths, preds))
        )


class TestCurveCSV:
    def test_header_and_rows(self):
        report = compute_report([0, 1, 2], [0, 1, 2], np.eye(3))
        roc = report.curves["micro"][0]
        lines = "".join(curve_csvs(report)["roc_micro.csv"]).splitlines()
        assert lines[0] == f"# kind=ROC area={roc.area!r}"
        assert lines[1] == "x,y,threshold"
        rows = zip(roc.x.tolist(), roc.y.tolist(), roc.thresholds.tolist())
        assert lines[2:] == [f"{x!r},{y!r},{t!r}" for x, y, t in rows]
