"""Patient aggregation, weighted evaluation, model joins, reader pooling."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_dataset, row_patient_ids

from gjeval import (
    ClassLabel,
    Dataset,
    Readers,
    evaluate,
    group_vs_group_kappa,
    inverse_count_weights,
    join_predictions,
    model_vs_reader_tests,
    patient_mean_aggregate,
    per_reader_points,
    pool_readers,
    reader_group_report,
    reader_rows,
)
from gjeval.aggregate import LEVELS
from gjeval.data import READER_CELLS
from gjeval.stats import kappa_test


def two_patient_dataset():
    """pa: 2 images of A-EGJA; pb: 3 images of control."""
    truths = [0, 0, 2, 2, 2]
    probs = [
        (0.6, 0.3, 0.1),
        (0.2, 0.5, 0.3),
        (0.1, 0.2, 0.7),
        (0.3, 0.3, 0.4),
        (0.2, 0.1, 0.7),
    ]
    pids = ["pa", "pa", "pb", "pb", "pb"]
    return make_dataset(truths, probs, pids)


class TestPatientAggregation:
    def test_mean_is_image_average(self):
        ds = two_patient_dataset()
        agg = patient_mean_aggregate(ds)
        assert agg.shape == (2, 3)
        pa = agg[ds.patient_ids.index("pa")]
        assert pa[0] == pytest.approx((0.6 + 0.2) / 2)
        assert pa[1] == pytest.approx((0.3 + 0.5) / 2)
        assert ds.patient_counts()[ds.patient_ids.index("pa")] == 2
        assert pa.sum() == pytest.approx(1.0)

    def test_mean_sums_each_patient_in_row_order(self, rng):
        # interleaved patients with up to 40 images: the mean must be the
        # sequential row-order sum, not a pairwise or reordered one
        codes = rng.integers(0, 5, 200)
        probs = rng.dirichlet(np.ones(3), 200)
        ds = make_dataset(codes % 3, probs, [f"p{c}" for c in codes])
        agg = patient_mean_aggregate(ds)
        for k, pid in enumerate(ds.patient_ids):
            total = np.zeros(3)
            for row in np.flatnonzero(row_patient_ids(ds) == pid):
                total = total + probs[row]
            assert agg[k].tobytes() == (total / ds.patient_counts()[k]).tobytes()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="^cannot aggregate an empty dataset$"):
            patient_mean_aggregate(make_dataset([], np.zeros((0, 3)), []))

    def test_severity_tie_break_after_aggregation(self):
        # mean probs tie between E-EGJA and control -> E-EGJA (more severe)
        truths = [1, 1]
        probs = [(0.2857, 0.4286, 0.2857), (0.2857, 0.2857, 0.4286)]
        ds = make_dataset(truths, probs, ["px", "px"])
        (pat,) = patient_mean_aggregate(ds)
        assert pat[1] == pat[2]
        assert evaluate(ds, "patient").cm[ClassLabel.EEGJA, ClassLabel.EEGJA] == 1

    def test_preserves_truth(self):
        ds = two_patient_dataset()
        # pa is A-EGJA, pb control: one patient in each of those rows
        assert evaluate(ds, "patient").cm.sum(axis=1).tolist() == [1.0, 0.0, 1.0]


class TestInverseCountWeights:
    def test_weights_sum_to_patient_count(self):
        ds = two_patient_dataset()
        w = inverse_count_weights(ds)
        assert w.shape == (5,)
        assert w.sum() == pytest.approx(2.0)  # one unit of mass per patient
        assert w[0] == pytest.approx(0.5)
        assert w[2] == pytest.approx(1 / 3)


class TestEvaluateLevels:
    def test_levels_exposed(self):
        assert LEVELS == ("image", "patient", "weighted")

    def test_image_level_counts(self, small_dataset):
        rep = evaluate(small_dataset, "image")
        assert rep.level == "image"
        assert rep.n == 9
        assert rep.cm.sum() == 9

    def test_patient_level_counts(self, small_dataset):
        rep = evaluate(small_dataset, "patient")
        assert rep.n == 5
        assert rep.cm.sum() == 5

    def test_weighted_level_effective_n(self, small_dataset):
        rep = evaluate(small_dataset, "weighted")
        assert rep.n == pytest.approx(5.0)  # total weight = patient count
        assert rep.cm.sum() == pytest.approx(5.0)

    def test_unknown_level_rejected(self, small_dataset):
        with pytest.raises(ValueError):
            evaluate(small_dataset, "reader")

    def test_renormalized_warning_attached(self):
        from gjeval import parse_predictions

        text = (
            "image_id,patient_id,true_label,p_aegja,p_eegja,p_control\n"
            "i1,p1,A-EGJA,0.5004,0.3,0.2\n"
            "i2,p2,control,0.2,0.2,0.6\n"
        )
        rep = evaluate(parse_predictions(text), "image")
        assert any("renormalized" in w for w in rep.warnings)

    def test_single_image_patients_image_equals_patient(self):
        truths = [0, 1, 2, 0, 1, 2]
        probs = [
            (0.7, 0.2, 0.1), (0.1, 0.7, 0.2), (0.2, 0.1, 0.7),
            (0.5, 0.4, 0.1), (0.3, 0.5, 0.2), (0.1, 0.3, 0.6),
        ]
        ds = make_dataset(truths, probs)  # distinct patient per image
        r_img = evaluate(ds, "image")
        r_pat = evaluate(ds, "patient")
        r_wtd = evaluate(ds, "weighted")
        assert np.array_equal(r_img.cm, r_pat.cm)
        assert r_img.overall.accuracy.value == pytest.approx(r_wtd.overall.accuracy.value)
        assert r_img.curves["micro"][0].area == pytest.approx(r_pat.curves["micro"][0].area, abs=1e-12)


class TestJoinPredictions:
    def test_inner_join_in_first_order(self, small_dataset):
        rows = [8, 7, 6, 5, 4]
        other = Dataset.from_columns(
            [small_dataset.image_ids[i] for i in rows], row_patient_ids(small_dataset)[rows],
            small_dataset.truth[rows], small_dataset.probs[rows],
        )
        joined = join_predictions(small_dataset, other)
        # order follows the first dataset: each joined row is one image in both
        assert joined.truths.tolist() == small_dataset.truth[4:].tolist()
        assert joined.probs_a.tolist() == small_dataset.probs[4:].tolist()
        assert joined.probs_b.tolist() == small_dataset.probs[4:].tolist()
        assert joined.preds_a.tolist() == joined.preds_b.tolist() == small_dataset.pred[4:].tolist()

    def test_truth_mismatch_rejected(self, small_dataset):
        other = Dataset.from_columns(
            small_dataset.image_ids[:1], ["pa"], [ClassLabel.CONTROL], small_dataset.probs[:1]
        )
        with pytest.raises(ValueError, match="true label"):
            join_predictions(small_dataset, other)

    def test_empty_join_rejected(self, small_dataset):
        other = Dataset.from_columns(["elsewhere"], ["zz"], [ClassLabel.AEGJA], [(1.0, 0.0, 0.0)])
        with pytest.raises(ValueError, match="common"):
            join_predictions(small_dataset, other)


def make_readers(calls) -> Readers:
    """Readers from (reader_id, group, arm, image_id, pred, elapsed_s) calls."""
    rid, group, arm, image, pred, elapsed = zip(*calls)
    return Readers(
        rid, image,
        np.array([READER_CELLS.index(cell) for cell in zip(group, arm)]),
        np.array(pred, dtype=np.int64),
        np.array(elapsed, dtype=np.float64),
    )


def pooled(readers, ds, group, arm):
    return pool_readers(readers, ds, READER_CELLS.index((group, arm)), reader_rows(readers, ds))


def reader_calls(ds):
    """Two trainees in arm A, one expert in arm B, covering all images."""
    return [
        (rid, group, arm, image_id, (truth + 1) % 3 if flip else truth, 5.0)
        for rid, group, arm, flip in (
            ("t1", "trainee", "A", False),
            ("t2", "trainee", "A", True),
            ("e1", "expert", "B", False),
        )
        for image_id, truth in zip(ds.image_ids, ds.truth.tolist())
    ]


def reader_fixture(ds):
    return make_readers(reader_calls(ds))


class TestReaderPooling:
    def test_pool_replicates_model_preds(self, small_dataset):
        readers = reader_fixture(small_dataset)
        pool = pooled(readers, small_dataset, "trainee", "A")
        n = len(small_dataset)
        assert pool.truths.size == 2 * n  # two trainees
        assert pool.n_readers == 2  # t1 and t2, 9 calls each
        assert (pool.group, pool.arm) == ("trainee", "A")
        by_img = dict(zip(small_dataset.image_ids, small_dataset.pred.tolist()))
        cell = [c[3] for c in reader_calls(small_dataset) if c[1] == "trainee"]
        assert [small_dataset.image_ids[r] for r in pool.rows.tolist()] == cell
        for img, mp in zip(cell, pool.model_preds):
            assert mp == int(by_img[img])

    def test_mean_elapsed(self, small_dataset):
        readers = reader_fixture(small_dataset)
        pool = pooled(readers, small_dataset, "expert", "B")
        assert pool.time_cost_s == pytest.approx(5.0)

    def test_dangling_image_rejected(self, small_dataset):
        readers = make_readers(reader_calls(small_dataset) + [("t1", "trainee", "A", "ghost", 2, 1.0)])
        with pytest.raises(ValueError, match="ghost"):
            pooled(readers, small_dataset, "trainee", "A")

    def test_empty_cell_rejected(self, small_dataset):
        readers = reader_fixture(small_dataset)
        with pytest.raises(ValueError, match="no reader records for group='competent' arm='A'"):
            pooled(readers, small_dataset, "competent", "A")
        rows = reader_rows(readers, small_dataset)
        for code in (-1, len(READER_CELLS)):  # out of range: a ValueError, never an IndexError
            with pytest.raises(ValueError, match="reader cell code"):
                pool_readers(readers, small_dataset, code, rows)

    def test_partial_elapsed_rejected(self, small_dataset):
        calls = reader_calls(small_dataset)
        calls[0] = (*calls[0][:5], np.nan)
        with pytest.raises(ValueError, match="elapsed"):
            pooled(make_readers(calls), small_dataset, "trainee", "A")

    def test_first_bad_call_wins_and_unknown_image_beats_missing_time(self, small_dataset):
        calls = reader_calls(small_dataset)
        calls[3] = ("t1", "trainee", "A", "ghost3", 0, np.nan)
        calls[5] = ("t1", "trainee", "A", "ghost5", 0, 1.0)
        with pytest.raises(ValueError, match="unknown image 'ghost3'"):
            pooled(make_readers(calls), small_dataset, "trainee", "A")
        calls[1] = (*calls[1][:5], np.nan)
        with pytest.raises(ValueError, match="missing elapsed_s for reader 't1' image 'img00001'"):
            pooled(make_readers(calls), small_dataset, "trainee", "A")

    def test_untimed_cell_among_timed(self, small_dataset):
        calls = [(*c[:5], np.nan) if c[0] == "e1" else c for c in reader_calls(small_dataset)]
        readers = make_readers(calls)
        assert pooled(readers, small_dataset, "expert", "B").time_cost_s is None
        assert pooled(readers, small_dataset, "trainee", "A").time_cost_s == 5.0

    def test_pool_keeps_file_order(self, small_dataset):
        calls = reader_calls(small_dataset)[::-1]
        pool = pooled(make_readers(calls), small_dataset, "trainee", "A")
        cell = [c for c in calls if c[1] == "trainee"]
        assert [small_dataset.image_ids[r] for r in pool.rows.tolist()] == [c[3] for c in cell]
        assert pool.reader_preds.tolist() == [c[4] for c in cell]


class TestReaderReports:
    def test_group_report_no_curves(self, small_dataset):
        pool = pooled(reader_fixture(small_dataset), small_dataset, "expert", "B")
        rep = reader_group_report(pool)
        assert rep.curves == {}
        assert "auc" not in rep.as_dict()
        assert rep.level == "readers:expert:B"
        assert rep.time_cost_s == pytest.approx(5.0)
        # e1 reproduces truth exactly
        assert rep.overall.accuracy.value == pytest.approx(1.0)

    def test_model_vs_reader_test_order(self, small_dataset):
        pool = pooled(reader_fixture(small_dataset), small_dataset, "expert", "B")
        tests = model_vs_reader_tests(pool)
        assert [t.name for t in tests] == ["kappa", "bowker"]
        assert "kappa" in tests[0].detail

    def test_group_vs_group_cross_join(self, small_dataset):
        readers = reader_fixture(small_dataset)
        pool_a = pooled(readers, small_dataset, "trainee", "A")
        pool_b = pooled(readers, small_dataset, "expert", "B")
        res = group_vs_group_kappa(pool_a, pool_b)
        # 2 trainees x 1 expert x 9 images = 18 cross pairs
        assert res.detail["n_pairs"] == 18
        assert "kappa" in res.detail

    def test_group_vs_group_matches_nested_loop(self, small_dataset, rng):
        ids = small_dataset.image_ids
        cells = (("trainee", "A"), ("expert", "B"))
        for _ in range(50):
            calls = [
                (f"r{int(rng.integers(0, 4))}{group}", group, arm, ids[int(rng.integers(0, 9))],
                 int(rng.integers(0, 3)), 1.0)
                for group, arm in cells
                for _ in range(int(rng.integers(1, 15)))
            ]
            calls = list({(c[0], c[3]): c for c in calls}.values())
            x, y = (pooled(make_readers(calls), small_dataset, *cell) for cell in cells)
            calls_x, calls_y = ([c for c in calls if c[1:3] == cell] for cell in cells)
            a, b = [], []
            for _, _, _, img_y, pred_y, _ in calls_y:
                for _, _, _, img_x, pred_x, _ in calls_x:
                    if img_x == img_y:
                        a.append(pred_x)
                        b.append(pred_y)
            if not a:
                with pytest.raises(ValueError, match="no common images"):
                    group_vs_group_kappa(x, y)
                continue
            want = kappa_test(a, b)
            want.detail["n_pairs"] = len(a)
            assert group_vs_group_kappa(x, y).as_dict() == want.as_dict()

    def test_reader_rows_mark_unknown_images(self, small_dataset):
        calls = reader_calls(small_dataset)
        calls[4] = ("t1", "trainee", "A", "ghost", 0, 1.0)
        readers = make_readers(calls)
        rows = reader_rows(readers, small_dataset)
        assert rows.tolist() == [
            -1 if c[3] == "ghost" else small_dataset.image_ids.index(c[3]) for c in calls
        ]
        expert_b, trainee_a = READER_CELLS.index(("expert", "B")), READER_CELLS.index(("trainee", "A"))
        assert pool_readers(readers, small_dataset, expert_b, rows).truths.size == len(small_dataset)
        with pytest.raises(ValueError, match="unknown image 'ghost'"):
            pool_readers(readers, small_dataset, trainee_a, rows)
        with pytest.raises(ValueError, match="unknown image 'ghost'"):
            per_reader_points(readers, small_dataset, rows)

    def test_per_reader_points_sorted_cells(self, small_dataset):
        readers = reader_fixture(small_dataset)
        pts = per_reader_points(readers, small_dataset, reader_rows(readers, small_dataset))
        # 3 readers x 3 classes
        assert len(pts) == 9
        keys = [(p["group"], p["arm"], p["reader_id"], p["class"]) for p in pts]
        assert keys == sorted(keys, key=lambda k: (
            ("trainee", "competent", "expert").index(k[0]), k[1], k[2],
            ("A-EGJA", "E-EGJA", "control").index(k[3]),
        ))
        perfect = [p for p in pts if p["reader_id"] == "e1"]
        for p in perfect:
            assert p["sensitivity"] in (None, pytest.approx(1.0))
