"""Parsing, serialization, folds, synthesis, and subgroup filters."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gjeval import (
    ClassLabel,
    Dataset,
    ParseError,
    PredictionRecord,
    SynthSpec,
    argmax_severity,
    fold_datasets,
    kfold_split,
    parse_label,
    parse_predictions,
    parse_readers,
    serialize_predictions,
    serialize_readers,
    subgroup,
    summarize,
    synth_generate,
)
from gjeval.data import ReaderRecord, age_band, sex_is, age_in_band, center_is, modality_is

HEADER = "image_id,patient_id,true_label,p_aegja,p_eegja,p_control"


def csv_text(*rows: str) -> str:
    return HEADER + "\n" + "\n".join(rows) + "\n"


class TestLabels:
    def test_display_and_slug(self):
        assert ClassLabel.AEGJA.display == "A-EGJA"
        assert ClassLabel.EEGJA.display == "E-EGJA"
        assert ClassLabel.CONTROL.display == "control"
        assert [c.slug for c in ClassLabel] == ["aegja", "eegja", "control"]

    def test_parse_aliases(self):
        assert parse_label("A-EGJA") == ClassLabel.AEGJA
        assert parse_label("a-egja") == ClassLabel.AEGJA
        assert parse_label("aegja") == ClassLabel.AEGJA
        assert parse_label("Control") == ClassLabel.CONTROL
        assert parse_label("2") == ClassLabel.CONTROL
        assert parse_label("1") == ClassLabel.EEGJA

    def test_parse_rejects_unknown(self):
        with pytest.raises(ParseError):
            parse_label("B-EGJA")

    def test_severity_order_is_canonical_order(self):
        # class 0 outranks 1 outranks 2 on ties
        assert argmax_severity(np.array([0.4, 0.4, 0.2])) == 0
        assert argmax_severity(np.array([0.2, 0.4, 0.4])) == 1
        assert argmax_severity(np.array([1 / 3, 1 / 3, 1 / 3])) == 0

    def test_tie_break_example(self):
        # two-way tie between E-EGJA and control resolves to E-EGJA
        assert argmax_severity(np.array([0.2857, 0.3571, 0.3571])) == 1


class TestParsePredictions:
    def test_round_trip(self):
        text = csv_text(
            "i1,p1,A-EGJA,0.8,0.15,0.05",
            "i2,p1,A-EGJA,0.2,0.5,0.3",
            "i3,p2,control,0.1,0.2,0.7",
        )
        ds = parse_predictions(text)
        assert len(ds.records) == 3
        assert ds.records[0].truth == ClassLabel.AEGJA
        assert ds.records[1].pred == ClassLabel.EEGJA
        out = serialize_predictions(ds)
        assert parse_predictions(out).records == ds.records

    def test_optional_columns(self):
        text = (
            HEADER + ",center,modality,sex,age\n"
            "i1,p1,A-EGJA,0.8,0.15,0.05,C1,WLI,F,63\n"
        )
        ds = parse_predictions(text)
        rec = ds.records[0]
        assert rec.center == "C1" and rec.modality == "WLI"
        assert rec.sex == "F" and rec.age == 63

    @pytest.mark.parametrize("age", ["inf", "nan", "-3"])
    def test_impossible_age_rejected_with_row(self, age):
        text = (
            HEADER + ",center,modality,sex,age\n"
            "i1,p1,A-EGJA,0.8,0.15,0.05,C1,WLI,F,63\n"
            f"i2,p2,control,0.1,0.2,0.7,C1,WLI,M,{age}\n"
        )
        with pytest.raises(ParseError, match=rf"row 3: age must be finite and non-negative, got '{age}'"):
            parse_predictions(text)

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_predictions("a,b,c\n1,2,3\n")

    def test_row_number_in_error(self):
        text = csv_text("i1,p1,A-EGJA,0.8,0.15,0.05", "i2,p1,A-EGJA,0.8,0.15,oops")
        with pytest.raises(ParseError, match="row 3"):
            parse_predictions(text)

    def test_duplicate_image_id(self):
        text = csv_text("i1,p1,A-EGJA,1,0,0", "i1,p1,A-EGJA,1,0,0")
        with pytest.raises(ParseError, match="duplicate"):
            parse_predictions(text)

    def test_conflicting_patient_truth(self):
        text = csv_text("i1,p1,A-EGJA,1,0,0", "i2,p1,control,0,0,1")
        with pytest.raises(ParseError, match="patient"):
            parse_predictions(text)

    def test_probability_out_of_range(self):
        with pytest.raises(ParseError):
            parse_predictions(csv_text("i1,p1,A-EGJA,1.2,-0.1,-0.1"))

    def test_lax_renormalizes_small_drift(self):
        ds = parse_predictions(csv_text("i1,p1,A-EGJA,0.5004,0.3,0.2"))
        assert ds.renormalized == 1
        assert math.isclose(sum(ds.records[0].probs), 1.0, abs_tol=1e-12)

    def test_lax_rejects_large_drift(self):
        with pytest.raises(ParseError, match="sum"):
            parse_predictions(csv_text("i1,p1,A-EGJA,0.5,0.3,0.1"))

    def test_strict_rejects_small_drift(self):
        with pytest.raises(ParseError):
            parse_predictions(csv_text("i1,p1,A-EGJA,0.5004,0.3,0.2"), strict=True)
        # exactly summing rows pass strict
        ds = parse_predictions(csv_text("i1,p1,A-EGJA,0.5,0.3,0.2"), strict=True)
        assert ds.renormalized == 0

    def test_blank_lines_skipped(self):
        ds = parse_predictions(HEADER + "\n\ni1,p1,A-EGJA,1,0,0\n\n")
        assert len(ds.records) == 1

    def test_empty_body_rejected(self):
        with pytest.raises(ParseError):
            parse_predictions(HEADER + "\n")


class TestReaders:
    def test_round_trip(self):
        text = (
            "reader_id,group,arm,image_id,pred_label,elapsed_s\n"
            "r1,trainee,A,i1,A-EGJA,12.5\n"
            "r1,trainee,A,i2,control,8.0\n"
            "r2,expert,B,i1,E-EGJA,3.25\n"
        )
        readers = parse_readers(text)
        assert len(readers) == 3
        assert readers[0].group == "trainee" and readers[0].arm == "A"
        assert readers[2].pred == ClassLabel.EEGJA
        assert parse_readers(serialize_readers(readers)) == readers

    def test_group_case_insensitive_arm_normalized(self):
        text = "reader_id,group,arm,image_id,pred_label\nr1,Expert,b,i1,control\n"
        (rec,) = parse_readers(text)
        assert rec.group == "expert" and rec.arm == "B"
        assert rec.elapsed_s is None

    def test_duplicate_observation_rejected(self):
        text = (
            "reader_id,group,arm,image_id,pred_label\n"
            "r1,trainee,A,i1,control\nr1,trainee,A,i1,control\n"
        )
        with pytest.raises(ParseError, match="duplicate"):
            parse_readers(text)

    def test_bad_group(self):
        text = "reader_id,group,arm,image_id,pred_label\nr1,novice,A,i1,control\n"
        with pytest.raises(ParseError):
            parse_readers(text)

    def test_negative_elapsed_rejected(self):
        text = "reader_id,group,arm,image_id,pred_label,elapsed_s\nr1,trainee,A,i1,control,-1\n"
        with pytest.raises(ParseError):
            parse_readers(text)


class TestSummarize:
    def test_counts_and_age_stats(self):
        text = (
            HEADER + ",center,modality,sex,age\n"
            "i1,p1,A-EGJA,1,0,0,C1,WLI,F,59\n"
            "i2,p1,A-EGJA,1,0,0,C1,NBI,F,59\n"
            "i3,p2,control,0,0,1,C2,WLI,M,65\n"
            "i4,p3,control,0,0,1,C2,WLI,M,80\n"
        )
        s = summarize(parse_predictions(text))
        assert s.patients == 3 and s.images == 4
        assert s.patients_by_class == {"A-EGJA": 1, "E-EGJA": 0, "control": 2}
        assert s.images_by_class == {"A-EGJA": 2, "E-EGJA": 0, "control": 2}
        assert s.patients_by_sex == {"F": 1, "M": 2}
        assert s.age_mean == pytest.approx((59 + 65 + 80) / 3)
        assert s.age_sd == pytest.approx(np.std([59, 65, 80], ddof=1))
        assert s.age_bands == {"lt60": 1, "60to69": 1, "ge70": 1}

    def test_age_band_edges(self):
        assert age_band(59.9) == "lt60"
        assert age_band(60) == "60to69"
        assert age_band(69.999) == "60to69"
        assert age_band(70) == "ge70"


class TestKFold:
    def _dataset(self, n_patients=20, images_each=3):
        records = []
        for p in range(n_patients):
            cls = ClassLabel(p % 3)
            probs = [0.0, 0.0, 0.0]
            probs[int(cls)] = 1.0
            for j in range(images_each):
                records.append(
                    PredictionRecord(
                        image_id=f"i{p}_{j}",
                        patient_id=f"p{p:03d}",
                        truth=cls,
                        probs=tuple(probs),
                    )
                )
        return Dataset.from_records(records)

    def test_assignment_partition(self):
        ds = self._dataset()
        spec = kfold_split(ds, k=5, unit="patient", seed=3)
        assert sorted(spec.assignments) == sorted(ds.patient_index)
        assert set(spec.assignments.values()) == set(range(5))
        sizes = spec.fold_sizes()
        assert sum(sizes) == 20
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic_per_seed(self):
        ds = self._dataset()
        a = kfold_split(ds, k=4, unit="patient", seed=9).assignments
        b = kfold_split(ds, k=4, unit="patient", seed=9).assignments
        c = kfold_split(ds, k=4, unit="patient", seed=10).assignments
        assert a == b
        assert a != c

    def test_patient_integrity(self):
        ds = self._dataset()
        spec = kfold_split(ds, k=3, unit="patient", seed=0)
        for fold in range(3):
            train, test = fold_datasets(ds, spec, fold)
            train_p = {r.patient_id for r in train.records}
            test_p = {r.patient_id for r in test.records}
            assert not train_p & test_p
            assert len(train.records) + len(test.records) == len(ds.records)

    def test_image_unit(self):
        ds = self._dataset(n_patients=4, images_each=5)
        spec = kfold_split(ds, k=4, unit="image", seed=1)
        assert sorted(spec.assignments) == sorted(r.image_id for r in ds.records)

    def test_k_bounds(self):
        ds = self._dataset(n_patients=3, images_each=1)
        with pytest.raises(ValueError):
            kfold_split(ds, k=1, unit="patient", seed=0)
        with pytest.raises(ValueError):
            kfold_split(ds, k=4, unit="patient", seed=0)


class TestSynth:
    def test_reproducible_and_sized(self):
        spec = SynthSpec(patients_per_class=(5, 4, 6), images_min=2, images_max=4, seed=11)
        a = synth_generate(spec)
        b = synth_generate(spec)
        assert a.records == b.records
        assert len(a.patient_index) == 15
        per_class = {c: 0 for c in ClassLabel}
        for pid, img_ids in a.patient_index.items():
            per_class[a.records[img_ids[0]].truth] += 1
            assert 2 <= len(img_ids) <= 4
        assert per_class == {ClassLabel.AEGJA: 5, ClassLabel.EEGJA: 4, ClassLabel.CONTROL: 6}

    def test_probability_rows_valid(self):
        ds = synth_generate(SynthSpec(patients_per_class=(3, 3, 3), seed=2))
        for rec in ds.records:
            assert math.isclose(sum(rec.probs), 1.0, abs_tol=1e-9)
            assert all(p >= 0 for p in rec.probs)

    def test_infinite_separation_is_one_hot(self):
        ds = synth_generate(SynthSpec(patients_per_class=(2, 2, 2), separation=float("inf"), seed=5))
        for rec in ds.records:
            assert rec.probs[int(rec.truth)] == 1.0
            assert rec.pred == rec.truth

    def test_separation_improves_accuracy(self):
        accs = []
        for sep in (0.5, 3.0):
            ds = synth_generate(SynthSpec(patients_per_class=(30, 30, 30), separation=sep, seed=7))
            acc = np.mean([rec.pred == rec.truth for rec in ds.records])
            accs.append(acc)
        assert accs[1] > accs[0]

    def test_demographics_present_by_default(self):
        ds = synth_generate(SynthSpec(patients_per_class=(2, 2, 2), seed=3))
        rec = ds.records[0]
        assert rec.sex in ("male", "female") and 40 <= rec.age <= 85
        assert rec.center is not None and rec.modality is not None


class TestSubgroups:
    def test_filters(self):
        text = (
            HEADER + ",center,modality,sex,age\n"
            "i1,p1,A-EGJA,1,0,0,C1,WLI,female,59\n"
            "i2,p2,control,0,0,1,C2,NBI,male,72\n"
        )
        ds = parse_predictions(text)
        assert len(subgroup(ds, sex_is("Female"), "sex=female").records) == 1
        assert len(subgroup(ds, age_in_band("ge70"), "age ge70").records) == 1
        assert len(subgroup(ds, center_is("C2"), "center=C2").records) == 1
        assert len(subgroup(ds, modality_is("WLI"), "modality=WLI").records) == 1

    def test_empty_subgroup_raises(self):
        ds = parse_predictions(csv_text("i1,p1,A-EGJA,1,0,0"))
        with pytest.raises(ValueError, match="no records"):
            subgroup(ds, lambda r: False, "none")
