"""Parsing, serialization, the columnar dataset, folds, and synthesis."""

from __future__ import annotations

import csv
import gc
import io
import math
import re

import numpy as np
import pytest

import gjeval.data
from conftest import dataset_columns, make_dataset, predictions_csv, reader_columns, row_patient_ids

from gjeval import (
    ClassLabel,
    Dataset,
    ParseError,
    SynthSpec,
    fold_datasets,
    kfold_split,
    parse_predictions,
    parse_readers,
    summarize,
    synth_generate,
)
from gjeval.aggregate import patient_mean_aggregate
from gjeval.data import FOLD_UNITS, READER_ARMS, READER_CELLS, READER_GROUPS, age_band

HEADER = "image_id,patient_id,true_label,p_aegja,p_eegja,p_control"


def csv_text(*rows: str) -> str:
    return HEADER + "\n" + "\n".join(rows) + "\n"


TWO_LINES = '"i\n1",p1,A-EGJA,0.8,0.15,0.05'  # a row whose quoted image_id holds a line end


class TestLabels:
    def test_display_and_slug(self):
        assert ClassLabel.AEGJA.display == "A-EGJA"
        assert ClassLabel.EEGJA.display == "E-EGJA"
        assert ClassLabel.CONTROL.display == "control"
        assert [c.slug for c in ClassLabel] == ["aegja", "eegja", "control"]

    def test_parse_aliases(self):
        tokens = {"A-EGJA": ClassLabel.AEGJA, "a-egja": ClassLabel.AEGJA, "aegja": ClassLabel.AEGJA,
                  "Control": ClassLabel.CONTROL, "2": ClassLabel.CONTROL, "1": ClassLabel.EEGJA}
        rows = [f"i{k},p{k},{token},1,0,0" for k, token in enumerate(tokens)]
        assert parse_predictions(csv_text(*rows)).truth.tolist() == list(tokens.values())

    def test_parse_rejects_unknown(self):
        with pytest.raises(ParseError, match="^row 3: unknown class label 'B-EGJA'$"):
            parse_predictions(csv_text("i1,p1,A-EGJA,1,0,0", "i2,p2,B-EGJA,1,0,0"))

    def test_severity_order_is_canonical_order(self):
        # class 0 outranks 1 outranks 2 on ties
        ds = make_dataset([0, 0, 0], [(0.4, 0.4, 0.2), (0.2, 0.4, 0.4), (1 / 3, 1 / 3, 1 / 3)])
        assert ds.pred.tolist() == [0, 1, 0]

    def test_tie_break_example(self):
        # two-way tie between E-EGJA and control resolves to E-EGJA
        ds = parse_predictions(csv_text("i1,p1,E-EGJA,0.2857,0.3571,0.3571"))
        assert ds.pred.tolist() == [ClassLabel.EEGJA]


class TestParsePredictions:
    def test_round_trip(self):
        text = csv_text(
            "i1,p1,A-EGJA,0.8,0.15,0.05",
            "i2,p1,A-EGJA,0.2,0.5,0.3",
            "i3,p2,control,0.1,0.2,0.7",
        )
        ds = parse_predictions(text)
        assert len(ds) == 3
        assert ds.truth[0] == ClassLabel.AEGJA
        assert ds.pred[1] == ClassLabel.EEGJA
        assert ds.patient_ids == ("p1", "p2")
        assert ds.patient_codes.tolist() == [0, 0, 1]
        out = predictions_csv(ds)
        assert dataset_columns(parse_predictions(out)) == dataset_columns(ds)

    def test_optional_columns(self):
        """``sex`` and ``age`` are kept per patient, from its first row;
        ``center`` and ``modality`` are read but not kept."""
        text = (
            HEADER + ",center,modality,sex,age\n"
            "i1,p1,A-EGJA,0.8,0.15,0.05,C1,WLI,F,63\n"
            "i2,p2,control,0.1,0.2,0.7,C2,NBI,,\n"
            "i3,p1,A-EGJA,0.7,0.2,0.1,C1,NBI,M,64\n"
        )
        ds = parse_predictions(text)
        assert ds.sex == ("F", None) and ds.age[0] == 63.0 and np.isnan(ds.age[1])
        assert not hasattr(ds, "center") and not hasattr(ds, "modality")

    def test_center_and_modality_change_no_column(self):
        rows = ("i1,p1,A-EGJA,0.8,0.15,0.05,{}F,63", "i2,p2,control,0.1,0.2,0.7,{}M,", "i3,p1,A-EGJA,0.7,0.2,0.1,{},")
        with_both = parse_predictions(_text(HEADER + ",center,modality,sex,age", [r.format("C1,WLI,") for r in rows]))
        without = parse_predictions(_text(HEADER + ",sex,age", [r.format("") for r in rows]))
        assert dataset_columns(with_both) == dataset_columns(without)

    @pytest.mark.parametrize("age", ["inf", "nan", "-3", "150.5", "1e308"])
    def test_impossible_age_rejected_with_row(self, age):
        text = (
            HEADER + ",center,modality,sex,age\n"
            "i1,p1,A-EGJA,0.8,0.15,0.05,C1,WLI,F,63\n"
            f"i2,p2,control,0.1,0.2,0.7,C1,WLI,M,{age}\n"
        )
        with pytest.raises(ParseError, match=f"^{re.escape(f'row 3: age must be in [0, 150], got {age!r}')}$"):
            parse_predictions(text)

    def test_age_bounds_are_accepted(self):
        ds = parse_predictions(_text(HEADER + ",age", ("i1,p1,A-EGJA,1,0,0,0", "i2,p2,A-EGJA,1,0,0,150")))
        assert ds.age.tolist() == [0.0, 150.0]

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
        assert math.isclose(sum(ds.probs[0].tolist()), 1.0, abs_tol=1e-12)

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
        assert len(ds) == 1

    def test_empty_body_rejected(self):
        with pytest.raises(ParseError):
            parse_predictions(HEADER + "\n")

    @pytest.mark.parametrize("row, column", [(",p1,A-EGJA,0.8,0.1,0.1", "image_id"),
                                             ("i2, ,A-EGJA,0.8,0.1,0.1", "patient_id")])
    def test_empty_id_rejected_with_row(self, row, column):
        text = csv_text("i1,p1,A-EGJA,0.8,0.1,0.1", row)
        with pytest.raises(ParseError, match=rf"^row 3: empty {column}$"):
            parse_predictions(text)

    def test_duplicate_header_column_rejected(self):
        text = HEADER + ",age,age\ni1,p1,A-EGJA,1,0,0,61,62\n"
        with pytest.raises(ParseError, match=r"^duplicate column 'age'$"):
            parse_predictions(text)

    def test_leading_byte_order_mark_stripped(self):
        text = csv_text("i1,p1,A-EGJA,0.8,0.15,0.05")
        assert dataset_columns(parse_predictions("\ufeff" + text)) == dataset_columns(parse_predictions(text))

    def test_first_bad_row_wins_over_later_field_count(self):
        text = csv_text("i1,p1,A-EGJA,0.8,0.15,0.05", "i2,p2,B-EGJA,1,0,0", "i3,p3,control")
        with pytest.raises(ParseError, match=r"^row 3: unknown class label 'B-EGJA'$"):
            parse_predictions(text)

    def test_row_numbers_count_skipped_blank_lines(self):
        text = HEADER + "\n\ni1,p1,A-EGJA,1,0,0\n\ni2,p2,A-EGJA,1,0,0.5\n"
        with pytest.raises(ParseError, match=r"^row 5: probabilities sum to 1.5"):
            parse_predictions(text)

    def test_earlier_fault_in_a_row_wins(self):
        # the label is checked before the probabilities, p_aegja before p_control
        with pytest.raises(ParseError, match="unknown class label"):
            parse_predictions(csv_text("i1,p1,nope,x,0,0"))
        with pytest.raises(ParseError, match="column p_aegja: 'x'"):
            parse_predictions(csv_text("i1,p1,A-EGJA,x,0,y"))

    def test_over_long_field_rejected_with_row(self):
        text = csv_text("i1,p1,A-EGJA,1,0,0", "i" * 200_000 + ",p2,A-EGJA,1,0,0")
        with pytest.raises(ParseError, match=r"^row 3: field larger than field limit \(131072\)$"):
            parse_predictions(text)
        with pytest.raises(ParseError, match=r"^row 1: field larger than field limit"):
            parse_predictions("x" * 200_000 + "\n")

    def test_bad_row_before_over_long_field_wins(self):
        text = csv_text("i1,p1,nope,1,0,0", "i" * 200_000 + ",p2,A-EGJA,1,0,0")
        with pytest.raises(ParseError, match=r"^row 2: unknown class label 'nope'$"):
            parse_predictions(text)

    def test_cross_row_faults_name_the_repeating_line(self):
        # with a blank line after each of the first two rows, rows 1-4 sit on lines 2, 4, 6, 7
        def parse(ids, patients, labels):
            rows = [f"{i},{p},{t},0.4,0.3,0.3" for i, p, t in zip(ids, patients, labels)]
            return parse_predictions(csv_text(rows[0], "", rows[1], "  ", *rows[2:]))

        labels = ("A-EGJA", "A-EGJA", "E-EGJA", "E-EGJA")
        # a duplicate image (row 3) before a conflicting truth (row 4) ...
        with pytest.raises(ParseError, match="^row 6: duplicate image_id 'a'$") as exc:
            parse("abad", "pqrq", labels)
        assert exc.value.row == 6
        # ... a conflict (row 3) before a duplicate (row 4) ...
        with pytest.raises(ParseError, match="^row 6: conflicting true labels for patient 'q'$"):
            parse("abca", "pqqr", labels)
        # ... and in one row the duplicate is reported
        with pytest.raises(ParseError, match="^row 6: duplicate image_id 'b'$"):
            parse("abbd", "pqqr", labels)
        # a fault within a row wins over an earlier cross-row fault
        with pytest.raises(ParseError, match="^row 7: unknown class label 'nope'$"):
            parse("abad", "pqrq", labels[:3] + ("nope",))

    # the first row holds a line end in a quoted image_id, so it spans two lines
    @pytest.mark.parametrize(("text", "message"), [
        (csv_text(TWO_LINES, "i2,p2,nope,0.8,0.15,0.05"), "row 4: unknown class label 'nope'"),
        (csv_text(TWO_LINES, "i2,p2,control,0.8,0.15"), "row 4: expected 6 fields, got 5"),
        (csv_text(TWO_LINES, '"i\n1",p2,control,0.1,0.2,0.7'), "row 4: duplicate image_id 'i\\n1'"),
        (csv_text("", TWO_LINES, "", '"i\n1",p2,control,0.1,0.2,0.7'), "row 6: duplicate image_id 'i\\n1'"),
    ], ids=["label", "field_count", "duplicate", "duplicate_among_blank_lines"])
    def test_row_numbers_count_line_ends_in_quoted_fields(self, text, message):
        """A row is named by the file line it starts on: a line end inside
        quotes moves every later row down a line."""
        with pytest.raises(ParseError) as exc:
            parse_predictions(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("collecting", [True, False])
    def test_gc_state_restored_after_failed_parse(self, collecting, monkeypatch):
        before = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            for parse, text in (
                (parse_predictions, HEADER + "\n"),
                (parse_predictions, csv_text("i1,p1,A-EGJA,1,0,0", "i2,p1,A-EGJA,1,0")),
                (parse_predictions, csv_text("i1,p1,A-EGJA,1,0,0", "i1,p1,A-EGJA,1,0,0")),
                (parse_readers, READER_HEADER + "\nr1,trainee,A,i1\n"),
            ):
                with pytest.raises(ParseError):
                    parse(text)
                assert gc.isenabled() is collecting
            seen = []

            def failing_floats(col):
                seen.append(gc.isenabled())
                raise RuntimeError("conversion failed")

            monkeypatch.setattr(gjeval.data, "_floats", failing_floats)
            with pytest.raises(RuntimeError):
                parse_predictions(csv_text("i1,p1,A-EGJA,1,0,0"))
            assert seen == [False] and gc.isenabled() is collecting
        finally:
            (gc.enable if before else gc.disable)()


class TestDataset:
    def test_patient_columns_in_first_appearance_order(self):
        ds = make_dataset([2, 0, 2, 1, 0], np.eye(3)[[2, 0, 2, 1, 0]], ["pz", "pa", "pz", "pm", "pa"])
        assert ds.patient_ids == ("pz", "pa", "pm")
        assert ds.patient_codes.tolist() == [0, 1, 0, 2, 1]
        assert ds.patient_first_row.tolist() == [0, 1, 3]
        assert ds.patient_counts().tolist() == [2, 2, 1]
        assert row_patient_ids(ds).tolist() == ["pz", "pa", "pz", "pm", "pa"]
        assert len(patient_mean_aggregate(ds)) == 3 and len(ds) == 5

    def test_columns_are_read_only(self, small_dataset):
        for col in (small_dataset.truth, small_dataset.probs, small_dataset.pred,
                    small_dataset.patient_codes, small_dataset.patient_first_row):
            with pytest.raises(ValueError):
                col[0] = 0

    def test_earliest_cross_row_fault_is_reported(self):
        probs = np.eye(3)[[0, 0, 1, 1]]
        # a duplicate image (3rd row) before a conflicting truth (4th row) ...
        with pytest.raises(ParseError, match="^duplicate image_id 'a'$"):
            Dataset.from_columns(["a", "b", "a", "d"], ["p", "q", "r", "q"], [0, 0, 1, 1], probs)
        # ... a conflict (3rd row) before a duplicate (4th row) ...
        with pytest.raises(ParseError, match="^conflicting true labels for patient 'q'$"):
            Dataset.from_columns(["a", "b", "c", "a"], ["p", "q", "q", "r"], [0, 0, 1, 1], probs)
        # ... and in one row the duplicate is reported
        with pytest.raises(ParseError, match="^duplicate image_id 'b'$"):
            Dataset.from_columns(["a", "b", "b", "d"], ["p", "q", "q", "r"], [0, 0, 1, 1], probs)


READER_HEADER = "reader_id,group,arm,image_id,pred_label"


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
        assert READER_CELLS[int(readers.cell[0])] == ("trainee", "A")
        assert readers.pred[2] == ClassLabel.EEGJA
        assert reader_columns(readers) == {
            "reader_ids": ("r1", "r1", "r2"),
            "image_ids": ("i1", "i2", "i1"),
            "cell": [0, 0, 5],
            "pred": [0, 2, 1],
            "elapsed_s": np.array([12.5, 8.0, 3.25]).tobytes(),
        }

    def test_group_case_insensitive_arm_normalized(self):
        text = READER_HEADER + "\nr1,Expert,b,i1,control\n"
        readers = parse_readers(text)
        assert READER_CELLS[int(readers.cell[0])] == ("expert", "B")
        # no elapsed_s column: a float64 NaN time on every call
        assert readers.elapsed_s.dtype == np.float64 and np.isnan(readers.elapsed_s).all()

    def test_cell_is_the_group_then_arm_position(self):
        calls = [f"r{k},{group.upper()},{arm.lower()},i1,0" for k, (group, arm) in enumerate(
            (g, a) for g in READER_GROUPS for a in READER_ARMS)]
        readers = parse_readers(READER_HEADER + "\n" + "\n".join(calls[::-1]) + "\n")
        assert readers.cell.dtype == np.int64
        assert [READER_CELLS[c] for c in readers.cell.tolist()] == list(READER_CELLS)[::-1]

    def test_blank_elapsed_is_nan_and_arrays_read_only(self):
        readers = parse_readers(READER_HEADER + ",elapsed_s\nr1,trainee,A,i1,0,\nr1,trainee,A,i2,1,4\n")
        assert np.isnan(readers.elapsed_s[0]) and readers.elapsed_s[1] == 4.0
        for arr in (readers.cell, readers.pred, readers.elapsed_s):
            with pytest.raises(ValueError):
                arr[0] = 1

    @pytest.mark.parametrize("row, column", [(",trainee,A,i2,control", "reader_id"),
                                             ("r1,trainee,A, ,control", "image_id")])
    def test_empty_id_rejected_with_row(self, row, column):
        # checked right after the field count, before the unknown group
        text = READER_HEADER + "\nr1,trainee,A,i1,control\n" + row.replace("trainee", "novice") + "\n"
        with pytest.raises(ParseError, match=rf"^row 3: empty {column}$"):
            parse_readers(text)

    def test_over_long_field_rejected_with_row(self):
        text = READER_HEADER + "\nr1,trainee,A,i1,control\nr1,trainee,A," + "i" * 200_000 + ",control\n"
        with pytest.raises(ParseError, match=r"^row 3: field larger than field limit \(131072\)$"):
            parse_readers(text)

    def test_bad_row_before_over_long_field_wins(self):
        text = READER_HEADER + "\nr1,novice,A,i1,control\nr1,trainee,A," + "i" * 200_000 + ",control\n"
        with pytest.raises(ParseError, match=r"^row 2: unknown reader group 'novice'$"):
            parse_readers(text)

    def test_first_bad_row_and_first_fault_in_it(self):
        text = READER_HEADER + ",elapsed_s\n\nr1,trainee,A,i1,control,1\nr1,trainee,b,i1,nope,x\nr2,x,A,i2,0,1\n"
        with pytest.raises(ParseError, match=r"^row 4: duplicate \(reader_id, image_id\) pair \('r1', 'i1'\)$"):
            parse_readers(text)
        with pytest.raises(ParseError, match=r"^row 4: non-numeric elapsed_s 'x'$"):
            parse_readers(text.replace("b,i1,nope", "b,i3,nope"))
        with pytest.raises(ParseError, match=r"^row 3: elapsed_s must be in \[0, 86400\] seconds, got 'inf'$"):
            parse_readers(text.replace("control,1", "zzz,inf"))

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

    def test_leading_byte_order_mark_stripped(self):
        text = "reader_id,group,arm,image_id,pred_label\nr1,expert,B,i1,control\n"
        assert reader_columns(parse_readers("\ufeff" + text)) == reader_columns(parse_readers(text))

    def test_row_numbers_count_line_ends_in_quoted_fields(self):
        text = f'{READER_HEADER}\n"r\n1",expert,A,i1,A-EGJA\nr2,nope,A,i1,A-EGJA\n'
        with pytest.raises(ParseError, match=r"^row 4: unknown reader group 'nope'$"):
            parse_readers(text)

    def test_negative_elapsed_rejected(self):
        text = "reader_id,group,arm,image_id,pred_label,elapsed_s\nr1,trainee,A,i1,control,-1\n"
        with pytest.raises(ParseError):
            parse_readers(text)


ROWS = ("i1,p1,A-EGJA,0.8,0.15,0.05", "i2,p1,A-EGJA,0.2,0.5,0.3", "i3,p2,control,0.1,0.2,0.7")
READER_ROWS = ("r1,trainee,A,i1,A-EGJA", "r1,trainee,A,i2,control", "r2,expert,B,i1,E-EGJA")
LONG = "x" * 100_000  # under csv.field_size_limit(); two of them make a line over it
OVER = "x" * 200_000  # over csv.field_size_limit()


def _text(header: str, rows, newline: str = "\n", end: str = "\n", bom: bool = False) -> str:
    return "\ufeff" * bom + newline.join((header, *rows)) + end


# (id, parser, text, the tokenizer of each block of two data lines as given)
TOKENIZER_CASES = [
    ("quoted-field", parse_predictions, _text(HEADER, ROWS), "plain plain"),
    ("crlf", parse_predictions, _text(HEADER, ROWS, newline="\r\n", end="\r\n"), "csv csv"),
    ("cr", parse_predictions, _text(HEADER, ROWS, newline="\r", end="\r"), "csv csv"),
    ("blank-line", parse_predictions, _text(HEADER, (ROWS[0], "", ROWS[1], " \t", ROWS[2])), "csv csv plain"),
    ("trailing-blank-line", parse_predictions, _text(HEADER, ROWS, end="\n\n"), "plain csv"),
    ("header-only", parse_predictions, _text(HEADER, ()), ""),
    ("no-final-newline", parse_predictions, _text(HEADER, ROWS, end=""), "plain plain"),
    ("ragged-short", parse_predictions, _text(HEADER, (ROWS[0], "i2,p1,A-EGJA,0.2,0.5", ROWS[2])), "csv"),
    ("ragged-long", parse_predictions, _text(HEADER, (ROWS[0], ROWS[1] + ",x", ROWS[2])), "csv"),
    ("ragged-late", parse_predictions, _text(HEADER, (*ROWS, "i4,p3,control,0,0", "i5,p3,control,0,0,1")), "plain csv"),
    ("blank-line-late", parse_predictions, _text(HEADER, (*ROWS[:2], "", ROWS[2], "i4,p3,control,0,0,1")), "plain csv plain"),
    ("over-long-header", parse_predictions, _text(OVER + "," + HEADER, ROWS), ""),
    ("over-long-field", parse_predictions, _text(HEADER, (ROWS[0], OVER + ROWS[1], ROWS[2])), "csv"),
    ("long-line-short-fields", parse_predictions, _text(HEADER, (ROWS[0], f"{LONG},{LONG}p,A-EGJA,1,0,0")), "csv"),
    ("nul", parse_predictions, _text(HEADER, (ROWS[0], "i\x002" + ROWS[1][2:], ROWS[2])), "plain plain"),
    ("x85", parse_predictions, _text(HEADER, ("i\x851,\x85p1\x85" + ROWS[0][5:], ROWS[1])), "plain"),
    ("u2028", parse_predictions, _text(HEADER, ("i\u20281,p1\u2028" + ROWS[0][5:], ROWS[1])), "plain"),
    ("x0b", parse_predictions, _text(HEADER, ("i1\x0b,\x0bp1" + ROWS[0][5:], ROWS[1])), "plain"),
    ("padded", parse_predictions,
     _text(" image_id ,patient_id\t," + HEADER[20:], (" i1 ,\tp1\t, A-EGJA ,0.8 ,\t0.15, 0.05 ", ROWS[1])), "plain"),
    ("bom", parse_predictions, _text(HEADER, ROWS, bom=True), "plain plain"),
    ("bad-label", parse_predictions, _text(HEADER, (ROWS[0], "i2,p1,nope,0.2,0.5,0.3")), "plain"),
    ("bad-label-late", parse_predictions, _text(HEADER, (*ROWS, "i4,p3,nope,0,0,1", ROWS[0])), "plain plain"),
    ("duplicate-image-across-blocks", parse_predictions, _text(HEADER, (*ROWS, "i1,p3,control,0,0,1")), "plain plain"),
    ("label-conflict-across-blocks", parse_predictions, _text(HEADER, (*ROWS, "i4,p1,control,0,0,1")), "plain plain"),
    ("readers-padded-bom", parse_readers, _text(READER_HEADER, (" r1 , Trainee ,a, i1 ,\t0",) + READER_ROWS[1:], bom=True), "plain plain"),
    ("readers-ragged", parse_readers, _text(READER_HEADER, (READER_ROWS[0], READER_ROWS[1] + ",", READER_ROWS[2])), "csv"),
    ("readers-crlf", parse_readers, _text(READER_HEADER, READER_ROWS, newline="\r\n", end="\r\n"), "csv csv"),
    ("readers-duplicate-across-blocks", parse_readers, _text(READER_HEADER, (*READER_ROWS, READER_ROWS[1])), "plain plain"),
]


def _quote_first_field(text: str) -> str:
    """The same file with the header's first field quoted, so that only
    ``csv`` can read it."""
    body = text.removeprefix("\ufeff")
    end = body.index(",")
    return text[: len(text) - len(body)] + '"' + body[:end] + '"' + body[end:]


class TestTokenizerPaths:
    """The plain split and ``csv`` read every file alike: the same columns
    or the same error."""

    @staticmethod
    def _outcome(parse, text):
        try:
            ds = parse(text)
        except ParseError as exc:
            return "error", str(exc)
        return "ok", dataset_columns(ds) if isinstance(ds, Dataset) else reader_columns(ds)

    @pytest.mark.parametrize(("parse", "text", "paths"), [c[1:] for c in TOKENIZER_CASES],
                             ids=[c[0] for c in TOKENIZER_CASES])
    def test_both_tokenizers_agree(self, parse, text, paths, tokenizer_paths, monkeypatch):
        monkeypatch.setattr(gjeval.data, "_BLOCK_ROWS", 2)
        got = self._outcome(parse, text)
        assert tokenizer_paths == paths.split()
        tokenizer_paths.clear()
        assert self._outcome(parse, _quote_first_field(text)) == got
        assert tokenizer_paths == ["csv"] * len(paths.split())

    def test_plain_fields_are_stripped_like_csv_fields(self):
        ds = parse_predictions(_text(HEADER, ("i\x851,\x85p1\x85" + ROWS[0][5:], ROWS[1])))
        assert ds.image_ids == ("i\x851", "i2") and ds.patient_ids == ("p1",)
        ds = parse_predictions(_text(" image_id ,patient_id\t," + HEADER[20:], (" i1 ,\tp1\t, A-EGJA ,0.8 ,\t0.15, 0.05 ",)))
        assert ds.image_ids == ("i1",) and ds.probs.tolist() == [[0.8, 0.15, 0.05]]

    @pytest.mark.parametrize("pad", [" ", "\t", "\x1f", "\xa0", "\u3000"], ids=["space", "tab", "x1f", "xa0", "u3000"])
    def test_padded_fields_are_stripped_on_both_paths(self, pad, tokenizer_paths, monkeypatch):
        """A block whose fields carry no character ``str.strip`` removes is
        taken as split; a padded field in the next block is still stripped,
        on the plain split and by ``csv`` alike."""
        monkeypatch.setattr(gjeval.data, "_BLOCK_ROWS", 2)
        header = HEADER + ",center,modality,sex,age"
        plain = ("i1,p1,A-EGJA,0.8,0.15,0.05,C1,WLI,F,44", "i2,p1,A-EGJA,0.2,0.5,0.3,C1,NBI,F,44")
        padded = f"{pad}i3,p2{pad},{pad}control{pad},0.1,{pad}0.2,0.7{pad},{pad}C2{pad},{pad}WLI,F{pad},{pad}51{pad}"
        text = _text(header, (*plain, padded))
        fields = [f.strip() for f in padded.split(",")]
        ds = parse_predictions(text)
        assert tokenizer_paths == ["plain", "plain"]
        assert ds.image_ids == ("i1", "i2", fields[0]) and ds.patient_ids == ("p1", fields[1])
        assert ds.sex == ("F", fields[8]) and ds.age.tolist() == [44, 51]
        assert ds.truth.tolist() == [0, 0, 2] and ds.probs[2].tolist() == [0.1, 0.2, 0.7]
        tokenizer_paths.clear()
        assert dataset_columns(parse_predictions(_quote_first_field(text))) == dataset_columns(ds)
        assert tokenizer_paths == ["csv", "csv"]

    def test_field_size_limit_read_at_call_time(self, tokenizer_paths):
        text = _text(HEADER, ROWS)
        old = csv.field_size_limit(20)
        try:
            with pytest.raises(ParseError, match=r"^row 2: field larger than field limit \(20\)$"):
                parse_predictions(_text(HEADER, ("i1,p1,A-EGJA,0.8,0.15,0.050000000000000000000",)))
            assert tokenizer_paths == ["csv"]
            cols = dataset_columns(parse_predictions(text))
        finally:
            csv.field_size_limit(old)
        assert tokenizer_paths == ["csv", "csv"]
        assert cols == dataset_columns(parse_predictions(text))
        assert tokenizer_paths == ["csv", "csv", "plain"]


class TestBlocks:
    """Rows are read and checked in blocks, two data lines each here: a fault
    in a later block, or between rows of two blocks, keeps its row number and
    message, and a block the plain split cannot read goes to ``csv`` alone."""

    @pytest.fixture(autouse=True)
    def two_row_blocks(self, monkeypatch):
        monkeypatch.setattr(gjeval.data, "_BLOCK_ROWS", 2)

    def test_bad_row_in_a_later_block(self, tokenizer_paths):
        with pytest.raises(ParseError, match=r"^row 5: unknown class label 'nope'$"):
            parse_predictions(csv_text(*ROWS, "i4,p3,nope,0,0,1", "i5,p3,control,0,0,1"))
        assert tokenizer_paths == ["plain", "plain"]  # the block after it is never read
        with pytest.raises(ParseError, match=r"^row 5: unknown reader group 'nope'$"):
            parse_readers(_text(READER_HEADER, (*READER_ROWS, "r3,nope,A,i1,0")))

    def test_ragged_row_sends_only_its_block_to_csv(self, tokenizer_paths):
        with pytest.raises(ParseError, match=r"^row 5: expected 6 fields, got 5$"):
            parse_predictions(csv_text(*ROWS, "i4,p3,control,0,0", "i5,p3,control,0,0,1"))
        assert tokenizer_paths == ["plain", "csv"]

    def test_blank_line_sends_only_its_block_to_csv(self, tokenizer_paths):
        rows = (*ROWS, "i4,p3,control,0,0,1", "i5,p3,control,0,0,1")
        ds = parse_predictions(csv_text(rows[0], rows[1], "", *rows[2:]))
        assert tokenizer_paths == ["plain", "csv", "plain"]
        assert dataset_columns(ds) == dataset_columns(parse_predictions(csv_text(*rows)))
        # a later row's line counts the blank line
        with pytest.raises(ParseError, match=r"^row 7: unknown class label 'nope'$"):
            parse_predictions(csv_text(rows[0], rows[1], "", *rows[2:4], "i5,p3,nope,0,0,1"))

    def test_csv_block_lines_are_a_range_when_they_follow_one_another(self, monkeypatch):
        """Rows read by ``csv`` carry the line each starts on, held as a
        range unless a blank line or a quoted line end breaks the run."""
        monkeypatch.setattr(gjeval.data, "_BLOCK_ROWS", 3)

        def block_lines(text):
            reader = csv.reader(io.StringIO(text, newline=""))
            header = next(reader)
            return [lines for lines, _ in gjeval.data._data_rows(reader, header, 1)]

        assert block_lines(csv_text(*ROWS)) == [range(2, 5)]
        assert block_lines(csv_text(ROWS[0], "", *ROWS[1:])) == [[2, 4], range(5, 6)]
        assert block_lines(csv_text('"i\n1"' + ROWS[0][2:], *ROWS[1:])) == [[2, 4, 5]]

    def test_cross_row_faults_across_blocks(self):
        with pytest.raises(ParseError, match=r"^row 5: duplicate image_id 'i1'$"):
            parse_predictions(csv_text(*ROWS, "i1,p3,control,0,0,1"))
        with pytest.raises(ParseError, match=r"^row 5: conflicting true labels for patient 'p1'$"):
            parse_predictions(csv_text(*ROWS, "i4,p1,control,0,0,1"))
        with pytest.raises(ParseError, match=r"^row 5: duplicate \(reader_id, image_id\) pair \('r1', 'i2'\)$"):
            parse_readers(_text(READER_HEADER, (*READER_ROWS, READER_ROWS[1])))
        # a fault within a row of a later block wins over a later cross-row fault
        with pytest.raises(ParseError, match=r"^row 5: unknown class label 'nope'$"):
            parse_predictions(csv_text(*ROWS, "i4,p3,nope,0,0,1", "i1,p3,control,0,0,1"))

    def test_equal_values_share_one_string(self):
        ds = parse_predictions(synth_generate(SynthSpec((5, 3, 6), images_max=4, seed=3)))
        assert len(set(map(id, ds.sex))) == len(set(ds.sex)) < len(ds.sex)
        lines = [f"r{k % 3},trainee,A,{image},0" for k, image in enumerate(ds.image_ids[:9])]
        readers = parse_readers(_text(READER_HEADER, lines + [f"r4,expert,B,{image},1" for image in ds.image_ids[:5]]))
        for col in (readers.reader_ids, readers.image_ids):
            assert len(set(map(id, col))) == len(set(col)) < len(col)


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
        assert list(s) == ["patients", "images", "patients_by_class", "images_by_class",
                           "patients_by_sex", "age_mean", "age_sd", "age_bands"]
        assert s["patients"] == 3 and s["images"] == 4
        assert s["patients_by_class"] == {"A-EGJA": 1, "E-EGJA": 0, "control": 2}
        assert s["images_by_class"] == {"A-EGJA": 2, "E-EGJA": 0, "control": 2}
        assert s["patients_by_sex"] == {"F": 1, "M": 2}
        assert s["age_mean"] == pytest.approx((59 + 65 + 80) / 3)
        assert s["age_sd"] == pytest.approx(np.std([59, 65, 80], ddof=1))
        assert s["age_bands"] == {"lt60": 1, "60to69": 1, "ge70": 1}

    def test_sex_counts_in_order_of_patients(self):
        """Sexes are counted at each patient's first row, in patient order;
        a value on a later row of a patient neither counts nor sets the
        order."""
        rows = ("i1,p1,control,0,0,1,F", "i2,p1,control,0,0,1,X", "i3,p2,control,0,0,1,M", "i4,p3,control,0,0,1,X")
        s = summarize(parse_predictions(_text(HEADER + ",sex", rows)))
        assert list(s["patients_by_sex"].items()) == [("F", 1), ("M", 1), ("X", 1)]

    def test_age_blank_on_the_first_row_is_no_age(self):
        ds = parse_predictions(_text(HEADER + ",age", ("i1,p1,control,0,0,1,", "i2,p1,control,0,0,1,50")))
        s = summarize(ds)
        assert np.isnan(ds.age).tolist() == [True]
        assert s["age_mean"] is None and s["age_sd"] is None and s["age_bands"] == {"lt60": 0, "60to69": 0, "ge70": 0}

    def test_age_band_edges(self):
        assert age_band(59.9) == "lt60"
        assert age_band(60) == "60to69"
        assert age_band(69.999) == "60to69"
        assert age_band(70) == "ge70"


class TestKFold:
    def _dataset(self, n_patients=20, images_each=3):
        patients = np.repeat(np.arange(n_patients), images_each)
        return Dataset.from_columns(
            [f"i{p}_{j}" for p in range(n_patients) for j in range(images_each)],
            [f"p{p:03d}" for p in patients],
            patients % 3,
            np.eye(3)[patients % 3],
        )

    def test_assignment_partition(self):
        ds = self._dataset()
        fold = kfold_split(ds, k=5, unit="patient", seed=3)
        assert fold.dtype == np.int64 and fold.shape == (len(ds.patient_ids),)
        assert set(fold.tolist()) == set(range(5))
        sizes = np.bincount(fold)
        assert sizes.sum() == 20
        assert sizes.max() - sizes.min() <= 1

    def test_deterministic_per_seed(self):
        ds = self._dataset()
        a = kfold_split(ds, k=4, unit="patient", seed=9)
        b = kfold_split(ds, k=4, unit="patient", seed=9)
        c = kfold_split(ds, k=4, unit="patient", seed=10)
        assert a.tolist() == b.tolist()
        assert a.tolist() != c.tolist()

    def test_patient_integrity(self):
        ds = self._dataset()
        fold = kfold_split(ds, k=3, unit="patient", seed=0)
        per_fold = fold_datasets(ds, fold, "patient")
        assert [f["fold"] for f in per_fold] == [0, 1, 2]
        # the folds partition the images, and no patient is in two folds
        assert sum(f["images"] for f in per_fold) == len(ds)
        assert [f["patients"] for f in per_fold] == [f["units"] for f in per_fold] == np.bincount(fold).tolist()
        row_folds: dict[str, set[int]] = {}
        for patient, f in zip(row_patient_ids(ds).tolist(), fold[ds.patient_codes].tolist()):
            row_folds.setdefault(patient, set()).add(f)
        assert sorted(row_folds) == sorted(ds.patient_ids)
        assert all(len(folds) == 1 for folds in row_folds.values())

    def test_image_unit(self):
        ds = self._dataset(n_patients=4, images_each=5)
        fold = kfold_split(ds, k=4, unit="image", seed=1)
        assert fold.shape == (len(ds.image_ids),)
        per_fold = fold_datasets(ds, fold, "image")
        assert [f["images"] for f in per_fold] == [f["units"] for f in per_fold] == np.bincount(fold).tolist()

    def test_k_bounds(self):
        ds = self._dataset(n_patients=3, images_each=1)
        with pytest.raises(ValueError):
            kfold_split(ds, k=1, unit="patient", seed=0)
        with pytest.raises(ValueError):
            kfold_split(ds, k=4, unit="patient", seed=0)
        with pytest.raises(ValueError, match="^unit must be 'patient' or 'image', got 'center'$"):
            kfold_split(ds, k=2, unit="center", seed=0)

    def test_pinned_folds(self):
        """The folds the split gave when it returned a dict from unit id to
        fold, for one pinned seed: every unit keeps its fold."""
        ds = parse_predictions(synth_generate(SynthSpec(patients_per_class=(4, 3, 5), images_max=6, seed=8)))
        assert kfold_split(ds, k=4, unit="patient", seed=31).tolist() == [0, 2, 2, 3, 0, 2, 1, 0, 3, 1, 1, 3]
        assert kfold_split(ds, k=5, unit="image", seed=31).tolist() == [
            3, 3, 1, 1, 2, 0, 3, 1, 4, 3, 1, 2, 2, 0, 4, 1, 3, 0, 3, 4, 1, 4, 0, 0, 0,
            0, 4, 0, 2, 2, 3, 4, 1, 1, 0, 4, 1, 2, 2, 3, 0, 4, 2, 3, 2, 2, 4, 1, 3,
        ]


def fold_oracle(ds: Dataset, fold: np.ndarray, unit: str) -> list[dict]:
    """Each fold's composition by a loop over rows: the set of its patient
    ids, its image count and its images per class."""
    names = ["A-EGJA", "E-EGJA", "control"]
    unit_fold = dict(zip(ds.patient_ids if unit == "patient" else ds.image_ids, fold.tolist()))
    entries = [{"fold": f, "units": 0, "patients": set(), "images": 0, "images_by_class": dict.fromkeys(names, 0)}
               for f in range(max(unit_fold.values()) + 1)]
    for f in unit_fold.values():
        entries[f]["units"] += 1
    for image, patient, truth in zip(ds.image_ids, row_patient_ids(ds).tolist(), ds.truth.tolist()):
        entry = entries[unit_fold[patient if unit == "patient" else image]]
        entry["patients"].add(patient)
        entry["images"] += 1
        entry["images_by_class"][names[truth]] += 1
    for entry in entries:
        entry["patients"] = len(entry["patients"])
    return entries


class TestFoldDatasets:
    @pytest.mark.parametrize("unit", FOLD_UNITS)
    def test_matches_row_loop(self, small_dataset, unit):
        synth = parse_predictions(synth_generate(SynthSpec(patients_per_class=(5, 3, 6), images_max=6, seed=4)))
        for ds in (small_dataset, synth):
            n_units = len(ds.patient_ids if unit == "patient" else ds.image_ids)
            for seed in range(4):
                for k in range(2, n_units + 1):
                    fold = kfold_split(ds, k=k, unit=unit, seed=seed)
                    got = fold_datasets(ds, fold, unit)
                    assert got == fold_oracle(ds, fold, unit), (unit, seed, k)
                    for entry in got:  # the report's key order and plain ints
                        assert list(entry) == ["fold", "units", "patients", "images", "images_by_class"]
                        assert list(entry["images_by_class"]) == ["A-EGJA", "E-EGJA", "control"]
                        counts = [*list(entry.values())[:4], *entry["images_by_class"].values()]
                        assert {type(v) for v in counts} == {int}


class TestSynth:
    def test_reproducible_and_sized(self):
        spec = SynthSpec(patients_per_class=(5, 4, 6), images_min=2, images_max=4, seed=11)
        text = synth_generate(spec)
        assert synth_generate(spec) == text
        a = parse_predictions(text)
        assert len(a.patient_ids) == 15
        counts = a.patient_counts()
        assert counts.min() >= 2 and counts.max() <= 4
        assert np.bincount(a.truth[a.patient_first_row]).tolist() == [5, 4, 6]

    def test_probability_rows_valid(self):
        ds = parse_predictions(synth_generate(SynthSpec(patients_per_class=(3, 3, 3), seed=2)), strict=True)
        assert ds.renormalized == 0
        assert np.allclose(ds.probs.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        assert (ds.probs >= 0).all()

    def test_infinite_separation_is_one_hot(self):
        ds = parse_predictions(synth_generate(SynthSpec(patients_per_class=(2, 2, 2), separation=float("inf"), seed=5)))
        assert (ds.probs[np.arange(len(ds)), ds.truth] == 1.0).all()
        assert ds.pred.tolist() == ds.truth.tolist()

    def test_nan_separation_rejected(self):
        # NaN once passed a "< 0" check and wrote NaN probabilities
        with pytest.raises(ValueError, match="separation must be >= 0, got nan"):
            synth_generate(SynthSpec(patients_per_class=(1, 1, 1), separation=float("nan")))

    def test_separation_improves_accuracy(self):
        accs = []
        for sep in (0.5, 3.0):
            ds = parse_predictions(synth_generate(SynthSpec(patients_per_class=(30, 30, 30), separation=sep, seed=7)))
            acc = np.mean(ds.pred == ds.truth)
            accs.append(acc)
        assert accs[1] > accs[0]

    def test_demographics_present_by_default(self):
        rows = list(csv.reader(io.StringIO(synth_generate(SynthSpec(patients_per_class=(2, 2, 2), seed=3)))))
        assert rows[0] == [*HEADER.split(","), "center", "modality", "sex", "age"]
        for center, modality, sex, age in (row[6:] for row in rows[1:]):
            assert center in ("C1", "C2", "C3") and modality in ("WLI", "NBI")
            assert sex in ("male", "female") and 40 <= float(age) <= 85 and age == repr(float(age))


class TestCsvText:
    """``data.csv_text``, the writer of every text table, against ``csv``."""

    @staticmethod
    def read_back(text: str) -> list[list[str]]:
        return list(csv.reader(io.StringIO(text, newline="")))

    @staticmethod
    def csv_writer(rows) -> str:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()

    def test_lone_cr_is_quoted(self):
        rows = [["a\rb", "c"]]
        text = gjeval.data.csv_text(rows)
        assert text == '"a\rb",c\n'
        assert self.read_back(text) == rows
        # csv.writer leaves it bare, and csv.reader splits the row in two
        assert self.read_back(self.csv_writer(rows)) == [["a"], ["b", "c"]]

    def test_quotes_are_doubled(self):
        rows = [['say "hi"', "x"], ['"', "a,b"], ["line\nbreak", "crlf\r\nend"]]
        text = gjeval.data.csv_text(rows)
        assert text.splitlines()[0] == '"say ""hi""",x'
        assert text == self.csv_writer(rows)
        assert self.read_back(text) == rows

    def test_empty_field_stays_unquoted(self):
        rows = [["", "b", ""], ["a", "", "c"]]
        text = gjeval.data.csv_text(rows)
        assert text == ",b,\na,,c\n" == self.csv_writer(rows)
        assert self.read_back(text) == rows

    def test_lone_empty_field_is_quoted(self):
        # an empty line would be read back as no row at all
        rows = [["h"], [""], ["x"], ("",)]
        text = gjeval.data.csv_text(rows)
        assert text == 'h\n""\nx\n""\n' == self.csv_writer(rows)
        assert self.read_back(text) == [list(row) for row in rows]
