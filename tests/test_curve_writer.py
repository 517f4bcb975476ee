"""Differential test of the curve CSV writer.

``report.curve_csvs`` formats each curve set's shared columns once: PR
recall and thresholds reuse the ROC TPR and threshold texts, and each block's
values are formatted by one ``repr_bytes`` call. It hands out every file as chunks of
row blocks, two rows a block here (one to five in one test), so every curve
spans several blocks. The oracle, ``oracle_to_csv``, formats each curve on
its own, row by row, in the old file order. The joined chunks must give the
same text for every curve file at every analysis level.
"""

from __future__ import annotations

import dataclasses
from itertools import zip_longest

import numpy as np
import pytest

import gjeval.report
from conftest import predictions_csv, row_patient_ids
from gjeval import Dataset, SynthSpec, evaluate, parse_predictions, synth_generate
from gjeval.cli import main
from gjeval.data import CLASS_ORDER
from gjeval.metrics import CurveSeries, repr_bytes
from gjeval.report import curve_csvs


@pytest.fixture(autouse=True)
def two_row_blocks(monkeypatch):
    monkeypatch.setattr(gjeval.report, "_CURVE_BLOCK_ROWS", 2)


def joined(files) -> dict[str, str]:
    """The text of each chunked file, read in lockstep as the CLI writes them."""
    texts = {name: [] for name in files}
    for chunks in zip_longest(*files.values()):
        for parts, chunk in zip(texts.values(), chunks):
            if chunk is not None:
                parts.append(chunk)
    return {name: "".join(parts) for name, parts in texts.items()}


def oracle_to_csv(series: CurveSeries) -> str:
    lines = [f"# kind={series.kind} area={series.area!r}", "x,y,threshold"]
    for xi, yi, ti in zip(series.x.tolist(), series.y.tolist(), series.thresholds.tolist()):
        lines.append(f"{xi!r},{yi!r},{ti!r}")
    return "\n".join(lines) + "\n"


def oracle_curve_files(report) -> dict[str, str]:
    """Every curve file, each curve formatted on its own, in emission order:
    micro, then the classes in ``CLASS_ORDER``."""
    out = {}
    for name in ["micro"] + [c.slug for c in CLASS_ORDER]:
        if name in report.curves:
            roc, pr = report.curves[name]
            out[f"roc_{name}.csv"] = oracle_to_csv(roc)
            out[f"pr_{name}.csv"] = oracle_to_csv(pr)
    return out


# every probability triple on a grid of quarters; their sums are exactly 1
QUARTERS = np.array([(a, b, 4 - a - b) for a in range(5) for b in range(5 - a)]) / 4


def tied_dataset(seed: int) -> Dataset:
    """A seeded synth dataset moved to the nearest triple of quarters (heavy
    ties), with some zeros negated so ``-0.0`` sits next to ``0.0``, the last
    zero of each column included."""
    spec = SynthSpec(patients_per_class=(9, 4, 11), images_max=6, separation=1.0, seed=seed)
    ds = parse_predictions(synth_generate(spec))
    probs = QUARTERS[np.abs(ds.probs[:, None, :] - QUARTERS).sum(axis=2).argmin(axis=1)]
    gen = np.random.default_rng(seed)
    for j in range(3):
        zeros = np.flatnonzero(probs[:, j] == 0.0)
        flip = zeros[gen.random(zeros.size) < 0.5]
        probs[np.r_[flip, zeros[-1:]], j] = -0.0
    return Dataset.from_columns(ds.image_ids, row_patient_ids(ds), ds.truth, probs)


@pytest.mark.parametrize("level", ["image", "patient", "weighted"])
@pytest.mark.parametrize("seed", range(3))
def test_writer_matches_row_by_row_to_csv(level, seed):
    report = evaluate(tied_dataset(seed), level=level)
    got = joined(curve_csvs(report))
    want = oracle_curve_files(report)
    assert list(got) == list(want)
    assert got == want
    assert min(len(text.splitlines()) for text in got.values()) > 2 + 2 * 2  # three blocks or more
    # one file read to its end before the other gives the same text
    files = curve_csvs(report)
    assert {name: "".join(files[name]) for name in reversed(files)} == want
    if level != "patient":  # a patient mean of -0.0 images is +0.0
        assert any(",-0.0\n" in text for text in got.values())


@pytest.mark.parametrize("block_rows", [1, 3, 4, 5])
def test_any_block_size_gives_the_same_text(block_rows, monkeypatch):
    report = evaluate(tied_dataset(4), level="patient")
    monkeypatch.setattr(gjeval.report, "_CURVE_BLOCK_ROWS", block_rows)
    assert joined(curve_csvs(report)) == oracle_curve_files(report)


def test_cli_curve_files_match_row_by_row_to_csv(tmp_path):
    ds = tied_dataset(7)
    pred = tmp_path / "pred.csv"
    pred.write_text(predictions_csv(ds))
    for level in ("image", "weighted"):
        out = tmp_path / level
        assert main(["evaluate", "--pred", str(pred), "--level", level, "--out", str(out)]) == 0
        want = oracle_curve_files(evaluate(ds, level=level))
        assert {name: (out / name).read_text() for name in want} == want


def texts(rows: np.ndarray) -> list[str]:
    """The text of each ``repr_bytes`` row, without its NUL padding."""
    return [row.tobytes().rstrip(b"\0").decode("ascii") for row in rows]


def test_repr_bytes_equals_repr_of_each_value(rng):
    pool = np.array([0.0, -0.0, np.inf, -np.inf, 0.5, 1 / 3, 5e-324, 1.0, np.nan])
    for _ in range(300):
        k = int(rng.integers(0, 12))
        values = np.repeat(rng.choice(pool, k), rng.integers(1, 5, k))
        assert texts(repr_bytes(values)) == list(map(repr, values.tolist()))
    runs = np.array([0.0, -0.0, -0.0, 0.0, 0.0, np.inf, np.inf, 0.25, -0.0])
    assert texts(repr_bytes(runs)) == ["0.0", "-0.0", "-0.0", "0.0", "0.0", "inf", "inf", "0.25", "-0.0"]
    assert repr_bytes(np.empty(0)).shape[0] == 0


def _with_micro_pr(report, **changes):
    roc, pr = report.curves["micro"]
    curves = {**report.curves, "micro": (roc, dataclasses.replace(pr, **changes))}
    return dataclasses.replace(report, curves=curves)


def test_writer_rejects_pr_columns_not_from_the_roc():
    report = evaluate(tied_dataset(1), level="image")
    micro_pr = report.curves["micro"][1]
    x = micro_pr.x.copy()
    x[len(x) // 2] = np.nextafter(x[len(x) // 2], 2.0)
    with pytest.raises(ValueError, match="micro PR recall and thresholds are not the ROC"):
        curve_csvs(_with_micro_pr(report, x=x))
    with pytest.raises(ValueError, match="micro PR recall"):
        curve_csvs(_with_micro_pr(report, x=micro_pr.x[:-1]))
    # equal as numbers but not as bits: 0.0 in place of a -0.0 threshold
    thresholds = micro_pr.thresholds.copy()
    negative_zero = np.flatnonzero(np.signbit(thresholds) & (thresholds == 0.0))
    assert negative_zero.size
    thresholds[negative_zero] = 0.0
    with pytest.raises(ValueError, match="micro PR recall"):
        curve_csvs(_with_micro_pr(report, thresholds=thresholds))


def test_curve_arrays_are_read_only_float64():
    report = evaluate(tied_dataset(2), level="weighted")
    assert list(report.curves) == ["micro", "aegja", "eegja", "control"]
    series = [s for pair in report.curves.values() for s in pair]
    assert len(series) == 8
    for s in series:
        for arr in (s.x, s.y, s.thresholds):
            assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5


def test_lockstep_read_holds_one_block(monkeypatch):
    """Read in lockstep, a curve set's ROC and PR chunks are formatted one
    block at a time, each block once, as the ROC file reaches it."""
    formatted = []
    to_csv = CurveSeries.to_csv

    def counted(self, columns, head=True):
        formatted.append(self.kind)
        return to_csv(self, columns, head)

    monkeypatch.setattr(CurveSeries, "to_csv", counted)
    report = evaluate(tied_dataset(3), level="image")
    files = curve_csvs(report)
    roc, pr = files["roc_micro.csv"], files["pr_micro.csv"]
    blocks = -(-report.curves["micro"][0].x.size // 2)
    for k in range(blocks):
        next(roc)
        assert formatted[-2:] == ["ROC", "PR"] and len(formatted) == 2 * (k + 1)
        next(pr)
        assert len(formatted) == 2 * (k + 1)
    assert next(roc, None) is None and next(pr, None) is None
