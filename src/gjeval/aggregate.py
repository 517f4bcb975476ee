"""Aggregation layers on top of image-level predictions: patient-level
roll-ups, inverse-count weighting, analysis-level evaluation and reader-study
pooling.

Analysis levels
---------------
image     one row per image, unit weights.
patient   per-patient probabilities are the arithmetic mean of that
          patient's image probabilities; the call is the severity-tie-broken
          argmax of the mean. n = number of patients.
weighted  image-level rows weighted by 1 / (images of the same patient),
          so every patient contributes total mass 1 and the effective n
          equals the patient count. Confidence intervals and curves all use
          the weighted counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .data import CLASS_ORDER, READER_GROUPS, Dataset, ReaderRecord
from .metrics import MetricReport, class_stats, compute_report, confusion_matrix
from .stats import PairedPredictions, TestResult, bowker_test, delong_test, kappa_test

__all__ = [
    "PooledReaderPairs",
    "JoinedPredictions",
    "patient_mean_aggregate",
    "inverse_count_weights",
    "evaluate",
    "join_predictions",
    "pool_readers",
    "reader_group_report",
    "model_vs_reader_tests",
    "group_vs_group_kappa",
]

LEVELS = ("image", "patient", "weighted")


def patient_mean_aggregate(ds: Dataset) -> np.ndarray:
    """(patients, 3) mean image probabilities, rows in ``ds.patient_ids`` order.

    Each patient's images are summed in row order, then divided by their count.
    """
    if len(ds) == 0:
        raise ValueError("cannot aggregate an empty dataset")
    n = len(ds.patient_ids)
    sums = [np.bincount(ds.patient_codes, weights=ds.probs[:, j], minlength=n) for j in range(3)]
    return np.stack(sums, axis=1) / ds.patient_counts()[:, None]


def inverse_count_weights(ds: Dataset) -> np.ndarray:
    """Per-row weights 1 / (images of that row's patient).

    Weights sum to the number of patients, so weighted analyses use the
    patient count as their effective sample size.
    """
    return 1.0 / ds.patient_counts()[ds.patient_codes]


def evaluate(ds: Dataset, level: str = "image") -> MetricReport:
    """Full metric bundle for a dataset at one analysis level."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    warnings = []
    if ds.renormalized:
        warnings.append(f"{ds.renormalized} record(s) had probabilities renormalized at parse time")
    if level == "patient":
        probs = patient_mean_aggregate(ds)
        return compute_report(
            ds.truth[ds.patient_first_row], probs.argmax(axis=1), probs,
            level="patient", extra_warnings=warnings,
        )
    weights = inverse_count_weights(ds) if level == "weighted" else None
    return compute_report(
        ds.truth, ds.pred, ds.probs, weights=weights, level=level, extra_warnings=warnings,
    )


def _rows_of(ds: Dataset) -> dict[str, int]:
    """Row of each image id."""
    return dict(zip(ds.image_ids, range(len(ds))))


@dataclass(frozen=True)
class JoinedPredictions:
    """Two models' predictions joined on image_id, in first-dataset order."""

    image_ids: tuple[str, ...]
    truths: np.ndarray
    preds_a: np.ndarray
    preds_b: np.ndarray
    probs_a: np.ndarray
    probs_b: np.ndarray

    def paired(self) -> PairedPredictions:
        return PairedPredictions(
            truths=tuple(int(v) for v in self.truths),
            preds_a=tuple(int(v) for v in self.preds_a),
            preds_b=tuple(int(v) for v in self.preds_b),
        )


def join_predictions(ds_a: Dataset, ds_b: Dataset) -> JoinedPredictions:
    """Inner-join two prediction datasets on image_id.

    Truths must agree on every joined image; an empty join is an error.
    """
    rows_b = np.fromiter(map(_rows_of(ds_b).get, ds_a.image_ids, repeat(-1)), np.int64, len(ds_a))
    rows_a = np.flatnonzero(rows_b >= 0)
    rows_b = rows_b[rows_a]
    truths = ds_a.truth[rows_a]
    mismatch = np.flatnonzero(truths != ds_b.truth[rows_b])
    if mismatch.size:
        raise ValueError(f"true label mismatch for image {ds_a.image_ids[rows_a[mismatch[0]]]!r}")
    if not rows_a.size:
        raise ValueError("no common image_ids between the two prediction sets")
    return JoinedPredictions(
        image_ids=tuple(map(ds_a.image_ids.__getitem__, rows_a.tolist())),
        truths=truths,
        preds_a=ds_a.pred[rows_a],
        preds_b=ds_b.pred[rows_b],
        probs_a=ds_a.probs[rows_a],
        probs_b=ds_b.probs[rows_b],
    )


@dataclass(frozen=True)
class PooledReaderPairs:
    """All observations of one (group, arm) cell, joined to the model's data.

    One row per reader-image observation: the model's prediction is
    replicated once per reader observation of that image, so reader and
    model see identical observation counts in pooled comparisons.
    """

    group: str
    arm: str
    reader_ids: tuple[str, ...]
    image_ids: tuple[str, ...]
    obs_reader: tuple[str, ...]
    truths: np.ndarray
    reader_preds: np.ndarray
    model_preds: np.ndarray
    elapsed_s: np.ndarray | None  # None when the study recorded no timings

    @property
    def mean_elapsed_s(self) -> float | None:
        if self.elapsed_s is None:
            return None
        return float(self.elapsed_s.mean())


def pool_readers(
    readers: Sequence[ReaderRecord], model: Dataset, group: str, arm: str
) -> PooledReaderPairs:
    """Pool every reader observation of one (group, arm) cell against the model.

    Reader records joining to no model image are an error (the model dataset
    defines the image universe).
    """
    model_rows = _rows_of(model)
    cell = [r for r in readers if r.group == group and r.arm == arm]
    if not cell:
        raise ValueError(f"no reader records for group={group!r} arm={arm!r}")
    rows, elapsed = [], []
    any_elapsed = any(r.elapsed_s is not None for r in cell)
    for r in cell:
        row = model_rows.get(r.image_id)
        if row is None:
            raise ValueError(f"reader record references unknown image {r.image_id!r}")
        rows.append(row)
        if any_elapsed:
            if r.elapsed_s is None:
                raise ValueError(f"missing elapsed_s for reader {r.reader_id!r} image {r.image_id!r}")
            elapsed.append(r.elapsed_s)
    return PooledReaderPairs(
        group=group,
        arm=arm,
        reader_ids=tuple(sorted({r.reader_id for r in cell})),
        image_ids=tuple(r.image_id for r in cell),
        obs_reader=tuple(r.reader_id for r in cell),
        truths=model.truth[rows],
        reader_preds=np.array([int(r.pred) for r in cell], dtype=np.int64),
        model_preds=model.pred[rows],
        elapsed_s=np.array(elapsed, dtype=np.float64) if any_elapsed else None,
    )


def reader_group_report(pool: PooledReaderPairs) -> MetricReport:
    """Metric bundle for a pooled reader cell (no probabilities, so no curves)."""
    return compute_report(
        pool.truths,
        pool.reader_preds,
        probs=None,
        level=f"readers:{pool.group}:{pool.arm}",
        time_cost_s=pool.mean_elapsed_s,
    )


def model_vs_reader_tests(pool: PooledReaderPairs) -> list[TestResult]:
    """Agreement (kappa) and symmetry (Bowker) between model and pooled readers."""
    pairs = PairedPredictions(
        truths=tuple(int(v) for v in pool.truths),
        preds_a=tuple(int(v) for v in pool.model_preds),
        preds_b=tuple(int(v) for v in pool.reader_preds),
    )
    return [kappa_test(pool.model_preds, pool.reader_preds), bowker_test(pairs)]


def group_vs_group_kappa(pool_x: PooledReaderPairs, pool_y: PooledReaderPairs) -> TestResult:
    """Kappa between two reader cells over their common images.

    Observations are paired by the cross product of readers within each
    image: every reader call in one cell is matched with every call on the
    same image in the other cell. This pools inter-reader variability
    symmetrically without singling out any reader correspondence.
    """
    by_img_x: dict[str, list[int]] = {}
    for img, pred in zip(pool_x.image_ids, pool_x.reader_preds):
        by_img_x.setdefault(img, []).append(int(pred))
    a, b = [], []
    for img, pred_y in zip(pool_y.image_ids, pool_y.reader_preds):
        for pred_x in by_img_x.get(img, ()):
            a.append(pred_x)
            b.append(int(pred_y))
    if not a:
        raise ValueError(
            f"no common images between cells {pool_x.group}/{pool_x.arm} and {pool_y.group}/{pool_y.arm}"
        )
    res = kappa_test(a, b)
    res.detail["n_pairs"] = len(a)
    return res


def per_reader_points(
    readers: Sequence[ReaderRecord], model: Dataset
) -> list[dict]:
    """Per-reader, per-class sensitivity/specificity/PPV rows for scatter plots."""
    model_rows = _rows_of(model)
    cells: dict[tuple[str, str, str], list[ReaderRecord]] = {}
    for r in readers:
        cells.setdefault((r.reader_id, r.group, r.arm), []).append(r)
    rows = []
    # presentation order: trainee, competent, expert; then arm, then reader
    cell_order = sorted(cells, key=lambda k: (READER_GROUPS.index(k[1]), k[2], k[0]))
    for reader_id, group, arm in cell_order:
        recs = cells[(reader_id, group, arm)]
        cell_rows = []
        for r in recs:
            row = model_rows.get(r.image_id)
            if row is None:
                raise ValueError(f"reader record references unknown image {r.image_id!r}")
            cell_rows.append(row)
        truths = model.truth[cell_rows]
        preds = [int(r.pred) for r in recs]
        cm = confusion_matrix(truths, preds)
        for cls in CLASS_ORDER:
            st = class_stats(cm, cls)
            rows.append(
                {
                    "reader_id": reader_id,
                    "group": group,
                    "arm": arm,
                    "class": cls.display,
                    "sensitivity": st.sensitivity.value,
                    "specificity": st.specificity.value,
                    "ppv": st.ppv.value,
                }
            )
    return rows
