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

from .data import CLASS_ORDER, READER_CELLS, Dataset, Readers
from .metrics import MetricReport, class_stats, compute_report, confusion_matrix
from .stats import TestResult, bowker_test, kappa_test

__all__ = [
    "PooledReaderPairs",
    "JoinedPredictions",
    "patient_mean_aggregate",
    "inverse_count_weights",
    "evaluate",
    "join_predictions",
    "reader_rows",
    "pool_readers",
    "reader_group_report",
    "model_vs_reader_tests",
    "group_vs_group_kappa",
    "per_reader_points",
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


def _rows_of(ds: Dataset, image_ids: Sequence[str]) -> np.ndarray:
    """The row in ``ds`` of each of ``image_ids``, -1 where it has none."""
    rows = dict(zip(ds.image_ids, range(len(ds))))
    return np.fromiter(map(rows.get, image_ids, repeat(-1)), np.int64, len(image_ids))


@dataclass(frozen=True)
class JoinedPredictions:
    """Two models' predictions joined on image_id, in first-dataset order."""

    truths: np.ndarray
    preds_a: np.ndarray
    preds_b: np.ndarray
    probs_a: np.ndarray
    probs_b: np.ndarray


def join_predictions(ds_a: Dataset, ds_b: Dataset) -> JoinedPredictions:
    """Inner-join two prediction datasets on image_id.

    Truths must agree on every joined image; an empty join is an error.
    """
    rows_b = _rows_of(ds_b, ds_a.image_ids)
    rows_a = np.flatnonzero(rows_b >= 0)
    rows_b = rows_b[rows_a]
    truths = ds_a.truth[rows_a]
    mismatch = np.flatnonzero(truths != ds_b.truth[rows_b])
    if mismatch.size:
        raise ValueError(f"true label mismatch for image {ds_a.image_ids[rows_a[mismatch[0]]]!r}")
    if not rows_a.size:
        raise ValueError("no common image_ids between the two prediction sets")
    return JoinedPredictions(
        truths=truths,
        preds_a=ds_a.pred[rows_a],
        preds_b=ds_b.pred[rows_b],
        probs_a=ds_a.probs[rows_a],
        probs_b=ds_b.probs[rows_b],
    )


@dataclass(frozen=True)
class PooledReaderPairs:
    """All observations of one (group, arm) cell, joined to the model's data.

    One row per reader-image observation, in file order: the model's
    prediction is replicated once per reader observation of that image, so
    reader and model see identical observation counts in pooled comparisons.
    ``rows`` holds each observation's row in the model's dataset, so equal
    rows mean the same image. ``n_readers`` counts the cell's distinct
    readers; ``time_cost_s`` is the mean ``elapsed_s`` of its calls, None
    when none of them has a time.
    """

    group: str
    arm: str
    n_readers: int
    rows: np.ndarray
    truths: np.ndarray
    reader_preds: np.ndarray
    model_preds: np.ndarray
    time_cost_s: float | None


def reader_rows(readers: Readers, model: Dataset) -> np.ndarray:
    """Each reader call's row in ``model``, -1 where the model lacks the image."""
    return _rows_of(model, readers.image_ids)


def pool_readers(readers: Readers, model: Dataset, cell: int, rows: np.ndarray) -> PooledReaderPairs:
    """Pool every reader observation of one cell against the model; ``cell``
    is the cell's position in ``READER_CELLS``.

    A code out of range or a cell without calls is an error. So is a call on
    an image the model lacks (the model dataset defines the image universe),
    and a call without a time in a cell that has times. The first such call
    in file order is reported; on one call, the unknown image. ``rows`` is
    ``reader_rows(readers, model)``, looked up once for every cell.
    """
    if not 0 <= cell < len(READER_CELLS):
        raise ValueError(f"reader cell code must be in [0, {len(READER_CELLS)}), got {cell}")
    group, arm = READER_CELLS[cell]
    calls = np.flatnonzero(readers.cell == cell)
    if not calls.size:
        raise ValueError(f"no reader records for group={group!r} arm={arm!r}")
    rows = rows[calls]
    elapsed = readers.elapsed_s[calls]
    untimed = np.isnan(elapsed)
    timed = not untimed.all()
    unknown = rows < 0
    bad = np.flatnonzero(unknown | untimed if timed else unknown)
    if bad.size:
        i = int(bad[0])
        image_id = readers.image_ids[int(calls[i])]
        if unknown[i]:
            raise ValueError(f"reader record references unknown image {image_id!r}")
        reader_id = readers.reader_ids[int(calls[i])]
        raise ValueError(f"missing elapsed_s for reader {reader_id!r} image {image_id!r}")
    return PooledReaderPairs(
        group=group,
        arm=arm,
        n_readers=len(set(map(readers.reader_ids.__getitem__, calls.tolist()))),
        rows=rows,
        truths=model.truth[rows],
        reader_preds=readers.pred[calls],
        model_preds=model.pred[rows],
        time_cost_s=float(elapsed.mean()) if timed else None,
    )


def reader_group_report(pool: PooledReaderPairs) -> MetricReport:
    """Metric bundle for a pooled reader cell (no probabilities, so no curves)."""
    return compute_report(
        pool.truths,
        pool.reader_preds,
        probs=None,
        level=f"readers:{pool.group}:{pool.arm}",
        time_cost_s=pool.time_cost_s,
    )


def model_vs_reader_tests(pool: PooledReaderPairs) -> list[TestResult]:
    """Agreement (kappa) and symmetry (Bowker) between model and pooled readers."""
    return [
        kappa_test(pool.model_preds, pool.reader_preds),
        bowker_test(pool.model_preds, pool.reader_preds),
    ]


def group_vs_group_kappa(pool_x: PooledReaderPairs, pool_y: PooledReaderPairs) -> TestResult:
    """Kappa between two reader cells over their common images.

    Observations are paired by the cross product of readers within each
    image: every reader call in one cell is matched with every call on the
    same image in the other cell. This pools inter-reader variability
    symmetrically without singling out any reader correspondence.
    """
    order = np.argsort(pool_x.rows, kind="stable")
    rows_x = pool_x.rows[order]
    start = np.searchsorted(rows_x, pool_y.rows, "left")
    counts = np.searchsorted(rows_x, pool_y.rows, "right") - start
    n_pairs = int(counts.sum())
    if not n_pairs:
        raise ValueError(
            f"no common images between cells {pool_x.group}/{pool_x.arm} and {pool_y.group}/{pool_y.arm}"
        )
    # each call of pool_y in turn, with the pool_x calls on its image in file order
    ends = np.cumsum(counts)
    picks = order[np.arange(n_pairs) + np.repeat(start - (ends - counts), counts)]
    res = kappa_test(pool_x.reader_preds[picks], np.repeat(pool_y.reader_preds, counts))
    res.detail["n_pairs"] = n_pairs
    return res


def per_reader_points(readers: Readers, model: Dataset, rows: np.ndarray) -> list[dict]:
    """Per-reader, per-class sensitivity/specificity/PPV rows for scatter plots.

    Readers come in cell order (trainee, competent, expert; arm A before B),
    then by reader_id. ``rows`` is ``reader_rows(readers, model)``.
    """
    names = sorted(set(readers.reader_ids))
    rank = dict(zip(names, range(len(names))))
    key = readers.cell * len(names) + np.fromiter(
        map(rank.__getitem__, readers.reader_ids), np.int64, len(readers)
    )
    order = np.argsort(key, kind="stable")
    rows = rows[order]
    unknown = np.flatnonzero(rows < 0)
    if unknown.size:
        raise ValueError(
            f"reader record references unknown image {readers.image_ids[int(order[unknown[0]])]!r}"
        )
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    truths, preds = model.truth[rows], readers.pred[order]
    out = []
    for start, end, k in zip(starts.tolist(), [*starts[1:].tolist(), len(key)], key[starts].tolist()):
        cell, reader = divmod(k, len(names))
        group, arm = READER_CELLS[cell]
        cm = confusion_matrix(truths[start:end], preds[start:end])
        for cls in CLASS_ORDER:
            st = class_stats(cm, cls)
            out.append(
                {
                    "reader_id": names[reader],
                    "group": group,
                    "arm": arm,
                    "class": cls.display,
                    "sensitivity": st.sensitivity.value,
                    "specificity": st.specificity.value,
                    "ppv": st.ppv.value,
                }
            )
    return out
