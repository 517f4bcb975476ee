"""Shared fixtures and independent oracles used across the test suite.

The oracles here are deliberately naive (quadratic pair counting, explicit
step sums) so they share no code path with the implementations under test.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os

import numpy as np
import pytest

import gjeval.cli
import gjeval.data
from gjeval import CLASS_ORDER, Dataset, HeadConfig, HeadParams, ParseError, Readers
from gjeval.data import PRED_BASE_COLUMNS, csv_text
from gjeval.fusion import N_CLASSES

# The class label tokens the input format accepts, matched case-insensitively
# after stripping: display names, slugs and indices.
LABEL_CODES = {
    "a-egja": 0, "e-egja": 1, "control": 2,
    "aegja": 0, "eegja": 1,
    "0": 0, "1": 1, "2": 2,
}


def oracle_label(token: str, row: int | None = None) -> int:
    """A label token's class index; an unknown token is the parsers' error."""
    try:
        return LABEL_CODES[token.strip().lower()]
    except KeyError:
        raise ParseError(f"unknown class label {token!r}", row) from None


def numbered_records(reader):
    """Each record of a ``csv`` reader and the file line it starts on (the
    line after the previous record ends: a quoted field may hold a line
    end). A record ``csv`` rejects is a ParseError at that line."""
    while True:
        line = reader.line_num + 1
        try:
            raw = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(str(exc), line) from None
        yield line, raw


def brute_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Exhaustive Mann-Whitney AUC: every (pos, neg) pair, ties half credit."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def midranks(values) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a non-empty 1-D sequence")
    order = np.argsort(v, kind="stable")
    sv = v[order]
    n = v.size
    starts = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1])))
    ends = np.append(starts[1:], n)
    avg = (starts + 1 + ends) / 2.0  # mean of integer ranks start+1 .. end
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(avg, ends - starts)
    return ranks


def brute_weighted_auc(scores, labels, weights) -> float:
    """Pair-counting AUC with per-sample weights (pair weight = product)."""
    pos = [(s, w) for s, l, w in zip(scores, labels, weights) if l == 1]
    neg = [(s, w) for s, l, w in zip(scores, labels, weights) if l == 0]
    num = 0.0
    den = 0.0
    for sp, wp in pos:
        for sn, wn in neg:
            pw = wp * wn
            den += pw
            if sp > sn:
                num += pw
            elif sp == sn:
                num += 0.5 * pw
    return num / den


def brute_average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Non-interpolated AP by walking thresholds high to low, incremental sums."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    n_pos = y.sum()
    ap = 0.0
    prev_recall = 0.0
    i = 0
    tp = fp = 0.0
    while i < len(s):
        j = i
        while j < len(s) and s[j] == s[i]:
            tp += y[j]
            fp += 1 - y[j]
            j += 1
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += precision * (recall - prev_recall)
        prev_recall = recall
        i = j
    return ap


def assert_same_path(full: list[str], kept: list[str]) -> None:
    """Check that the polyline ``kept`` draws the path of ``full``. Both are
    lists of ``x,y`` point texts with two decimals, ``full`` holding every
    point. The first and last texts are kept; ``kept`` is a subsequence of
    ``full``; and each point left out repeats its predecessor's text or lies
    on the segment between the kept points around it, counted in hundredths,
    never further back along that segment than the points before it."""
    assert kept[:1] == full[:1] and kept[-1:] == full[-1:], "first or last point dropped"

    def grid(token: str) -> tuple[int, int]:
        x, y = token.split(",")
        return int(x.replace(".", "")), int(y.replace(".", ""))

    at, j = [], 0  # the index in ``full`` of each kept text
    for token in kept:
        while j < len(full) and full[j] != token:
            j += 1
        assert j < len(full), f"kept point {token} is not in the full polyline, or out of order"
        at.append(j)
        j += 1
    assert not at or set(full[at[-1]:]) == {kept[-1]}, "a point after the last kept one moves"
    for a, b in zip(at, at[1:]):
        (ax, ay), (bx, by) = grid(full[a]), grid(full[b])
        reach = 0
        for i in range(a + 1, b):
            if full[i] == full[i - 1]:
                continue
            px, py = grid(full[i])
            on_line = (px - ax) * (by - ay) == (py - ay) * (bx - ax)
            inside = min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)
            assert on_line and inside, f"dropped point {full[i]} is off the segment {full[a]} -> {full[b]}"
            along = (px - ax) * (bx - ax) + (py - ay) * (by - ay)
            assert along >= reach, f"dropped point {full[i]} goes back along {full[a]} -> {full[b]}"
            reach = along


def params_from_json(text: str) -> HeadParams:
    """Load the head parameters ``params_to_json`` writes, after checking its
    format tag."""
    doc = json.loads(text)
    if doc.get("format") != "gjeval-head-v1":
        raise ValueError(f"unsupported head format {doc.get('format')!r}")
    cfg = doc["config"]
    if cfg.pop("n_classes") != N_CLASSES:
        raise ValueError(f"the head has {N_CLASSES} classes")
    for grid in ("grid_dino", "grid_res"):
        cfg[grid] = tuple(cfg[grid])
    params = {
        name: np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        for name, entry in doc["params"].items()
    }
    return HeadParams(config=HeadConfig(**cfg), **params)


def row_patient_ids(ds: Dataset) -> np.ndarray:
    """Each row's patient id, as an object array."""
    return np.array(ds.patient_ids, dtype=object)[ds.patient_codes]


def make_dataset(truths, probs, patient_ids=None) -> Dataset:
    """Dataset from parallel truth/probability rows; one patient per row by default."""
    n = len(truths)
    return Dataset.from_columns(
        [f"img{i:05d}" for i in range(n)],
        patient_ids if patient_ids is not None else [f"p{i:04d}" for i in range(n)],
        truths,
        probs,
    )


def predictions_csv(ds: Dataset) -> str:
    """A Dataset as a predictions CSV that parses back to its columns: the
    base columns, then ``sex`` and ``age`` on every row, its patient's
    (blank where it has none); floats as their shortest repr."""
    names = [c.display for c in CLASS_ORDER]
    ages = ["" if math.isnan(age) else repr(age) for age in ds.age.tolist()]
    codes = ds.patient_codes.tolist()
    rows = zip(
        ds.image_ids,
        row_patient_ids(ds).tolist(),
        [names[t] for t in ds.truth.tolist()],
        *(map(repr, ds.probs[:, j].tolist()) for j in range(3)),
        [ds.sex[c] or "" for c in codes],
        [ages[c] for c in codes],
    )
    return csv_text([(*PRED_BASE_COLUMNS, "sex", "age"), *rows])


def dataset_columns(ds: Dataset) -> dict:
    """Every column of a Dataset in a form ``==`` compares exactly (floats by
    their bytes, so -0.0, NaN and the last bit all count)."""
    columns = {
        "image_ids": ds.image_ids,
        "patient_ids": ds.patient_ids,
        "patient_codes": ds.patient_codes.tolist(),
        "patient_first_row": ds.patient_first_row.tolist(),
        "truth": ds.truth.tolist(),
        "probs": ds.probs.tobytes(),
        "pred": ds.pred.tolist(),
        "sex": ds.sex,
        "age": ds.age.tobytes(),
        "renormalized": ds.renormalized,
    }
    assert set(columns) == {field.name for field in dataclasses.fields(ds)}, "a Dataset field is left out"
    return columns


def reader_columns(readers: Readers) -> dict:
    """Every column of a Readers table in a form ``==`` compares exactly
    (times by their bytes, so NaN and the last bit count)."""
    columns = {
        "reader_ids": readers.reader_ids,
        "image_ids": readers.image_ids,
        "cell": readers.cell.tolist(),
        "pred": readers.pred.tolist(),
        "elapsed_s": readers.elapsed_s.tobytes(),
    }
    assert set(columns) == {field.name for field in dataclasses.fields(readers)}, "a Readers field is left out"
    return columns


@pytest.fixture
def tokenizer_paths(monkeypatch):
    """The tokenizer of each block of data rows the parsers read, in order:
    "plain" for a block split on newlines and commas, "csv" for one read by
    ``csv``. Clear it to start counting afresh."""
    log: list[str] = []
    split_columns, data_rows = gjeval.data._split_columns, gjeval.data._data_rows

    def plain(*args):
        log.append("plain")
        return split_columns(*args)

    def by_csv(*args):
        for block in data_rows(*args):
            log.append("csv")
            yield block

    monkeypatch.setattr(gjeval.data, "_split_columns", plain)
    monkeypatch.setattr(gjeval.data, "_data_rows", by_csv)
    return log


def _counted_forks(monkeypatch) -> list[int]:
    """Claim two usable CPUs, and record the pid of each child ``os.fork`` makes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pids: list[int] = []
    fork = os.fork

    def counted() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def forked_writes(monkeypatch) -> list[int]:
    """Force the forked curve writer: every ``evaluate`` report has its micro
    curve set written by a child process, whatever its size and however many
    CPUs the host has. The list holds the pid of each child forked."""
    monkeypatch.setattr(gjeval.cli, "FORK_MIN_POINTS", 0)
    return _counted_forks(monkeypatch)


@pytest.fixture
def forked_parse(monkeypatch) -> list[int]:
    """Force the forked parsers: ``compare``'s and ``readers``' second file
    is read and parsed by a child process where the two sizes let the fork pay
    (``cli._parse_pair``), and every other plain predictions text with
    a line past its middle has its second half read by one, in blocks of
    three data lines, whatever its size and however many CPUs the host has.
    The list holds the pid of each child forked."""
    monkeypatch.setattr(gjeval.data, "_BLOCK_ROWS", 3)
    monkeypatch.setattr(gjeval.data, "FORK_MIN_CHARS", 0)
    return _counted_forks(monkeypatch)


@pytest.fixture
def rng():
    return np.random.default_rng(20240)


@pytest.fixture
def small_dataset():
    """Nine images over five patients covering all three classes."""
    truths = [0, 0, 0, 1, 1, 1, 2, 2, 2]
    probs = [
        (0.8, 0.15, 0.05),
        (0.7, 0.2, 0.1),
        (0.3, 0.5, 0.2),   # misclassified A -> E
        (0.1, 0.8, 0.1),
        (0.25, 0.6, 0.15),
        (0.4, 0.35, 0.25),  # misclassified E -> A
        (0.05, 0.1, 0.85),
        (0.2, 0.2, 0.6),
        (0.1, 0.3, 0.6),
    ]
    pids = ["pa", "pa", "pa", "pb", "pb", "pc", "pd", "pd", "pe"]
    return make_dataset(truths, probs, pids)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail any test after which this process has a child, still running or
    not yet reaped: a forked curve writer or parser must be waited for on
    every path."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"pid {pid} ended with status {status} and was not reaped"
    pytest.fail(f"the test left a child process behind: {state}")
