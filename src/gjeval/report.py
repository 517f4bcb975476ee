"""Report assembly and file emission: canonical JSON documents, curve and
confusion-matrix CSVs, and a dependency-free SVG renderer for curves.

Reports are byte-deterministic: dictionaries are built in a fixed key order,
floats serialize via their shortest repr, and no timestamps are embedded
unless explicitly requested. Each report carries a hash of its resolved
configuration and content digests of its input files so any output can be
traced to exactly one (config, inputs) pair.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from pathlib import Path
from typing import Iterator

import numpy as np

from .data import CLASS_ORDER, csv_text
from .metrics import CurveSeries, MetricReport, repr_bytes

__all__ = [
    "REPORT_SCHEMA_ID",
    "sha256_bytes",
    "config_hash",
    "build_report_doc",
    "dump_json",
    "cm_csv",
    "curves_svg",
    "training_log_csv",
    "curve_csvs",
]

REPORT_SCHEMA_ID = "gjeval-report-v1"
_CURVE_BLOCK_ROWS = 8192  # curve points formatted at a time


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_hash(config: dict) -> str:
    """Digest of the resolved run configuration (order-insensitive)."""
    return sha256_bytes(json.dumps(config, sort_keys=True, separators=(",", ":")).encode())


def build_report_doc(
    kind: str,
    config: dict,
    inputs: dict[str, tuple[str | Path, str]],
    results: dict,
    stamp: str | None = None,
) -> dict:
    """Assemble the top-level report document in canonical key order.
    ``inputs`` maps each input's name to its path and the sha256 of the
    bytes that were read from it."""
    doc = {
        "schema": REPORT_SCHEMA_ID,
        "kind": kind,
        "config": config,
        "config_sha256": config_hash(config),
        "inputs": {
            name: {"path": str(path), "sha256": digest}
            for name, (path, digest) in inputs.items()
        },
    }
    if stamp is not None:
        doc["generated_at"] = stamp
    doc["results"] = results
    return doc


def dump_json(doc: dict) -> str:
    """Strict JSON: a NaN or infinity in ``doc`` raises ValueError."""
    return json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def cm_csv(report: MetricReport) -> str:
    rows = ([c.display, *map(repr, row)] for c, row in zip(CLASS_ORDER, report.cm.tolist()))
    return csv_text([["truth\\pred", *(c.display for c in CLASS_ORDER)], *rows])


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _curve_pair_csvs(name: str, roc: CurveSeries, pr: CurveSeries) -> tuple[Iterator[str], Iterator[str]]:
    """The ROC and PR CSVs of one curve set, as chunks of at most
    ``_CURVE_BLOCK_ROWS`` rows formatted as they are read. They share
    formatted columns: PR recall and thresholds are the ROC TPR and
    thresholds without the origin, so PR row i is formatted with ROC row
    i + 1. Both iterators draw on one pass over the blocks (see ``_unzip``).
    """
    if not (_same_bits(pr.x, roc.y[1:]) and _same_bits(pr.thresholds, roc.thresholds[1:])):
        raise ValueError(f"{name} PR recall and thresholds are not the ROC TPR and thresholds")

    def blocks() -> Iterator[tuple[str, str]]:
        for a in range(0, roc.x.size, _CURVE_BLOCK_ROWS):
            b = a + _CURVE_BLOCK_ROWS
            cut = int(a == 0)  # the PR file has no row for the ROC origin
            columns = (roc.x[a:b], roc.y[a:b], roc.thresholds[a:b], pr.y[a - 1 + cut : b - 1])
            # one call for the block: repr_bytes has a fixed cost per call
            fpr, tpr, thresholds, precision = np.split(
                repr_bytes(np.concatenate(columns)), np.cumsum([c.size for c in columns[:3]]))
            yield (
                roc.to_csv((fpr, tpr, thresholds), head=a == 0),
                pr.to_csv((tpr[cut:], precision, thresholds[cut:]), head=a == 0),
            )

    return _unzip(blocks())


def _unzip(pairs: Iterator[tuple[str, str]]) -> tuple[Iterator[str], Iterator[str]]:
    """Iterators over the first and over the second items of ``pairs``. Each
    draws the next pair when it has run out, and an item is dropped once
    read, so two readers in lockstep hold no item between reads."""
    queues: tuple[deque[str], deque[str]] = (deque(), deque())

    def pull() -> bool:
        pair = next(pairs, None)
        for queue, item in zip(queues, pair or ()):
            queue.append(item)
        return pair is not None

    def side(queue: deque[str]) -> Iterator[str]:
        while queue or pull():
            yield queue.popleft()

    return side(queues[0]), side(queues[1])


def curve_csvs(report: MetricReport) -> dict[str, Iterator[str]]:
    """CSV text of every curve by output file name, in the order of
    ``report.curves``, each as an iterator of chunks (see
    ``_curve_pair_csvs``). Every curve set is checked before this returns."""
    out: dict[str, Iterator[str]] = {}
    for name, (roc, pr) in report.curves.items():
        out[f"roc_{name}.csv"], out[f"pr_{name}.csv"] = _curve_pair_csvs(name, roc, pr)
    return out


_SVG_COLORS = ("#1f5fa8", "#c44f4f", "#4f9a58", "#8a6fb8")


def _hundredths(v: np.ndarray) -> np.ndarray | None:
    """``int(f"{c:.2f}".replace(".", ""))`` for every pixel coordinate ``c``
    of ``v``, as int64, or None when one is non-finite or outside [10, 1000).

    In that range ``floor(100 c + 0.5)`` is off from the exact product by
    far less than 1e-9, so it is the rounded text except where ``100 c``
    lies within 1e-9 of a half: ``.2f`` rounds the exact binary value, and
    an exact half to even, so there the text itself decides.
    """
    if not ((v >= 10.0) & (v < 1000.0)).all():
        return None
    s = v * 100.0
    h = np.floor(s + 0.5).astype(np.int64)
    for i in np.flatnonzero(np.abs(s - np.floor(s) - 0.5) < 1e-9).tolist():
        h[i] = int(f"{v[i]:.2f}".replace(".", ""))
    return h


def _drawn_points(hx: np.ndarray, hy: np.ndarray) -> np.ndarray:
    """Indices of the points, given in hundredths of a pixel, that change the
    drawn line: a point that repeats its predecessor goes, then each interior
    point where the line runs straight on (the segments in and out are
    parallel and point the same way). The first point is always kept, and
    the last is kept or repeated by the last kept point."""
    moved = np.ones(hx.size, dtype=bool)
    moved[1:] = (hx[1:] != hx[:-1]) | (hy[1:] != hy[:-1])
    idx = np.flatnonzero(moved)
    dx, dy = np.diff(hx[idx]), np.diff(hy[idx])
    turns = np.ones(idx.size, dtype=bool)
    turns[1:-1] = (dx[:-1] * dy[1:] != dy[:-1] * dx[1:]) | (dx[:-1] * dx[1:] + dy[:-1] * dy[1:] <= 0)
    return idx[turns]


def curves_svg(title: str, named_series: list[tuple[str, CurveSeries]]) -> str:
    """Minimal standalone SVG: unit-square axes plus one polyline per curve.

    Each polyline is drawn at the file's resolution of 0.01 pixel: points
    that do not change the drawn line (see ``_drawn_points``) are left out,
    and every point kept has the text it would have with all points drawn.
    Where a coordinate is non-finite or off the page, every point is drawn.
    """
    size, margin = 420, 50
    plot = size - 2 * margin

    def px(x: float) -> float:
        return margin + x * plot

    def py(y: float) -> float:
        return size - margin - y * plot

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>',
        f'<text x="{size / 2:.1f}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
        f'<rect x="{margin}" y="{margin}" width="{plot}" height="{plot}" '
        f'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{px(frac):.1f}" y="{size - margin + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{frac:g}</text>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{py(frac) + 4:.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{frac:g}</text>'
        )
    for i, (label, series) in enumerate(named_series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        xs, ys = margin + series.x * plot, size - margin - series.y * plot
        hx, hy = _hundredths(xs), _hundredths(ys)
        if hx is not None and hy is not None:
            kept = _drawn_points(hx, hy)
            xs, ys = xs[kept], ys[kept]
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs.tolist(), ys.tolist()))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{margin + 10}" y="{margin + 18 + 16 * i}" font-size="12" '
            f'font-family="sans-serif" fill="{color}">{label} (area={series.area:.4f})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def training_log_csv(log: tuple[dict, ...]) -> str:
    keys = ("epoch", "train_loss", "train_acc", "holdout_acc")
    return csv_text([keys, *([repr(entry[k]) for k in keys] for entry in log)])
