"""The SVG curves are drawn at the file's resolution of 0.01 pixel: every
polyline keeps the points that change the drawn line, each with the text it
has when every point is drawn.

``full_tokens`` is the formatter that draws every point; ``assert_same_path``
(conftest) checks a polyline against it.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_same_path
from gjeval import evaluate, parse_predictions
from gjeval.metrics import CurveSeries
from gjeval.report import _hundredths, curves_svg
from test_golden import FIXTURES, make_inputs


def full_tokens(series: CurveSeries) -> list[str]:
    """Every point of ``series`` as a polyline ``x,y`` text."""
    size, margin = 420, 50
    plot = size - 2 * margin
    return [
        f"{margin + x * plot:.2f},{size - margin - y * plot:.2f}"
        for x, y in zip(series.x.tolist(), series.y.tolist())
    ]


def polylines(svg: str) -> list[list[str]]:
    return [points.split(" ") for points in re.findall(r'<polyline points="([^"]*)"', svg)]


def curve(x, y, kind: str = "ROC") -> CurveSeries:
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return CurveSeries(kind, x, y, np.zeros(x.size), 0.5)


def drawn(series: CurveSeries) -> list[str]:
    """The polyline texts ``curves_svg`` draws for ``series``; checked to
    draw the path of every point."""
    (kept,) = polylines(curves_svg("T", [("c", series)]))
    assert_same_path(full_tokens(series), kept)
    return kept


def text_hundredths(v: np.ndarray) -> list[int]:
    return [int(f"{c:.2f}".replace(".", "")) for c in v.tolist()]


def plot_images(x: np.ndarray) -> np.ndarray:
    """``x`` through the x and the y pixel expressions of ``curves_svg``."""
    return np.concatenate([50 + x * 320, 420 - 50 - x * 320])


# every odd multiple of 1/8 in [10, 1000): 100 v is then an exact half
HALVES = np.arange(81, 8000, 2) / 8


def k_over_n(ns) -> np.ndarray:
    return np.concatenate([np.arange(n + 1) / n for n in ns])


GRID_NS = [
    *range(1, 501),
    *(2 ** k for k in range(9, 13)),
    5000,
    *np.random.default_rng(16).integers(501, 5001, 40).tolist(),
]


@pytest.mark.parametrize(
    "values",
    [
        HALVES,
        np.nextafter(HALVES, np.inf),
        np.nextafter(HALVES, -np.inf),
        plot_images(k_over_n(GRID_NS)),
        plot_images(np.array([0.0, 1.0, 1.0000000000000002, -1e-17])),
    ],
    ids=["halves", "above_halves", "below_halves", "k_over_n", "edges"],
)
def test_hundredths_equal_the_text(values):
    assert _hundredths(values).tolist() == text_hundredths(values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 9.99, 1000.0, -50.0])
def test_unsafe_coordinate_draws_every_point(bad):
    assert _hundredths(np.array([50.0, bad, 60.0])) is None
    y = np.linspace(0, 1, 7)
    x = np.zeros(7)  # a straight vertical run, all of it drawn
    y[3] = (370 - bad) / 320  # maps back to ``bad`` (NaN, infinity or off the page)
    series = curve(x, y)
    (kept,) = polylines(curves_svg("T", [("c", series)]))
    assert kept == full_tokens(series)
    assert len(kept) == 7


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("svg")
    make_inputs(path)
    return path


@pytest.mark.parametrize("level", ["image", "patient", "weighted"])
@pytest.mark.parametrize("fixture", FIXTURES)
def test_golden_fixture_curves_draw_the_same_path(golden_inputs, fixture, level):
    ds = parse_predictions((golden_inputs / f"{fixture}.csv").read_text(encoding="utf-8"))
    report = evaluate(ds, level)
    for kind, index in (("ROC", 0), ("Precision-Recall", 1)):
        series = [pair[index] for pair in report.curves.values()]
        kept = polylines(curves_svg(kind, [(name, s) for name, s in zip(report.curves, series)]))
        assert len(kept) == len(series)
        for s, points in zip(series, kept):
            assert_same_path(full_tokens(s), points)


def staircase(gen: np.random.Generator, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """A monotone ROC-like curve from the origin to (1, 1): each step adds
    up to three negatives and up to three positives, both at times."""
    fp = np.concatenate([[0], np.cumsum(gen.integers(0, 4, steps))])
    tp = np.concatenate([[0], np.cumsum(gen.integers(0, 4, steps))])
    return fp / max(fp[-1], 1), tp / max(tp[-1], 1)


@pytest.mark.parametrize("steps", [3, 50, 2_000, 20_000])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_staircases_draw_the_same_path(seed, steps):
    x, y = staircase(np.random.default_rng(seed), steps)
    drawn(curve(x, y))


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_pr_turning_points_stay(seed):
    """Along a vertical, precision rises to a peak and falls again; along a
    horizontal, the line runs right and comes back. Each turn is kept."""
    gen = np.random.default_rng(seed)
    rise = np.sort(gen.uniform(0.5, 0.9, 6))
    fall = np.sort(gen.uniform(0.1, 0.45, 6))[::-1]
    y = np.concatenate([rise, fall, [0.05, 0.05, 0.05]])
    x = np.concatenate([np.full(12, 0.5), [0.6, 0.9, 0.7]])
    series = curve(x, y, "PR")
    kept = drawn(series)
    full = full_tokens(series)
    assert full[5] in kept  # the peak of the vertical
    assert full[13] in kept  # the far end of the horizontal


@pytest.mark.parametrize(
    "x, y, points",
    [([0.3], [0.7], 1), ([0.3, 0.3], [0.7, 0.7], 1), ([0.0, 1.0], [0.0, 1.0], 2), ([0.5, 0.5], [1.0, 0.0], 2)],
    ids=["one", "two_equal", "two", "two_vertical"],
)
def test_short_curves(x, y, points):
    assert len(drawn(curve(x, y))) == points


def test_points_kept_are_bounded_whatever_the_size():
    """Each kept point of a monotone curve moves x + y on by at least 0.01
    pixel, and x + y spans 2 x 320 pixels, so at most 64,001 points stay."""
    x, y = staircase(np.random.default_rng(7), 200_000)
    kept = drawn(curve(x, y))
    assert len(kept) <= 64_001
