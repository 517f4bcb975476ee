"""Memory regression tests: the parser and the curve writer hold a block of
rows at a time, not the whole file, the curve formatter works on part of a
block at a time, and the fusion demo's training needs no more memory than
drawing its features.

The parser and writer tests trace the allocations of one step with
``tracemalloc`` on a synthetic predictions file of about 11.6k images, and
again on one with four times as many. What the step needs beyond what it returns may grow by at most
half, where a step that holds the whole file would need about four times as
much. ``tracemalloc`` sees one process only, so both steps are traced on
their serial paths: the parser reads every block in this process, where a
large text's second half is otherwise read by a forked child
(``data.FORK_MIN_CHARS``), and the curve writer formats all four curve sets
here, where a large report's micro set is otherwise written by a forked
child (``cli.FORK_MIN_POINTS``).
"""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest

import gjeval.data
import gjeval.fusion
from gjeval import SynthSpec, TrainSpec, evaluate, parse_predictions, synth_generate, train_toy
from gjeval.cli import _write_outputs
from gjeval.metrics import repr_bytes
from gjeval.report import _CURVE_BLOCK_ROWS, curve_csvs

GROWTH = 4
BOUND = 1.5


@pytest.fixture(scope="module")
def texts() -> dict[int, str]:
    """Predictions CSV text by scale: 1 and GROWTH times (440, 180, 500) patients."""
    return {
        scale: synth_generate(SynthSpec((440 * scale, 180 * scale, 500 * scale), seed=scale))
        for scale in (1, GROWTH)
    }


def traced(fn, *args):
    """``fn(*args)``, the peak of the memory it allocated, and how much of
    that it still holds when it returns."""
    tracemalloc.start()
    try:
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


def quote_image_ids(text: str) -> str:
    """The same file with every line's first field quoted, so that ``csv``
    reads all of it."""
    return re.sub(r"(?m)^([^,\n]*),", r'"\1",', text)


def test_parse_transient_memory_does_not_grow_with_rows(texts, monkeypatch):
    """On plain text, and on text that ``csv`` reads throughout."""
    monkeypatch.setattr(gjeval.data, "FORK_MIN_CHARS", math.inf)  # every block parsed here
    for form in (str, quote_image_ids):
        rows, transient = {}, {}
        for scale, text in texts.items():
            ds, peak, kept = traced(parse_predictions, form(text))
            rows[scale], transient[scale] = len(ds), peak - kept
        assert rows[GROWTH] > 3.5 * rows[1]
        assert transient[GROWTH] <= BOUND * transient[1], (form.__name__, transient)


def test_curve_writer_peak_does_not_grow_with_points(texts, tmp_path):
    points, peaks = {}, {}
    for scale, text in texts.items():
        report = evaluate(parse_predictions(text), level="image")
        out = tmp_path / str(scale)
        # no files named to fork: every set is formatted here, where tracemalloc sees it
        _, peaks[scale], _ = traced(lambda: _write_outputs(out, curve_csvs(report), forked=()))
        points[scale] = report.curves["micro"][0].x.size
    assert points[GROWTH] > 3.5 * points[1]
    assert peaks[GROWTH] <= BOUND * peaks[1], peaks


def test_formatter_peak_is_a_small_multiple_of_one_block_of_text(texts):
    """``repr_bytes`` on one block as the writer calls it (the ROC x, y and
    thresholds and the PR precision of 8192 rows) works on sub-chunks of
    its values: its peak stays under three times the block's text, where
    sub-chunks of 4096 values need 3.4 times it and the whole block at
    once 17 times."""
    roc, pr = evaluate(parse_predictions(texts[1]), level="image").curves["micro"]
    a, b = _CURVE_BLOCK_ROWS, 2 * _CURVE_BLOCK_ROWS
    assert roc.x.size > b
    values = np.concatenate((roc.x[a:b], roc.y[a:b], roc.thresholds[a:b], pr.y[a - 1 : b - 1]))
    text = sum(map(len, map(repr, values.tolist())))
    rows, peak, _ = traced(repr_bytes, values)
    assert rows.shape[0] == values.size
    assert peak <= 3 * text, (peak, text)


def test_training_peak_is_the_peak_of_drawing_the_features(monkeypatch):
    """``train_toy`` at the default sizes (2000 samples, batch 128) pools the
    feature grids once and drops them: no step after drawing the features
    (pooling, training, the per-epoch accuracies, the hold-out report)
    allocates past the peak of the draw itself."""
    draw = gjeval.fusion.make_synthetic_features
    peaks = []

    def traced_draw(*args, **kwargs):
        result = draw(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return result

    monkeypatch.setattr(gjeval.fusion, "make_synthetic_features", traced_draw)
    result, peak, _ = traced(train_toy, TrainSpec(epochs=2))
    assert len(result.log) == 2 and len(peaks) == 1
    assert peak == peaks[0], (peak, peaks[0])
