"""Span tracing of the package from outside its source.

``Tracer.install`` replaces each traced function with a wrapper in the
namespace its callers read it from (``gjeval.cli.parse_predictions``,
``gjeval.aggregate.evaluate``, ``gjeval.metrics.CurveSeries.to_csv``, ...).
Each call records a span (name, start, end, parent span, op id) and bumps the
target's counters. ``Tracer.restore`` puts every original object back.
Spans stay in memory until the benchmark writes them out. A target that is
missing, or a counter that cannot count, is an error: the traced run fails
rather than report a layer that does no work.

A layer's self time is the time of its spans minus the part covered by their
child spans. The op's root span is ``cli.main``; its self time is the CLI's
own work (argument parsing, result assembly, unwrapped helpers).
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter


def _one(result, args):
    return 1


def _length(result, args):
    return len(result)


def _curve_points(result, args):
    return len(result.x)


def _files_written(result, args):
    return len(args[1])


def _bytes_written(result, args):
    outdir = args[0]
    return sum(os.stat(os.path.join(outdir, name)).st_size for name in args[1])


# (module, attribute, layer metric, ((counter, count function), ...)).
# An attribute "Class.method" is replaced on the class.
_STATS = (("stats.calls", _one),)
TARGETS = (
    ("gjeval.cli", "parse_predictions", "data.parse_predictions_s", (("data.rows_parsed", _length),)),
    ("gjeval.cli", "parse_readers", "data.parse_readers_s", (("data.reader_rows_parsed", _length),)),
    ("gjeval.cli", "summarize", "data.summarize_s", ()),
    ("gjeval.cli", "kfold_split", "data.kfold_s", ()),
    ("gjeval.cli", "fold_datasets", "data.kfold_s", ()),
    ("gjeval.cli", "delong_test", "stats.delong_s", _STATS),
    ("gjeval.cli", "kappa_test", "stats.kappa_bowker_s", _STATS),
    ("gjeval.cli", "bowker_test", "stats.kappa_bowker_s", _STATS),
    ("gjeval.cli", "_write_outputs", "cli.write_s",
     (("cli.files_written", _files_written), ("cli.bytes_written", _bytes_written))),
    ("gjeval.aggregate", "evaluate", "aggregate.evaluate_s", ()),
    ("gjeval.aggregate", "patient_mean_aggregate", "aggregate.patient_aggregate_s",
     (("aggregate.patients", _length),)),
    ("gjeval.aggregate", "join_predictions", "aggregate.join_s", ()),
    ("gjeval.aggregate", "pool_readers", "aggregate.readers_s", ()),
    ("gjeval.aggregate", "reader_group_report", "aggregate.readers_s", ()),
    ("gjeval.aggregate", "model_vs_reader_tests", "aggregate.readers_s", ()),
    ("gjeval.aggregate", "group_vs_group_kappa", "aggregate.readers_s", ()),
    ("gjeval.aggregate", "per_reader_points", "aggregate.readers_s", ()),
    ("gjeval.aggregate", "compute_report", "metrics.compute_report_s", ()),
    ("gjeval.aggregate", "kappa_test", "stats.kappa_bowker_s", _STATS),
    ("gjeval.aggregate", "bowker_test", "stats.kappa_bowker_s", _STATS),
    ("gjeval.metrics", "micro_curves", "metrics.curve_sweep_s", ()),
    ("gjeval.metrics", "roc_points", "metrics.curve_sweep_s",
     (("metrics.curve_sweeps", _one), ("metrics.curve_points", _curve_points))),
    ("gjeval.metrics", "pr_points", "metrics.curve_sweep_s",
     (("metrics.curve_sweeps", _one), ("metrics.curve_points", _curve_points))),
    ("gjeval.metrics", "CurveSeries.to_csv", "metrics.curve_csv_s", ()),
    ("gjeval.report", "build_report_doc", "report.build_report_doc_s", ()),
    ("gjeval.report", "dump_json", "report.dump_json_s", ()),
    ("gjeval.report", "curves_svg", "report.svg_s", ()),
    ("gjeval.fusion", "train_toy", "fusion.train_step_s", ()),
    ("gjeval.fusion", "head_forward", "fusion.head_forward_s", (("fusion.head_forward_calls", _one),)),
    ("gjeval.fusion", "adam_step", "fusion.adam_step_s", (("fusion.steps", _one),)),
    ("gjeval.fusion", "make_synthetic_features", "fusion.features_s", ()),
)
ROOT_METRIC = "cli.self_s"

TIME_METRICS = tuple(dict.fromkeys([ROOT_METRIC] + [t[2] for t in TARGETS]))
COUNT_METRICS = tuple(dict.fromkeys(name for t in TARGETS for name, _ in t[3]))


def _owner(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans around the traced targets while installed."""

    def __init__(self):
        self.spans: list[dict | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op_id: int | None = None

    def install(self) -> None:
        """Wrap every target; raise, with nothing wrapped, if one is missing."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        found = []
        for module, attr, metric, counters in TARGETS:
            owner, name = _owner(module, attr)
            original = vars(owner).get(name)
            if not callable(original):
                raise RuntimeError(f"traced target {module}.{attr} not found; update spans.TARGETS")
            found.append((owner, name, original, f"{module}.{attr}", metric, counters))
        for owner, name, original, label, metric, counters in found:
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, label, metric, counters))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _open(self) -> tuple[int, int | None]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, metric, start, end) -> None:
        self._stack.pop()
        self.spans[sid] = {
            "id": sid, "parent": parent, "op": self._op_id,
            "name": name, "metric": metric, "start": start, "end": end,
        }

    def _wrap(self, original, name, metric, counters):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(sid, parent, name, metric, start, clock())
            for counter, count in counters:
                self.counts[counter] += count(result, args)
            return result

        traced.__wrapped__ = original
        return traced

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` under a root span ``cli.main`` tagged with ``op_id``."""
        self._op_id = op_id
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(sid, parent, "gjeval.cli.main", ROOT_METRIC, start, time.perf_counter())
            self._op_id = None


def self_times(spans: list[dict]) -> dict[str, float]:
    """Sum of self time per layer metric: span time minus its children's."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    totals = dict.fromkeys(TIME_METRICS, 0.0)
    for s in spans:
        totals[s["metric"]] = totals.get(s["metric"], 0.0) + own[s["id"]]
    return totals
