"""Tests of the benchmark's own tracer and output checks.

Run from the checkout root: ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import hostspeed  # noqa: E402
import spans  # noqa: E402
from gjeval import cli  # noqa: E402


def _originals() -> dict[tuple[str, str], object]:
    out = {}
    for module, attr, _, _ in spans.TARGETS:
        owner, name = spans._owner(module, attr)
        if owner is not None and name in vars(owner):
            out[(module, attr)] = vars(owner)[name]
    return out


def _main_quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("in")
    gen.generate(d, seed=3, patients_per_class=(5, 4, 6), images_max=3)
    return d


def test_traced_run_restores_every_wrapped_attribute(inputs, tmp_path):
    before = _originals()
    tracer = spans.Tracer()
    argvs = [
        ["evaluate", "--pred", str(inputs / "pred_a.csv"), "--level", "patient", "--svg",
         "--out", str(tmp_path / "ev")],
        ["compare", "--pred-a", str(inputs / "pred_a.csv"), "--pred-b", str(inputs / "pred_b.csv"),
         "--out", str(tmp_path / "cmp")],
        ["readers", "--pred", str(inputs / "pred_a.csv"), "--readers", str(inputs / "readers.csv"),
         "--out", str(tmp_path / "rd")],
        ["fusion-demo", "--epochs", "1", "--dim", "4", "--out", str(tmp_path / "fd")],
    ]
    for op_id, argv in enumerate(argvs):
        tracer.install()
        try:
            assert tracer.run_op(op_id, _main_quiet, argv) == 0
        finally:
            tracer.restore()
    after = _originals()
    assert all(after[key] is before[key] for key in before)
    assert not any(hasattr(obj, "__wrapped__") for obj in after.values())
    recorded = {s["metric"] for s in tracer.spans}
    assert {"data.parse_predictions_s", "aggregate.readers_s", "report.svg_s",
            "metrics.curve_csv_s", "fusion.adam_step_s"} <= recorded
    assert tracer.counts["aggregate.patients"] == 15


def test_restore_after_an_op_that_raises(inputs):
    before = _originals()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(ZeroDivisionError):
            tracer.run_op(0, lambda: 1 / 0)
    finally:
        tracer.restore()
    assert _originals() == before
    assert tracer.spans[0]["metric"] == spans.ROOT_METRIC


def test_install_fails_on_a_missing_target_and_wraps_nothing(monkeypatch):
    before = _originals()
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("gjeval.cli", "no_such_function", "cli.write_s", ()),))
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError, match="gjeval.cli.no_such_function"):
        tracer.install()
    assert _originals() == before


def test_a_counter_that_fails_fails_the_op(inputs, tmp_path, monkeypatch):
    def broken(result, args):
        raise TypeError("cannot count")

    monkeypatch.setattr(spans, "TARGETS", tuple(
        (m, a, metric, (("data.rows_parsed", broken),)) if a == "parse_predictions" else (m, a, metric, c)
        for m, a, metric, c in spans.TARGETS))
    tracer = spans.Tracer()
    tracer.install()
    try:
        with pytest.raises(TypeError, match="cannot count"):
            tracer.run_op(0, _main_quiet, ["evaluate", "--pred", str(inputs / "pred_a.csv"),
                                           "--out", str(tmp_path / "ev")])
    finally:
        tracer.restore()


def test_peak_rss_excludes_the_memory_of_the_parent():
    held = b"x" * (192 << 20)  # resident in this process while the worker starts
    probe = f"import sys; sys.path.insert(0, {str(HERE)!r}); import worker; print(worker.peak_rss_kb())"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert len(held) and int(out.stdout) < 96 << 10


def test_self_time_subtracts_direct_children_only():
    span = lambda sid, parent, metric, start, end: {  # noqa: E731
        "id": sid, "parent": parent, "op": 0, "name": metric, "metric": metric,
        "start": start, "end": end,
    }
    totals = spans.self_times([
        span(0, None, "cli.self_s", 0.0, 10.0),
        span(1, 0, "aggregate.evaluate_s", 1.0, 7.0),
        span(2, 1, "metrics.curve_sweep_s", 2.0, 5.0),
        span(3, 2, "metrics.curve_sweep_s", 3.0, 4.0),
        span(4, 0, "cli.write_s", 8.0, 9.0),
    ])
    assert totals["cli.self_s"] == pytest.approx(3.0)
    assert totals["aggregate.evaluate_s"] == pytest.approx(3.0)
    assert totals["metrics.curve_sweep_s"] == pytest.approx(3.0)
    assert totals["cli.write_s"] == pytest.approx(1.0)


def test_mann_whitney_matches_pair_counting_with_ties():
    rng = np.random.default_rng(0)
    scores = rng.integers(0, 5, size=40).astype(float)
    labels = (rng.random(40) < 0.4).astype(float)
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p, q in itertools.product(pos, neg))
    assert checks.mann_whitney_auc(scores, labels) == pytest.approx(wins / (pos.size * neg.size))


def test_checks_pass_on_real_outputs_and_catch_a_wrong_auc(inputs, tmp_path):
    ref = checks.Reference(inputs / "reference.npz", {
        name: {"sha256": gen.sha256_file(inputs / name)} for name in ("pred_a.csv", "pred_b.csv", "readers.csv")
    })
    schemas = checks.load_schemas(HERE.parent / "src")
    out = tmp_path / "ev"
    assert _main_quiet(["evaluate", "--pred", str(inputs / "pred_a.csv"), "--out", str(out)]) == 0
    # The report records the path it was given; the check compares digests only.
    assert checks.check_op("evaluate_image", out, schemas, ref) == []
    ref.probs = ref.probs[::-1].copy()
    assert any("AUC" in f for f in checks.check_op("evaluate_image", out, schemas, ref))


def test_scaling_uses_the_host_speed_near_each_op():
    ref = hostspeed.REFERENCE_S
    samples = [[t / 10, ref] for t in range(0, 30)] + [[t / 10, 2 * ref] for t in range(100, 130)]
    ops = [{"start": 0.5, "wall_s": 1.0}, {"start": 11.0, "wall_s": 1.0}, {"start": 50.0, "wall_s": 1.0}]
    fast, slow, far = hostspeed.scale_ops(ops, samples)
    assert fast == pytest.approx(1.0)
    assert slow == pytest.approx(0.5)
    assert far == pytest.approx(1.0 / 1.5)  # no sample near: the run's median


def test_sampler_restores_the_alarm_handler_and_timer():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        deadline = time.perf_counter() + 3 * hostspeed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert sampler.samples and sampler.paused_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
