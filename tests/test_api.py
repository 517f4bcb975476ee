"""The exported API: every name an ``__all__`` lists is defined, every
name a library module exports, and every public method of a class it
exports, has a caller in the package, and every function
the benchmark's tracer wraps exists; the curve functions it wraps are on
the path an ``evaluate`` run takes, the fold functions on a ``kfold`` run's,
the fusion functions on a ``fusion-demo`` run's, and the report assembly and
write functions on every report-writing run's."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import math
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

from conftest import make_dataset, predictions_csv, row_patient_ids

import gjeval
from gjeval import TrainSpec, cli, evaluate

PACKAGE = Path(gjeval.__file__).parent


def test_all_names_resolve():
    modules = [gjeval] + [
        importlib.import_module(f"gjeval.{info.name}")
        for info in pkgutil.iter_modules(gjeval.__path__)
        if info.name != "__main__"
    ]
    exported = [module for module in modules if hasattr(module, "__all__")]
    assert len(exported) >= 7  # the package and its six library modules
    stale = {module.__name__: [name for name in module.__all__ if not hasattr(module, name)]
             for module in exported}
    assert {module: names for module, names in stale.items() if names} == {}


def test_package_exports_are_their_modules_exports():
    """Each name ``gjeval.__all__`` takes from a submodule is in that
    submodule's ``__all__``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name: node.module for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}
    assert len(imported) > 40
    missing = sorted(f"{module}.{name}" for name, module in imported.items()
                     if name in gjeval.__all__ and name not in importlib.import_module(f"gjeval.{module}").__all__)
    assert missing == []


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _library_trees() -> dict[str, ast.Module]:
    """The syntax tree of each module of the package but ``__init__.py``,
    which only re-exports."""
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def _loaded(trees: dict[str, ast.Module]) -> set[str]:
    """Every name and attribute name that the code of ``trees`` reads."""
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_export_is_used_in_the_package():
    """A name in a library module's ``__all__`` is read, as a name or an
    attribute, somewhere in the package's code (``__init__.py``, which only
    re-exports, aside), so no public API exists for the tests alone.
    ``gjeval.__version__`` is the one export with no caller."""
    trees = _library_trees()
    loaded = _loaded(trees)
    exported = {stem: _exports(tree) for stem, tree in trees.items()}
    assert len([names for names in exported.values() if names]) >= 6  # the six library modules
    unused = {f"{stem}.{name}" for stem, names in exported.items() for name in names if name not in loaded}
    assert unused == set()


def test_every_member_of_an_exported_class_is_used_in_the_package():
    """A public method or property that a class in a library module's
    ``__all__`` defines is read, as an attribute, somewhere in the package's
    code, so no class carries API for the tests alone."""
    trees = _library_trees()
    loaded = _loaded(trees)
    members = {f"{stem}.{node.name}.{item.name}": item.name
               for stem, tree in trees.items() for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name in _exports(tree)
               for item in node.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")}
    assert len(members) > 10
    assert {member for member, name in members.items() if name not in loaded} == set()


def _spans():
    """``perfbench/spans.py``, loaded by path and left as it is."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_targets_resolve():
    """Each target in ``perfbench/spans.py`` is a callable where it says, so a
    rename fails here and not only in a traced benchmark run."""
    spans = _spans()
    missing = []
    for module, attr, _, _ in spans.TARGETS:
        owner, name = spans._owner(module, attr)
        if not callable(vars(owner).get(name)):
            missing.append(f"{module}.{attr}")
    assert len(spans.TARGETS) > 0 and missing == []


def test_curve_targets_stay_on_the_traced_path(small_dataset, tmp_path):
    """An image-level evaluate run under the benchmark's tracer passes through
    ``micro_curves``, ``roc_points`` and ``pr_points``: one ROC and one PR
    derivation per curve set, whose points are the report's points."""
    spans = _spans()
    pred = tmp_path / "pred.csv"
    pred.write_text(predictions_csv(small_dataset), encoding="utf-8")
    tracer = spans.Tracer()
    tracer.install()
    try:
        argv = ["evaluate", "--pred", str(pred), "--level", "image", "--out", str(tmp_path / "ev")]
        assert tracer.run_op(0, cli.main, argv) == 0
    finally:
        tracer.restore()
    traced = {s["name"] for s in tracer.spans}
    assert {f"gjeval.metrics.{name}" for name in ("micro_curves", "roc_points", "pr_points")} <= traced
    curves = [c for pair in evaluate(small_dataset, level="image").curves.values() for c in pair]
    assert len(curves) == 8
    assert tracer.counts["metrics.curve_sweeps"] == 8
    assert tracer.counts["metrics.curve_points"] == sum(len(c.x) for c in curves)


def test_kfold_targets_stay_on_the_traced_path(small_dataset, tmp_path):
    """A kfold run under the benchmark's tracer passes through
    ``kfold_split`` and ``fold_datasets`` once each, so ``data.kfold_s`` books
    the split and the per-fold counts; no summary is taken per fold."""
    spans = _spans()
    pred = tmp_path / "pred.csv"
    pred.write_text(predictions_csv(small_dataset), encoding="utf-8")
    tracer = spans.Tracer()
    tracer.install()
    try:
        for by in ("patient", "image"):
            argv = ["kfold", "--pred", str(pred), "--k", "3", "--by", by, "--out", str(tmp_path / by)]
            assert tracer.run_op(0, cli.main, argv) == 0
    finally:
        tracer.restore()
    kfold = [s for s in tracer.spans if s["metric"] == "data.kfold_s"]
    assert sorted(s["name"] for s in kfold) == ["gjeval.cli.fold_datasets"] * 2 + ["gjeval.cli.kfold_split"] * 2
    assert "gjeval.cli.summarize" not in {s["name"] for s in tracer.spans}
    booked = sum(s["end"] - s["start"] for s in kfold)
    assert 0 < spans.self_times(tracer.spans)["data.kfold_s"] == pytest.approx(booked)


def test_fusion_targets_stay_on_the_traced_path(tmp_path):
    """A fusion-demo run under the benchmark's tracer passes through
    ``train_toy``, ``make_synthetic_features``, ``adam_step`` once per
    optimisation step, and ``head_forward`` once, for the final hold-out
    pass: the training steps and the per-epoch accuracies run on features
    pooled once, inside ``train_toy``."""
    spans = _spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        argv = ["fusion-demo", "--dim", "8", "--hidden", "3", "--epochs", "2", "--batch", "64",
                "--out", str(tmp_path / "fd")]
        assert tracer.run_op(0, cli.main, argv) == 0
    finally:
        tracer.restore()
    traced = {s["name"] for s in tracer.spans}
    fusion = {f"gjeval.fusion.{name}" for name in ("train_toy", "head_forward", "adam_step", "make_synthetic_features")}
    assert fusion <= traced
    spec = TrainSpec()
    n_train = spec.n_samples - spec.n_holdout
    assert tracer.counts["fusion.steps"] == 2 * math.ceil(n_train / 64)
    assert tracer.counts["fusion.head_forward_calls"] == 1


@pytest.mark.parametrize("command", ["evaluate", "compare", "readers", "kfold", "fusion-demo"])
def test_publish_stays_on_the_traced_path(command, small_dataset, tmp_path):
    """Each report-writing run under the benchmark's tracer assembles, dumps
    and writes its report once, through ``_publish``, and the write counters
    the tracer takes from ``_write_outputs``'s positional arguments name
    every file in ``--out`` and its size."""
    spans = _spans()
    pred, pred_b, readers = tmp_path / "pred.csv", tmp_path / "pred_b.csv", tmp_path / "readers.csv"
    pred.write_text(predictions_csv(small_dataset), encoding="utf-8")
    other = make_dataset(small_dataset.truth, small_dataset.probs[::-1], row_patient_ids(small_dataset))
    pred_b.write_text(predictions_csv(other), encoding="utf-8")
    calls = [f"{rid},{group},{arm},{image},{truth if (i + k) % 3 else (truth + 1) % 3},12"
             for k, (rid, group, arm) in enumerate([("r1", "trainee", "A"), ("r2", "expert", "B")])
             for i, (image, truth) in enumerate(zip(small_dataset.image_ids, small_dataset.truth.tolist()))]
    readers.write_text("\n".join(["reader_id,group,arm,image_id,pred_label,elapsed_s", *calls, ""]), encoding="utf-8")
    argv = {
        "evaluate": ["--pred", str(pred), "--svg"],
        "compare": ["--pred-a", str(pred), "--pred-b", str(pred_b)],
        "readers": ["--pred", str(pred), "--readers", str(readers)],
        "kfold": ["--pred", str(pred), "--k", "3"],
        "fusion-demo": ["--dim", "8", "--hidden", "3", "--epochs", "1", "--batch", "64"],
    }[command]
    out = tmp_path / "out"
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.run_op(0, cli.main, [command, *argv, "--out", str(out)]) == 0
    finally:
        tracer.restore()
    names = Counter(s["name"] for s in tracer.spans)
    for target in ("gjeval.cli._write_outputs", "gjeval.report.build_report_doc", "gjeval.report.dump_json"):
        assert names[target] == 1, target
    written = sorted(out.iterdir())
    assert "report.json" in {p.name for p in written}
    assert tracer.counts["cli.files_written"] == len(written)
    assert tracer.counts["cli.bytes_written"] == sum(p.stat().st_size for p in written)
