"""The exported API: every name an ``__all__`` lists is defined, every
name a library module exports has a caller in the package, and every function
the benchmark's tracer wraps exists; the curve functions it wraps are on
the path an ``evaluate`` run takes."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import gjeval
from gjeval import cli, evaluate, serialize_predictions

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


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_every_export_is_used_in_the_package():
    """A name in a library module's ``__all__`` is read, as a name or an
    attribute, somewhere in the package's code (``__init__.py``, which only
    re-exports, aside), so no public API exists for the tests alone.
    ``gjeval.__version__`` is the one export with no caller."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    exported = {stem: _exports(tree) for stem, tree in trees.items()}
    assert len([names for names in exported.values() if names]) >= 6  # the six library modules
    unused = {f"{stem}.{name}" for stem, names in exported.items() for name in names if name not in loaded}
    assert unused == set()


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
    pred.write_text(serialize_predictions(small_dataset), encoding="utf-8")
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
