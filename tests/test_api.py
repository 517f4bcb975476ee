"""The exported API: every name an ``__all__`` lists is defined."""

from __future__ import annotations

import importlib
import pkgutil

import gjeval


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
