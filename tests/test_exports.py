"""Every exported name resolves, so deletions leave no stale exports."""

import importlib
import pkgutil

import pytest

import erlangreg

_MODULES = sorted(info.name for info in pkgutil.iter_modules(erlangreg.__path__))


@pytest.mark.parametrize("module", ["erlangreg"] + [f"erlangreg.{m}" for m in _MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from erlangreg import *", namespace)
    assert set(erlangreg.__all__) <= set(namespace)
