"""Every name in a module's `__all__` resolves to an object."""

import importlib
import pkgutil

import pytest

import spectralpath

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(spectralpath.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("module", ["spectralpath"] + [f"spectralpath.{m}" for m in MODULES])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
