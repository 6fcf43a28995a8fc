"""Every name in a module's `__all__` resolves to an object, every name the
package root exports is exported by the module that defines it, and the
README's Python example runs."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

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


def test_root_exports_are_exported_where_defined():
    """A name removed from its module's `__all__` must leave the root's too."""
    stale = []
    for name in spectralpath.__all__:
        obj = getattr(spectralpath, name)
        if isinstance(obj, (type, types.FunctionType)):
            homes = [obj.__module__]
        else:  # a constant: every module that binds the same object
            homes = [f"spectralpath.{m}" for m in MODULES]
            homes = [h for h in homes if getattr(importlib.import_module(h), name, None) is obj]
        if not any(name in importlib.import_module(h).__all__ for h in homes):
            stale.append(name)
    assert stale == []


def test_root_lists_its_names_and_rejects_others():
    assert set(spectralpath.__all__) <= set(dir(spectralpath))
    for module, names in spectralpath._EXPORTS.items():
        home = importlib.import_module(f"spectralpath.{module}")
        assert [n for n in names if getattr(spectralpath, n) is not getattr(home, n)] == []
    with pytest.raises(AttributeError, match="no_such_name"):
        spectralpath.no_such_name


def test_importing_the_root_loads_no_module():
    # a name's module is imported when the name is first used
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(spectralpath.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, spectralpath; print(sorted(m for m in sys.modules if 'spectralpath.' in m))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_readme_python_block_runs():
    # a renamed or removed name fails here, not in a reader's hands
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
