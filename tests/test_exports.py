"""Every name the package root exports, listed once in its `_EXPORTS` table,
resolves to the same object in the module that defines it, and the README's
Python example runs."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spectralpath

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(spectralpath.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("module", ["spectralpath"] + [f"spectralpath.{m}" for m in MODULES])
def test_all_names_resolve(module):
    # the root's `_EXPORTS` is the one list of public names, by module
    mod = importlib.import_module(module)
    names = spectralpath.__all__ if mod is spectralpath else spectralpath._EXPORTS.get(module.split(".")[1], ())
    assert [name for name in names if not hasattr(mod, name)] == []


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
