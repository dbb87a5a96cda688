import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import proxgml

MODULES = ["proxgml"] + [f"proxgml.{m.name}" for m in pkgutil.iter_modules(proxgml.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # an import that succeeds does not show that a removed name left __all__
    module = importlib.import_module(name)
    assert module.__all__
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_package_exports_every_public_name_it_imports():
    public = {n for n, v in vars(proxgml).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set(proxgml.__all__)


def test_readme_library_example_runs(tmp_path):
    # a public name removed from the package but left in the README fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    src_dir = os.path.dirname(os.path.dirname(proxgml.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", blocks[0]],
        env=dict(os.environ, PYTHONPATH=src_dir), cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
