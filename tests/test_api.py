import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import proxgml
import proxgml.cli
import proxgml.symalg

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


def test_the_library_calls_the_benchmark_makes():
    # every call bench/workloads.py and bench/run.py make, on tiny grids, so
    # that removing one fails here before it breaks the benchmark.  ROADMAP
    # item 17 retires ProblemSpec's domain= and the build_cartesian_grid
    # alias together with the benchmark's use of them, and updates this test.
    domain = proxgml.CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1.0)
    grid = proxgml.build_cartesian_grid(domain, 6, 6)
    for text in ("const:1", "sin(pi*x)*sin(pi*y)"):
        spec = proxgml.ProblemSpec(epsilon=0.1, alpha=1.0, beta=1.0,
                                   source=proxgml.cli.parse_source(text), prox_weight=50.0,
                                   domain=domain)
        r = proxgml.proximal_iterate(spec, grid, tol=1e-8)
        assert r.solution.values.shape == (7, 7)
        assert r.converged and r.outer_iterations > 0
        n = proxgml.newton_solve(spec, grid)
        assert n.solution.values.shape == (7, 7) and n.iterations > 0
    cfg = proxgml.PolarSymbolicConfig(epsilon=0.1)
    assert cfg.iters > 0 and cfg.n_lines > 2
    lines = proxgml.symbolic_solve(cfg)
    line = lines[cfg.n_lines // 2]
    assert line.coefficient((0,) * 5) > 0 and line.terms
    assert np.all(np.isfinite(proxgml.polar_numeric_solve(cfg, np.zeros(16))))
    assert proxgml.symalg.to_json_dict(line) and proxgml.symalg.format_terms(line)
