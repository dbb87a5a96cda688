import numpy as np
import pytest

from proxgml.polarsym import PolarSymbolicConfig, symbolic_solve
from proxgml.problem import CartesianDomain, LineGrid, ProblemSpec
from proxgml.proximal import proximal_iterate

UNIT_SQUARE = CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1.0)

# truncation caps with bases of 16, 32 and 48 monomials
ROW_STEP_CAPS = [(3, 1, 1, 0, 0), (3, 1, 1, 1, 0), (2, 1, 1, 1, 1)]


def ones_source(x, y):
    return np.ones_like(np.asarray(y, dtype=float))


def zero_source(x, y):
    return np.zeros_like(np.asarray(y, dtype=float))


def square_problem(epsilon, K=50.0, alpha=1.0, beta=1.0, source=ones_source):
    return ProblemSpec(
        epsilon=epsilon, alpha=alpha, beta=beta, source=source,
        prox_weight=K, domain=UNIT_SQUARE,
    )


@pytest.fixture(scope="session")
def square_grid_20():
    return LineGrid(UNIT_SQUARE, 20, 20)


@pytest.fixture(scope="session")
def run_eps01_n20(square_grid_20):
    """Converged proximal run: eps=0.1, K=50, N=M=20, f=1."""
    spec = square_problem(0.1)
    return spec, square_grid_20, proximal_iterate(spec, square_grid_20, tol=1e-8)


@pytest.fixture(scope="session")
def reference_runs_n100():
    """Converged runs at N=M=100 for eps in {0.1, 0.01, 0.001}."""
    grid = LineGrid(UNIT_SQUARE, 100, 100)
    out = {}
    for eps in (0.1, 0.01, 0.001):
        spec = square_problem(eps)
        out[eps] = (spec, proximal_iterate(spec, grid, tol=1e-8))
    return grid, out


@pytest.fixture(scope="session")
def symbolic_lines_eps01():
    cfg = PolarSymbolicConfig(epsilon=0.1)
    return cfg, symbolic_solve(cfg)


@pytest.fixture(scope="session")
def symbolic_lines_eps001():
    cfg = PolarSymbolicConfig(epsilon=0.01)
    return cfg, symbolic_solve(cfg)
