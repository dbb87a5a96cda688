import numpy as np
import pytest

from proxgml.oracle import compare_fields, newton_solve
from proxgml.problem import CartesianDomain, FieldSolution, build_cartesian_grid
from proxgml.proximal import residual_norm

from conftest import UNIT_SQUARE, square_problem, zero_source


def test_zero_source_returns_zero_immediately():
    spec = square_problem(0.1, source=zero_source)
    grid = build_cartesian_grid(UNIT_SQUARE, 10, 10)
    report = newton_solve(spec, grid)
    assert report.iterations == 0
    np.testing.assert_array_equal(report.solution.values, 0.0)


def test_self_check_residual_and_symmetry():
    spec = square_problem(0.1)
    grid = build_cartesian_grid(UNIT_SQUARE, 20, 20)
    report = newton_solve(spec, grid, tol=1e-10)
    assert report.residual_sup <= 1e-10
    v = report.solution.values
    assert np.max(np.abs(v - v.T)) <= 1e-10


def test_residual_matches_shared_routine():
    # the oracle's convergence is measured with the same residual the
    # line solver reports
    spec = square_problem(0.05)
    grid = build_cartesian_grid(UNIT_SQUARE, 16, 16)
    report = newton_solve(spec, grid, tol=1e-11)
    assert residual_norm(spec, grid, report.solution) <= 1e-11


def test_small_epsilon_plateau():
    spec = square_problem(0.001)
    grid = build_cartesian_grid(UNIT_SQUARE, 40, 40)
    report = newton_solve(spec, grid, tol=1e-10)
    center = report.solution.values[20, 20]
    assert center == pytest.approx(1.3247, abs=5e-3)


def test_local_quadratic_convergence():
    spec = square_problem(0.1)
    grid = build_cartesian_grid(UNIT_SQUARE, 20, 20)
    report = newton_solve(spec, grid, tol=1e-12)
    res = report.residual_history
    # once inside the basin the residual decays at least quadratically
    tail = res[-3:]
    assert tail[1] <= 10.0 * tail[0] ** 2 / max(tail[0], 1e-300)**1  # monotone guard
    assert tail[2] <= max(10.0 * tail[1] ** 2, 1e-13)
    assert tail[2] < tail[1] < tail[0]


@pytest.mark.parametrize("kwargs", [
    {"tol": float("nan")},
    {"tol": float("inf")},
    {"tol": 0.0},
    {"tol": -1e-10},
    {"max_newton": 0},
    {"max_newton": -2},
])
def test_rejects_bad_arguments(kwargs):
    spec = square_problem(0.1)
    grid = build_cartesian_grid(UNIT_SQUARE, 6, 6)
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        newton_solve(spec, grid, **kwargs)


def test_rejects_curved_domains():
    dom = CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1.0 + 0.2 * x)
    grid = build_cartesian_grid(dom, 8, 8)
    with pytest.raises(ValueError):
        newton_solve(square_problem(0.1), grid)


def test_compare_fields_metrics():
    grid = build_cartesian_grid(UNIT_SQUARE, 6, 6)
    u = FieldSolution.zeros(grid)
    sup, l2 = compare_fields(u, u)
    assert sup == 0.0 and l2 == 0.0
    bumped = np.zeros((7, 7))
    bumped[3, 3] = 0.5
    sup, l2 = compare_fields(u, FieldSolution(bumped))
    assert sup == 0.5
    assert 0.0 < l2 < 0.5


def test_compare_fields_shape_mismatch():
    g1 = build_cartesian_grid(UNIT_SQUARE, 6, 6)
    g2 = build_cartesian_grid(UNIT_SQUARE, 7, 6)
    with pytest.raises(ValueError):
        compare_fields(FieldSolution.zeros(g1), FieldSolution.zeros(g2))
