import numpy as np
import pytest
import scipy.sparse.linalg as spla

from proxgml import oracle
from proxgml.oracle import NewtonDivergenceError, _reduced_root, compare_fields, newton_solve
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


def _x_minus_half(x, y):
    return np.full_like(np.asarray(y, dtype=float), x - 0.5)


@pytest.mark.parametrize("scale", [1e6, 1e10])
def test_tolerance_scales_with_the_source(scale):
    # rounding keeps the absolute residual far above 1e-10 for such sources
    spec = square_problem(0.1, source=lambda x, y: np.full_like(np.asarray(y, dtype=float), scale))
    grid = build_cartesian_grid(UNIT_SQUARE, 6, 6)
    report = newton_solve(spec, grid, tol=1e-10)
    assert report.residual_sup <= 1e-10 * scale
    assert report.iterations <= 5


@pytest.mark.parametrize("eps", [0.01, 0.001])
def test_sign_changing_source_converges(eps):
    grid = build_cartesian_grid(UNIT_SQUARE, 20, 20)
    report = newton_solve(square_problem(eps, source=_x_minus_half), grid)
    assert report.residual_sup <= 1e-10
    assert report.iterations <= 10
    v = report.solution.values
    # f(1 - x) = -f(x) and the cubic is odd, so the root is odd about x = 1/2
    assert np.max(np.abs(v + v[::-1, :])) <= 1e-10


@pytest.fixture
def solve_counter(monkeypatch):
    calls = []
    spsolve = spla.spsolve

    def counted(*args, **kwargs):
        calls.append(1)
        return spsolve(*args, **kwargs)

    monkeypatch.setattr(oracle.spla, "spsolve", counted)
    return calls


@pytest.mark.parametrize("eps", [0.01, 0.001])
def test_iterations_count_every_linear_solve(solve_counter, eps):
    grid = build_cartesian_grid(UNIT_SQUARE, 20, 20)
    report = newton_solve(square_problem(eps), grid)
    assert report.iterations == len(solve_counter)
    assert len(report.residual_history) == report.iterations + 1


def test_line_search_failure_names_steps_taken(solve_counter):
    # 1e-20 is below rounding, so the line search gives up before the limit
    grid = build_cartesian_grid(UNIT_SQUARE, 20, 20)
    with pytest.raises(NewtonDivergenceError) as info:
        newton_solve(square_problem(0.1), grid, tol=1e-20)
    assert len(solve_counter) < 50
    steps = len(solve_counter) - 1  # the last solve gave no accepted step
    assert f"line search failed after {steps} Newton steps" in str(info.value)


def test_step_limit_names_steps_taken(solve_counter):
    grid = build_cartesian_grid(UNIT_SQUARE, 20, 20)
    with pytest.raises(NewtonDivergenceError, match="no convergence after 2 Newton steps"):
        newton_solve(square_problem(0.1), grid, max_newton=2)
    assert len(solve_counter) == 2


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.3, 2.0), (5.0, 0.01)])
def test_reduced_root_is_stable_root_with_sign_of_f(alpha, beta):
    f = np.concatenate([np.linspace(-30.0, 30.0, 121), [0.0, 1e-12, -1e-12]])
    u = _reduced_root(alpha, beta, f)
    np.testing.assert_allclose(alpha * u**3 - beta * u, f, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(np.sign(u), np.sign(f))
    nonzero = f != 0.0
    assert np.all(3.0 * alpha * u[nonzero] ** 2 > beta)


def test_monotone_reaction_starts_from_zero():
    # beta < 0: no stable branch to start from; the zero start converges
    grid = build_cartesian_grid(UNIT_SQUARE, 12, 12)
    report = newton_solve(square_problem(0.01, beta=-1.0), grid)
    assert report.residual_sup <= 1e-10


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
