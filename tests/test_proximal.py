import numpy as np
import pytest

from proxgml.cli import parse_source
from proxgml.linebvp import assemble_line_system, thomas_solve
from proxgml.problem import (
    CartesianDomain,
    FieldSolution,
    ProblemSpec,
    build_cartesian_grid,
    transverse_step,
)
from proxgml.proximal import (
    backward_pass,
    error_estimate,
    proximal_iterate,
    residual_field,
    residual_norm,
)
from proxgml.sweep import forward_sweep

from conftest import UNIT_SQUARE, ones_source, square_problem, zero_source


def test_homogeneous_problem_is_fixed_at_zero():
    spec = square_problem(0.1, source=zero_source)
    grid = build_cartesian_grid(UNIT_SQUARE, 10, 10)
    report = proximal_iterate(spec, grid, tol=1e-8)
    assert report.converged
    assert report.outer_iterations == 1
    np.testing.assert_array_equal(report.solution.values, 0.0)
    assert report.residual_sup == 0.0


def test_backward_pass_zero_coefficients():
    spec = square_problem(0.1, source=zero_source)
    grid = build_cartesian_grid(UNIT_SQUARE, 8, 6)
    coeffs = forward_sweep(spec, grid, FieldSolution.zeros(grid))
    u = backward_pass(coeffs, spec, grid, np.zeros(7))
    np.testing.assert_array_equal(u.values, 0.0)


def test_first_pass_interior_positive():
    # f = 1 > 0 and the M-matrix line solves keep every interior value positive
    spec = square_problem(0.1)
    grid = build_cartesian_grid(UNIT_SQUARE, 20, 20)
    coeffs = forward_sweep(spec, grid, FieldSolution.zeros(grid))
    u = backward_pass(coeffs, spec, grid, np.zeros(21))
    assert np.min(u.values[1:-1, 1:-1]) > 0.0


def test_backward_pass_matches_hand_unrolled_chain():
    # N = 3: two interior lines; unroll the recursion with explicit solves
    spec = square_problem(0.07, K=11.0, alpha=2.0, beta=0.5)
    grid = build_cartesian_grid(UNIT_SQUARE, 3, 6)
    rng = np.random.default_rng(8)
    anchor = np.zeros((4, 7))
    anchor[1:-1, 1:-1] = rng.normal(size=(2, 5))
    coeffs = forward_sweep(spec, grid, FieldSolution(anchor))
    got = backward_pass(coeffs, spec, grid, np.zeros(7))

    kap = grid.d**2 / spec.epsilon
    h = 1.0 / 6
    # line 2: u_3 = 0, rhs = c_2
    sys2 = assemble_line_system(coeffs.b[1], grid.d, h, coeffs.c[1][1:-1])
    u2 = np.zeros(7)
    u2[1:-1] = thomas_solve(sys2)
    # line 1: rhs = a_1 u_2 + b_1 (-alpha u_2^3 + beta u_2) kap + c_1
    rhs1 = (coeffs.a[0] * u2
            + coeffs.b[0] * (-spec.alpha * u2**3 + spec.beta * u2) * kap
            + coeffs.c[0])
    sys1 = assemble_line_system(coeffs.b[0], grid.d, h, rhs1[1:-1])
    u1 = np.zeros(7)
    u1[1:-1] = thomas_solve(sys1)

    np.testing.assert_allclose(got.values[2], u2, atol=1e-13)
    np.testing.assert_allclose(got.values[1], u1, atol=1e-13)


def test_determinism_bit_identical(run_eps01_n20):
    spec, grid, report = run_eps01_n20
    again = proximal_iterate(spec, grid, tol=1e-8)
    assert np.array_equal(report.solution.values, again.solution.values)
    assert report.outer_iterations == again.outer_iterations
    assert report.anchor_update_norm == again.anchor_update_norm
    assert report.residual_sup == again.residual_sup


def test_updates_eventually_decreasing(run_eps01_n20):
    _, _, report = run_eps01_n20
    tail = report.update_history[-10:]
    assert np.all(np.diff(tail) <= 0.0)


def test_converged_flag_and_tolerance(run_eps01_n20):
    _, _, report = run_eps01_n20
    assert report.converged
    assert report.stop_reason == "converged"
    assert report.anchor_update_norm <= 1e-8


def test_non_convergence_reported_not_raised():
    spec = square_problem(0.1)
    grid = build_cartesian_grid(UNIT_SQUARE, 10, 10)
    report = proximal_iterate(spec, grid, tol=1e-14, max_iter=3)
    assert not report.converged
    assert report.outer_iterations == 3
    assert report.stop_reason == "max_iter"


@pytest.mark.parametrize("fixed_iters", [None, 50])
def test_non_finite_update_stops_at_once(fixed_iters):
    # a finite source of 7.2e23 overflows the cubic term in the first cycle
    spec = square_problem(0.1, source=parse_source("3**50"))
    grid = build_cartesian_grid(UNIT_SQUARE, 6, 6)
    report = proximal_iterate(spec, grid, fixed_iters=fixed_iters)
    assert report.stop_reason == "non-finite"
    assert not report.converged
    assert report.outer_iterations <= 2
    assert not np.isfinite(report.anchor_update_norm)


def test_fixed_iteration_override():
    spec = square_problem(0.1)
    grid = build_cartesian_grid(UNIT_SQUARE, 10, 10)
    r5 = proximal_iterate(spec, grid, fixed_iters=5)
    assert r5.outer_iterations == 5
    assert r5.stop_reason == "fixed_iters"
    r5b = proximal_iterate(spec, grid, tol=1e-30, max_iter=5)
    np.testing.assert_array_equal(r5.solution.values, r5b.solution.values)


def test_residual_zero_field_zero_source():
    spec = square_problem(0.1, source=zero_source)
    grid = build_cartesian_grid(UNIT_SQUARE, 6, 6)
    assert residual_norm(spec, grid, FieldSolution.zeros(grid)) == 0.0


def test_residual_constant_root_interior():
    # alpha u^3 - beta u = f at the flat root: away from the boundary rows
    # every difference quotient vanishes
    root = 1.3247179572447458  # u^3 - u - 1 = 0
    spec = square_problem(0.05)
    grid = build_cartesian_grid(UNIT_SQUARE, 12, 12)
    values = np.full((13, 13), root)
    values[0] = values[-1] = 0.0
    values[:, 0] = values[:, -1] = 0.0
    field = residual_field(spec, grid, FieldSolution(values))
    # rows/cols adjacent to the boundary see the clamped zeros; skip them
    assert np.max(np.abs(field[1:-1, 1:-1])) < 1e-12


def test_error_estimate_zero_solution():
    spec = square_problem(0.1)
    grid = build_cartesian_grid(UNIT_SQUARE, 8, 8)
    coeffs = forward_sweep(spec, grid, FieldSolution.zeros(grid))
    E = error_estimate(coeffs, FieldSolution.zeros(grid), spec, grid)
    np.testing.assert_array_equal(E, 0.0)


def test_error_estimate_line_independent_solution():
    # all lines equal makes every T(u_n) - T(u_{n+1}) vanish
    spec = square_problem(0.1)
    grid = build_cartesian_grid(UNIT_SQUARE, 8, 8)
    profile = np.sin(np.pi * grid.reference_nodes)
    values = np.tile(profile, (9, 1))
    coeffs = forward_sweep(spec, grid, FieldSolution.zeros(grid))
    E = error_estimate(coeffs, FieldSolution(values), spec, grid)
    assert np.max(np.abs(E)) < 1e-15


def _lag_defect_loop(coeffs, v, spec, grid):
    # G_n = a_n*G_{n-1} + b_n*(T(u_n) - T(u_{n+1})), written out line by line
    kap = grid.d**2 / spec.epsilon
    T = []
    for n in range(grid.n_lines + 1):
        u = v[n]
        d_yy = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / transverse_step(grid, n) ** 2
        mid = u[1:-1]
        T.append((-spec.alpha * mid**3 + spec.beta * mid) * kap + d_yy * grid.d**2)
    G = np.zeros(grid.m_nodes - 1)
    out = []
    for n in range(1, grid.n_lines):
        G = coeffs.a[n - 1] * G + coeffs.b[n - 1] * (T[n] - T[n + 1])
        out.append(np.max(np.abs(G)))
    return np.array(out)


@pytest.mark.parametrize("K", [50.0, 0.0])
def test_error_estimate_matches_line_by_line_recursion(K):
    spec = ProblemSpec(epsilon=0.05, alpha=2.0, beta=0.5, source=ones_source,
                       prox_weight=K, domain=CURVED)
    grid = build_cartesian_grid(CURVED, 12, 9)
    rng = np.random.default_rng(21)
    u = FieldSolution(rng.normal(size=(13, 10)))
    coeffs = forward_sweep(spec, grid, FieldSolution.zeros(grid))
    got = error_estimate(coeffs, u, spec, grid)
    want = _lag_defect_loop(coeffs, u.values, spec, grid)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_fixed_iters_sets_converged_by_the_same_test():
    spec = square_problem(0.1)
    grid = build_cartesian_grid(UNIT_SQUARE, 10, 10)
    reference = proximal_iterate(spec, grid, tol=1e-8)
    k = reference.outer_iterations
    assert k == 315
    at_k = proximal_iterate(spec, grid, tol=1e-8, fixed_iters=k)
    assert at_k.converged
    assert np.array_equal(at_k.solution.values, reference.solution.values)
    assert not proximal_iterate(spec, grid, tol=1e-8, fixed_iters=k - 1).converged
    past_k = proximal_iterate(spec, grid, tol=1e-8, fixed_iters=k + 5)
    assert past_k.converged
    assert past_k.outer_iterations == k + 5
    assert past_k.stop_reason == "fixed_iters"


def test_fixed_iters_flag_checks_the_residual(square_grid_20):
    # stopped at the first cycle whose update is below tol, the FD residual
    # is still above K*tol, so that cycle is not converged
    spec = square_problem(0.01, source=parse_source("sin(pi*x)*sin(pi*y)"))
    report = proximal_iterate(spec, square_grid_20, tol=1e-8)
    first_small = int(np.argmax(report.update_history <= 1e-8)) + 1
    assert first_small < report.outer_iterations
    early = proximal_iterate(spec, square_grid_20, tol=1e-8, fixed_iters=first_small)
    assert early.anchor_update_norm <= 1e-8
    assert not early.converged


def test_error_estimate_shrinks_with_larger_weight():
    grid = build_cartesian_grid(UNIT_SQUARE, 40, 40)
    sup = {}
    for K in (50.0, 500.0):
        report = proximal_iterate(square_problem(0.1, K=K), grid, max_iter=20000)
        assert report.converged
        sup[K] = float(np.max(report.error_estimates))
    assert sup[500.0] < sup[50.0]


def test_fixed_point_consistency_bound(square_grid_20):
    spec = square_problem(0.1)
    report = proximal_iterate(spec, square_grid_20, tol=1e-10, max_iter=20000)
    assert report.converged
    assert report.residual_sup <= spec.prox_weight * report.anchor_update_norm + 1e-12


def test_square_solution_symmetry(run_eps01_n20):
    _, _, report = run_eps01_n20
    v = report.solution.values
    assert np.max(np.abs(v - v.T)) <= 5e-3


def test_stop_requires_residual_bound(square_grid_20):
    # with this source the update falls below tol while the FD residual is
    # still above K*tol; the run must go on until both hold
    spec = square_problem(0.01, source=parse_source("sin(pi*x)*sin(pi*y)"))
    report = proximal_iterate(spec, square_grid_20, tol=1e-8)
    assert report.converged
    assert report.anchor_update_norm <= 1e-8
    assert report.residual_sup <= spec.prox_weight * 1e-8


def test_zero_weight_stops_on_update_alone():
    # K = 0 makes the residual bound K*tol zero; the update test decides
    spec = square_problem(0.1, K=0.0)
    grid = build_cartesian_grid(UNIT_SQUARE, 10, 10)
    report = proximal_iterate(spec, grid, tol=1e-8)
    assert report.converged
    assert report.anchor_update_norm <= 1e-8



CURVED = CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1.0 + 0.5 * x)


def curved_problem(epsilon, source=ones_source):
    return ProblemSpec(epsilon=epsilon, alpha=1.0, beta=1.0, source=source,
                       prox_weight=50.0, domain=CURVED)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-8])
def test_tol_must_be_finite_and_positive(tol):
    spec = square_problem(0.1)
    grid = build_cartesian_grid(UNIT_SQUARE, 6, 6)
    with pytest.raises(ValueError, match="tol"):
        proximal_iterate(spec, grid, tol=tol, max_iter=200)


@pytest.mark.parametrize("fixed_iters", [0, -3])
def test_fixed_iters_must_be_positive(fixed_iters):
    spec = square_problem(0.1)
    grid = build_cartesian_grid(UNIT_SQUARE, 6, 6)
    with pytest.raises(ValueError, match="fixed_iters"):
        proximal_iterate(spec, grid, fixed_iters=fixed_iters)


def test_source_sampled_once_per_solve():
    calls = []

    def counting_source(x, y):
        calls.append(x)
        return np.ones_like(np.asarray(y, dtype=float))

    spec = square_problem(0.1, source=counting_source)
    grid = build_cartesian_grid(UNIT_SQUARE, 10, 10)
    report = proximal_iterate(spec, grid, fixed_iters=20)
    assert report.outer_iterations == 20
    assert len(calls) == grid.n_lines + 1


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_curved_strip_converges(eps):
    # the transverse step h_n changes from line to line
    spec = curved_problem(eps)
    grid = build_cartesian_grid(CURVED, 16, 16)
    report = proximal_iterate(spec, grid, tol=1e-8)
    assert report.converged
    assert report.residual_sup <= spec.prox_weight * 1e-8


def test_first_cycle_is_plain_sweep():
    # at the zero anchor the corrected source is f and the lag term is zero
    spec = curved_problem(0.05, source=parse_source("sin(pi*x)*sin(pi*y)"))
    grid = build_cartesian_grid(CURVED, 12, 9)
    report = proximal_iterate(spec, grid, fixed_iters=1)
    coeffs = forward_sweep(spec, grid, FieldSolution.zeros(grid))
    plain = backward_pass(coeffs, spec, grid, np.zeros(grid.m_nodes + 1))
    assert np.array_equal(report.solution.values, plain.values)
