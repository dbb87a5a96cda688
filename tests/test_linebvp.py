import numpy as np
import pytest

import proxgml.linebvp as linebvp
from proxgml.linebvp import TridiagonalSystem, assemble_line_system, thomas_solve
from proxgml.problem import (
    CartesianDomain,
    LineGrid,
    ProblemSpec,
    source_values,
)
import proxgml.proximal as proximal
from proxgml.proximal import _scheme_terms, _spectral_floor, backward_pass, proximal_iterate
from proxgml.sweep import ab_recursion, c_operator, outer_loop

from conftest import UNIT_SQUARE, square_problem


def dense_solve(sys: TridiagonalSystem) -> np.ndarray:
    m = sys.diag.size
    A = np.diag(sys.diag) + np.diag(sys.sub, -1) + np.diag(sys.sup, 1)
    return np.linalg.solve(A, sys.rhs)


def bvp_solution(b_n, d, h, rhs_interior):
    sys = assemble_line_system(b_n, d, h, rhs_interior)
    return thomas_solve(sys)


def test_zero_rhs_gives_zero():
    sol = bvp_solution(0.7, 0.1, 0.05, np.zeros(19))
    np.testing.assert_array_equal(sol, np.zeros(19))


def test_vanishing_diffusion_limit():
    # gamma -> 0 turns the operator into the identity
    rng = np.random.default_rng(1)
    rhs = rng.normal(size=9)
    sol = bvp_solution(1e-300, 1e-9, 0.1, rhs)
    np.testing.assert_allclose(sol, rhs, rtol=1e-10)


def test_constant_rhs_matches_cosh_closed_form():
    # u - gamma u'' = C, u(0) = u(1) = 0 has
    # u(y) = C*(1 - cosh((y-1/2)/sqrt(gamma))/cosh(1/(2 sqrt(gamma))))
    M = 400
    h = 1.0 / M
    C = 2.5
    b_n, d = 1.0, 0.3
    gamma = b_n * d * d
    sol = bvp_solution(b_n, d, h, np.full(M - 1, C))
    y = np.arange(1, M) * h
    exact = C * (1.0 - np.cosh((y - 0.5) / np.sqrt(gamma)) / np.cosh(0.5 / np.sqrt(gamma)))
    assert np.max(np.abs(sol - exact)) < 1e-4


def test_identity_diagonal_returns_rhs():
    rng = np.random.default_rng(2)
    r = rng.normal(size=6)
    sys = TridiagonalSystem(sub=np.zeros(5), diag=np.ones(6), sup=np.zeros(5), rhs=r)
    np.testing.assert_array_equal(thomas_solve(sys), r)


def test_thomas_matches_dense_small():
    sys = assemble_line_system(0.9, 0.2, 0.25, np.array([1.0, -2.0, 0.5]))
    np.testing.assert_allclose(thomas_solve(sys), dense_solve(sys), atol=1e-13)


def test_thomas_vs_dense_random_dominant_systems():
    rng = np.random.default_rng(42)
    for _ in range(100):
        m = int(rng.integers(2, 51))
        sub = rng.normal(size=m - 1)
        sup = rng.normal(size=m - 1)
        dom = np.abs(np.concatenate([[0], sub])) + np.abs(np.concatenate([sup, [0]]))
        diag = (dom + rng.uniform(0.5, 2.0, size=m)) * rng.choice([-1.0, 1.0], size=m)
        rhs = rng.normal(size=m)
        sys = TridiagonalSystem(sub=sub, diag=diag, sup=sup, rhs=rhs)
        x_t = thomas_solve(sys)
        x_d = dense_solve(sys)
        denom = max(1.0, np.max(np.abs(x_d)))
        assert np.max(np.abs(x_t - x_d)) / denom < 1e-12


def test_manufactured_sine_second_order():
    # u(y) = sin(pi y) with rhs = (1 + gamma pi^2) sin(pi y); error ~ h^2
    b_n, d = 0.8, 0.25
    gamma = b_n * d * d
    errors = []
    for M in (25, 50, 100, 200):
        y = np.arange(1, M) / M
        rhs = (1.0 + gamma * np.pi**2) * np.sin(np.pi * y)
        sol = bvp_solution(b_n, d, 1.0 / M, rhs)
        errors.append(np.max(np.abs(sol - np.sin(np.pi * y))))
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    for r in ratios:
        assert 3.5 <= r <= 4.5


def test_m_matrix_nonnegativity():
    rng = np.random.default_rng(9)
    for _ in range(25):
        m = int(rng.integers(3, 40))
        rhs = rng.uniform(0.0, 5.0, size=m)
        sol = bvp_solution(rng.uniform(0.1, 2.0), rng.uniform(0.05, 0.5),
                           rng.uniform(0.01, 0.2), rhs)
        assert np.min(sol) >= -1e-12


def test_assembly_rejects_bad_inputs():
    with pytest.raises(ValueError):
        assemble_line_system(1.0, 0.1, 0.0, np.ones(3))
    with pytest.raises(ValueError):
        assemble_line_system(-1.0, 0.1, 0.1, np.ones(3))
    with pytest.raises(ValueError):
        TridiagonalSystem(sub=np.zeros(3), diag=np.ones(3), sup=np.zeros(2), rhs=np.ones(3))


def test_zero_pivot_guard():
    sys = TridiagonalSystem(sub=np.array([1.0]), diag=np.array([0.0, 1.0]),
                            sup=np.array([1.0]), rhs=np.array([1.0, 1.0]))
    with pytest.raises(ZeroDivisionError):
        thomas_solve(sys)


def test_zero_pivot_guard_after_the_first_row():
    # diag [1, 1] with off-diagonals 1: the second pivot is 1 - 1*1 = 0
    sys = TridiagonalSystem(sub=np.array([1.0]), diag=np.array([1.0, 1.0]),
                            sup=np.array([1.0]), rhs=np.array([1.0, 1.0]))
    with pytest.raises(ZeroDivisionError, match="zero pivot at row 1"):
        thomas_solve(sys)


def solve_line(n, coeffs, u_next, spec, grid):
    """Thomas reference for line n given the already-computed line n+1.

    The cubic and linear reaction terms are lagged at line n+1, so the
    solve is linear; the unknown line contributes only its own transverse
    second derivative.  Returns the full M+1 node values with zero ends.
    """
    a, b, c = coeffs
    a_n = a[n - 1]
    b_n = b[n - 1]
    kap = grid.d**2 / spec.epsilon
    rhs_full = (
        a_n * u_next
        + b_n * (-spec.alpha * u_next**3 + spec.beta * u_next) * kap
        + c[n - 1]
    )
    sys = assemble_line_system(b_n, grid.d, grid.h[n], rhs_full[1:-1])
    out = np.zeros(grid.m_nodes + 1)
    out[1:-1] = thomas_solve(sys)
    return out


def _coeffs_for(grid, spec, c_value=0.0):
    N, M = grid.n_lines, grid.m_nodes
    a, b = ab_recursion(spec.prox_weight, grid.d, spec.epsilon, N - 1)
    return a, b, np.full((N - 1, M + 1), c_value)


def test_solve_line_zero_inputs():
    spec = square_problem(0.1, K=5.0)
    grid = LineGrid(UNIT_SQUARE, 6, 8)
    coeffs = _coeffs_for(grid, spec, c_value=0.0)
    sol = solve_line(3, coeffs, np.zeros(9), spec, grid)
    np.testing.assert_array_equal(sol, np.zeros(9))


def test_terminal_line_reduces_to_c_only():
    # u_N = 0 kills the coupling terms: the last line solves u - gamma u'' = c
    spec = square_problem(0.1, K=5.0)
    grid = LineGrid(UNIT_SQUARE, 6, 12)
    coeffs = _coeffs_for(grid, spec, c_value=0.37)
    n = grid.n_lines - 1
    got = solve_line(n, coeffs, np.zeros(13), spec, grid)
    b = coeffs[1]
    sys = assemble_line_system(b[n - 1], grid.d, 1.0 / 12, np.full(11, 0.37))
    np.testing.assert_array_equal(got[1:-1], thomas_solve(sys))
    assert got[0] == got[-1] == 0.0


def test_linear_chain_when_nonlinearity_off():
    spec = square_problem(0.1, K=5.0, alpha=0.0, beta=0.0)
    grid = LineGrid(UNIT_SQUARE, 6, 10)
    coeffs = _coeffs_for(grid, spec, c_value=0.1)
    rng = np.random.default_rng(4)
    u_next = np.zeros(11)
    u_next[1:-1] = rng.normal(size=9)
    n = 2
    got = solve_line(n, coeffs, u_next, spec, grid)
    a, b, c = coeffs
    rhs = a[n - 1] * u_next + c[n - 1]
    sys = assemble_line_system(b[n - 1], grid.d, 0.1, rhs[1:-1])
    np.testing.assert_allclose(got[1:-1], thomas_solve(sys), atol=0)


CURVED = CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1.0 + 0.5 * x)


def _thomas_chain(coeffs, spec, grid, u_boundary_N):
    N, M = grid.n_lines, grid.m_nodes
    ref = np.zeros((N + 1, M + 1))
    ref[N] = u_boundary_N
    for n in range(N - 1, 0, -1):
        ref[n] = solve_line(n, coeffs, ref[n + 1], spec, grid)
    return ref


def _random_problem(N, M, domain, seed=21):
    # a, b of the spec and the c of its source plus noise
    spec = ProblemSpec(epsilon=0.07, alpha=2.0, beta=0.5,
                       source=lambda x, y: np.cos(3.0 * x) * np.sin(np.pi * y),
                       prox_weight=11.0, domain=domain)
    grid = LineGrid(domain, N, M)
    a, b = ab_recursion(spec.prox_weight, grid.d, spec.epsilon, N - 1)
    noise = np.random.default_rng(seed).uniform(-15.0, 15.0, (N + 1, M + 1))
    g = source_values(spec, grid) + noise
    return spec, grid, (a, b, c_operator(a, grid.d**2 / spec.epsilon) @ g[1:-1])


@pytest.mark.parametrize("N, M, domain", [
    pytest.param(12, 12, CURVED, id="12-12"),
    pytest.param(5, 2, CURVED, id="5-2"),
    pytest.param(100, 100, UNIT_SQUARE, id="100-100"),
])
def test_factored_backward_pass_matches_thomas_chain(N, M, domain):
    # h_n changes from line to line on CURVED; M = 2 leaves one interior node per line
    spec, grid, coeffs = _random_problem(N, M, domain)
    got = backward_pass(spec, grid, coeffs[2], np.zeros(M + 1))
    ref = _thomas_chain(coeffs, spec, grid, np.zeros(M + 1))
    assert np.max(np.abs(ref)) > 0.1
    np.testing.assert_allclose(got.values, ref, rtol=0, atol=1e-13)


def test_backward_pass_leaves_read_only_coefficients_unchanged():
    # the line solves write into their right-hand sides; the caller's c,
    # writeable or not, must never be that buffer
    spec, grid, (_, _, c) = _random_problem(12, 12, CURVED)
    before = c.tobytes()
    backward_pass(spec, grid, c, np.zeros(13))
    assert c.tobytes() == before
    c.setflags(write=False)
    backward_pass(spec, grid, c, np.zeros(13))
    assert c.tobytes() == before


def test_backward_solve_on_non_contiguous_arrays():
    # daxpy and dpttrs silently work on a copy of a non-contiguous array, so
    # the pass copies c into its own buffer and must still give the
    # Thomas-chain answer for any layout of c
    N, M = 9, 7
    spec, grid, coeffs = _random_problem(N, M, CURVED, seed=5)
    boundary = np.sin(np.pi * np.arange(M + 1) / M)
    ref = _thomas_chain(coeffs, spec, grid, boundary)
    fortran_c = np.asfortranarray(coeffs[2])
    strided_c = np.zeros((N - 1, 2 * (M + 1)))[:, ::2]
    strided_c[...] = coeffs[2]
    for c in (fortran_c, strided_c, np.array(coeffs[2])):
        got = backward_pass(spec, grid, c, boundary)
        np.testing.assert_allclose(got.values, ref, rtol=0, atol=1e-13)


@pytest.mark.parametrize("shape", [(1, 5), (5,), (5, 1), ()], ids=str)
def test_backward_pass_rejects_misshaped_c(shape):
    # at N = 6, M = 4 the pass needs one c row of M+1 values per line 1..5;
    # numpy would broadcast any of these shapes over every line
    grid = LineGrid(UNIT_SQUARE, 6, 4)
    with pytest.raises(ValueError, match="shape"):
        backward_pass(square_problem(0.1), grid, np.ones(shape), np.zeros(5))


@pytest.mark.parametrize("shape", [(), (4,), (6,), (1, 5)], ids=str)
def test_backward_pass_rejects_misshaped_boundary(shape):
    # at M = 4 line N holds M+1 = 5 values; numpy would spread a scalar or
    # a (1, 5) row over it
    grid = LineGrid(UNIT_SQUARE, 6, 4)
    with pytest.raises(ValueError, match="u_boundary_N must have shape"):
        backward_pass(square_problem(0.1), grid, np.ones((5, 5)), np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_backward_pass_rejects_non_finite_c(bad):
    # one NaN in c once came out as 9 NaN nodes of the field, with no error;
    # the end columns are not read, so a non-finite value there is harmless
    grid = LineGrid(UNIT_SQUARE, 6, 4)
    c = np.ones((5, 5))
    c[:, [0, -1]] = bad
    backward_pass(square_problem(0.1), grid, c, np.zeros(5))
    c[2, 2] = bad
    with pytest.raises(ValueError, match="c must be finite"):
        backward_pass(square_problem(0.1), grid, c, np.zeros(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_backward_pass_rejects_non_finite_boundary(bad):
    grid = LineGrid(UNIT_SQUARE, 6, 4)
    boundary = np.zeros(5)
    boundary[3] = bad
    with pytest.raises(ValueError, match="u_boundary_N must be finite"):
        backward_pass(square_problem(0.1), grid, np.ones((5, 5)), boundary)


def test_solve_loop_builds_no_line_system(monkeypatch):
    # the cycle loop runs on factors made once per solve, not on per-line
    # Thomas solves
    def forbidden(*args, **kwargs):
        raise AssertionError("per-line reference code called in the solve loop")

    for name in ("assemble_line_system", "thomas_solve", "TridiagonalSystem"):
        monkeypatch.setattr(linebvp, name, forbidden)
    report = proximal_iterate(square_problem(0.1), LineGrid(UNIT_SQUARE, 8, 8),
                              max_iter=3)
    assert report.outer_iterations == 3


def test_solve_builds_factors_and_pass_once(monkeypatch):
    # everything that depends only on the solve is built before the first
    # cycle: one c operator and one pass, which factors each of the N-1
    # lines once
    calls = {"BackwardPass": 0, "c_operator": 0, "dpttrf": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(proximal, "BackwardPass", counted("BackwardPass", proximal.BackwardPass))
    monkeypatch.setattr(proximal, "c_operator", counted("c_operator", proximal.c_operator))
    monkeypatch.setattr(proximal, "dpttrf", counted("dpttrf", proximal.dpttrf))
    report = proximal_iterate(square_problem(0.1), LineGrid(UNIT_SQUARE, 8, 8),
                              max_iter=20)
    assert report.outer_iterations == 20
    assert calls == {"BackwardPass": 1, "c_operator": 1, "dpttrf": 7}


@pytest.mark.parametrize("N, M, domain", [
    pytest.param(10, 10, UNIT_SQUARE, id="square-10-10"),
    pytest.param(6, 2, UNIT_SQUARE, id="square-6-2"),
    pytest.param(9, 7, CURVED, id="curved-9-7"),
    pytest.param(5, 2, CURVED, id="curved-5-2"),
])
def test_solve_cycles_match_fresh_backward_passes(N, M, domain):
    # the solve reuses its c buffer, cube row and bound steps in every
    # cycle; a cycle that builds everything afresh, run by the same loop
    # (which relaxes the third of these cycles), must give the same bits,
    # or state leaks from one cycle into the next
    spec, grid, _ = _random_problem(N, M, domain)
    report = proximal_iterate(spec, grid, max_iter=5)
    K, kap = spec.prox_weight, grid.d**2 / spec.epsilon
    h = grid.h
    f = source_values(spec, grid)
    v = np.zeros((N + 1, M + 1))

    def cycle():
        a, b = ab_recursion(K, grid.d, spec.epsilon, N - 1)
        R, E = _scheme_terms(spec, v, h)
        c = c_operator(a, kap) @ (K * v + f + R + E)[1:-1]
        c -= (b * kap)[:, None] * (R[2:] + E[1:-1])
        v[...] = backward_pass(spec, grid, c, np.zeros(M + 1)).values

    # no update of these 5 cycles is near tol, so the solve's test fails on each
    updates, stop = outer_loop(cycle, v, 5, lambda update: False, _spectral_floor(spec, grid))
    assert stop == report.stop_reason == "max_iter"
    assert np.max(np.abs(v)) > 0.01
    np.testing.assert_array_equal(report.solution.values, v)
    np.testing.assert_array_equal(report.update_history, updates)
