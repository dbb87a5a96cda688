import os
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from proxgml import oracle
from proxgml.cli import parse_source
from proxgml.oracle import NewtonDivergenceError, _reduced_root, compare_fields, newton_solve
from proxgml.problem import CartesianDomain, FieldSolution, LineGrid, ProblemSpec
from proxgml.proximal import proximal_iterate, residual_field

from conftest import UNIT_SQUARE, ones_source, square_problem, zero_source


@pytest.mark.parametrize("text, N", [("1/y", 16), ("1/(x*(1-x)*y*(1-y))", 8)])
def test_source_singular_on_the_boundary_solves(text, N):
    # the FD system reads f only at interior nodes, so a source that is
    # infinite on the boundary poses a valid problem to both solvers
    spec = square_problem(0.1, source=parse_source(text))
    grid = LineGrid(UNIT_SQUARE, N, N)
    lines = proximal_iterate(spec, grid)
    newton = newton_solve(spec, grid)
    assert lines.stop_reason == "converged"
    assert np.max(np.abs(residual_field(spec, grid, lines.solution))) <= spec.prox_weight * 1e-8
    newton_sup = np.max(np.abs(residual_field(spec, grid, newton.solution)))
    assert newton_sup <= newton.residual_sup + 1e-12
    assert compare_fields(lines.solution, newton.solution)[0] <= 1e-6


def test_zero_source_returns_zero_immediately():
    spec = square_problem(0.1, source=zero_source)
    grid = LineGrid(UNIT_SQUARE, 10, 10)
    report = newton_solve(spec, grid)
    assert report.iterations == 0
    np.testing.assert_array_equal(report.solution.values, 0.0)


def test_self_check_residual_and_symmetry():
    spec = square_problem(0.1)
    grid = LineGrid(UNIT_SQUARE, 20, 20)
    report = newton_solve(spec, grid, tol=1e-10)
    assert report.residual_sup <= 1e-10
    v = report.solution.values
    assert np.max(np.abs(v - v.T)) <= 1e-10


def test_residual_matches_shared_routine():
    # the oracle's convergence is measured with the same residual the
    # line solver reports
    spec = square_problem(0.05)
    grid = LineGrid(UNIT_SQUARE, 16, 16)
    report = newton_solve(spec, grid, tol=1e-11)
    assert np.max(np.abs(residual_field(spec, grid, report.solution))) <= 1e-11


def test_small_epsilon_plateau():
    spec = square_problem(0.001)
    grid = LineGrid(UNIT_SQUARE, 40, 40)
    report = newton_solve(spec, grid, tol=1e-10)
    center = report.solution.values[20, 20]
    assert center == pytest.approx(1.3247, abs=5e-3)


def test_local_quadratic_convergence():
    spec = square_problem(0.1)
    grid = LineGrid(UNIT_SQUARE, 20, 20)
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
    grid = LineGrid(UNIT_SQUARE, 6, 6)
    report = newton_solve(spec, grid, tol=1e-10)
    assert report.residual_sup <= 1e-10 * scale
    assert report.iterations <= 5


@pytest.mark.parametrize("eps", [0.01, 0.001])
def test_sign_changing_source_converges(eps):
    grid = LineGrid(UNIT_SQUARE, 20, 20)
    report = newton_solve(square_problem(eps, source=_x_minus_half), grid)
    assert report.residual_sup <= 1e-10
    assert report.iterations <= 10
    v = report.solution.values
    # f(1 - x) = -f(x) and the cubic is odd, so the root is odd about x = 1/2
    assert np.max(np.abs(v + v[::-1, :])) <= 1e-10


def test_import_leaves_scipy_sparse_unloaded():
    # the oracle imports scipy.sparse at its first solve, so a line solve or
    # the CLI never loads it; a fresh process, as this suite has loaded it
    code = ("import sys, proxgml, proxgml.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_solves_go_through_a_module_global_that_a_tracer_can_rebind(monkeypatch):
    # the benchmark's tracer counts the sparse solves by rebinding every
    # global of a proxgml module that is scipy.sparse.linalg, so a
    # function-local import would hide them from it
    spec, grid = square_problem(0.1), LineGrid(UNIT_SQUARE, 8, 8)
    newton_solve(spec, grid)
    assert oracle._spla is spla
    calls = []

    def spsolve(*args, **kwargs):
        calls.append(1)
        return spla.spsolve(*args, **kwargs)

    monkeypatch.setattr(oracle, "_spla", types.SimpleNamespace(spsolve=spsolve))
    report = newton_solve(spec, grid)
    assert len(calls) == report.iterations + report.coarse_iterations > 0


@pytest.fixture
def solve_counter(monkeypatch):
    """Records the keyword arguments of every sparse solve the oracle makes;
    the oracle looks spsolve up on scipy.sparse.linalg at each call."""
    calls = []
    spsolve = spla.spsolve

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return spsolve(*args, **kwargs)

    monkeypatch.setattr(spla, "spsolve", counted)
    return calls


@pytest.mark.parametrize("eps", [0.01, 0.001])
def test_iterations_count_every_linear_solve(solve_counter, eps):
    grid = LineGrid(UNIT_SQUARE, 20, 20)
    report = newton_solve(square_problem(eps), grid)
    assert report.iterations == len(solve_counter)
    assert len(report.residual_history) == report.iterations + 1


def test_line_search_failure_names_steps_taken(solve_counter):
    # 1e-20 is below rounding, so the line search gives up before the limit
    grid = LineGrid(UNIT_SQUARE, 20, 20)
    with pytest.raises(NewtonDivergenceError) as info:
        newton_solve(square_problem(0.1), grid, tol=1e-20)
    assert len(solve_counter) < 50
    steps = len(solve_counter) - 1  # the last solve gave no accepted step
    assert f"line search failed after {steps} Newton steps" in str(info.value)


def test_step_limit_names_steps_taken(monkeypatch, solve_counter):
    monkeypatch.setattr(oracle, "MAX_NEWTON", 2)
    grid = LineGrid(UNIT_SQUARE, 20, 20)
    with pytest.raises(NewtonDivergenceError, match="no convergence after 2 Newton steps"):
        newton_solve(square_problem(0.1), grid)
    assert len(solve_counter) == 2


def test_every_solve_orders_for_the_symmetric_structure(solve_counter):
    grid = LineGrid(UNIT_SQUARE, 20, 20)
    newton_solve(square_problem(0.01, source=_x_minus_half), grid)
    assert solve_counter
    assert all(kwargs.get("permc_spec") == "MMD_AT_PLUS_A" for kwargs in solve_counter)


@pytest.mark.parametrize("eps, beta, negative", [(0.001, 1.0, 6), (0.01, 30.0, 19)])
def test_indefinite_jacobian_matches_dense_solve(monkeypatch, eps, beta, negative):
    # the sparse LU must pivot as well as a dense LU where J has negative
    # eigenvalues; f = x - 0.5 puts an interior layer across the root
    grid = LineGrid(UNIT_SQUARE, 20, 20)
    spec = square_problem(eps, beta=beta, source=_x_minus_half)
    sparse = newton_solve(spec, grid)
    u = sparse.solution.values[1:-1, 1:-1].ravel()
    lap = oracle._laplacian(20, 20, grid.d, grid.h[0])
    J = -eps * lap + sp.diags(3.0 * u**2 - beta)
    assert np.count_nonzero(np.linalg.eigvalsh(J.toarray()) < 0.0) == negative

    monkeypatch.setattr(spla, "spsolve",
                        lambda J, b, **kwargs: np.linalg.solve(J.toarray(), b))
    dense = newton_solve(spec, grid)
    assert sparse.iterations == dense.iterations
    assert compare_fields(sparse.solution, dense.solution)[0] <= 1e-12


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
    grid = LineGrid(UNIT_SQUARE, 12, 12)
    report = newton_solve(square_problem(0.01, beta=-1.0), grid)
    assert report.residual_sup <= 1e-10


@pytest.mark.parametrize("kwargs", [
    {"tol": float("nan")},
    {"tol": float("inf")},
    {"tol": 0.0},
    {"tol": -1e-10},
])
def test_rejects_bad_arguments(kwargs):
    spec = square_problem(0.1)
    grid = LineGrid(UNIT_SQUARE, 6, 6)
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        newton_solve(spec, grid, **kwargs)


def test_rejects_curved_domains():
    dom = CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1.0 + 0.2 * x)
    grid = LineGrid(dom, 8, 8)
    with pytest.raises(ValueError):
        newton_solve(square_problem(0.1), grid)


def test_compare_fields_metrics():
    u = FieldSolution(np.zeros((7, 7)))
    sup, l2 = compare_fields(u, u)
    assert sup == 0.0 and l2 == 0.0
    bumped = np.zeros((7, 7))
    bumped[3, 3] = 0.5
    sup, l2 = compare_fields(u, FieldSolution(bumped))
    assert sup == 0.5
    assert 0.0 < l2 < 0.5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_compare_fields_non_finite_field_reads_nan(bad):
    # a solve that stopped on a non-finite update hands over such a field
    grid = LineGrid(UNIT_SQUARE, 6, 6)
    broken = np.full((7, 7), 1e300)
    broken[2, 4] = bad
    for pair in ((broken, np.zeros((7, 7))), (np.zeros((7, 7)), broken)):
        sup, l2 = compare_fields(*(FieldSolution(v.copy()) for v in pair))
        assert np.isnan(sup) and np.isnan(l2)


def test_compare_fields_huge_fields_without_overflow():
    # squaring a difference of 1e300 overflows; the rms is scaled first
    u = FieldSolution(np.zeros((7, 7)))
    huge = np.zeros((7, 7))
    huge[1:-1, 1:-1] = 1e300
    sup, l2 = compare_fields(u, FieldSolution(huge))
    assert sup == 1e300 and l2 == pytest.approx(1e300, rel=1e-15)
    # opposite signs: the difference itself overflows and reads inf
    sup, l2 = compare_fields(FieldSolution(1.5e8 * huge), FieldSolution(-1.5e8 * huge))
    assert sup == l2 == np.inf


def test_thin_strip_solves_without_overflow():
    # on a 1e-150 strip the first residual is near 5e300, whose plain sum of
    # squares overflows in the line search's norm; the oracle must still
    # reach the root the line solver finds
    strip = CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1e-150)
    spec = ProblemSpec(epsilon=0.1, alpha=1.0, beta=1.0, source=ones_source, domain=strip)
    grid = LineGrid(strip, 6, 6)
    report = newton_solve(spec, grid)
    assert report.residual_sup <= 1e-10
    line = proximal_iterate(spec, grid)
    assert line.converged
    scale = np.max(np.abs(line.solution.values))
    assert scale > 0.0
    assert compare_fields(report.solution, line.solution)[0] <= 1e-12 * scale


@pytest.mark.parametrize("r", [
    np.array([3.0, -4.0, 1e-3]),
    np.random.default_rng(8).normal(size=50),
    np.zeros(4),
], ids=["small", "random", "zero"])
def test_line_search_norm_is_numpys_unless_it_overflows(r):
    assert oracle._norm(r) == np.linalg.norm(r)


def test_line_search_norm_scales_an_overflowing_sum():
    assert oracle._norm(np.array([1e300, -1e300])) == pytest.approx(np.sqrt(2.0) * 1e300, rel=1e-15)
    for bad in (np.nan, np.inf):
        assert not np.isfinite(oracle._norm(np.array([1e300, bad])))


def test_compare_fields_shape_mismatch():
    # the fields of a 6 x 6 and a 7 x 6 grid
    with pytest.raises(ValueError):
        compare_fields(FieldSolution(np.zeros((7, 7))), FieldSolution(np.zeros((8, 7))))


def _single_level(monkeypatch, spec, grid):
    with monkeypatch.context() as m:
        m.setattr(oracle, "COARSE_MIN", 10**9)
        return newton_solve(spec, grid)


@pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
def test_sequenced_root_matches_single_level_solve(monkeypatch, eps):
    grid = LineGrid(UNIT_SQUARE, 64, 64)
    spec = square_problem(eps)
    sequenced = newton_solve(spec, grid)
    single = _single_level(monkeypatch, spec, grid)
    assert single.coarse_iterations == 0
    assert compare_fields(sequenced.solution, single.solution)[0] <= 1e-10
    assert sequenced.coarse_iterations > 0
    assert sequenced.iterations < single.iterations
    assert sequenced.residual_sup <= 1e-10
    assert len(sequenced.residual_history) == sequenced.iterations + 1


@pytest.mark.parametrize("N, f_value, beta, eps, tol, requested_runs", [
    (64, 1.0, 1.0, 0.01, 1e-10, 1),
    (64, 20.0, 1.0, 0.001, 1e-9, 1),
    # the 100-line run from the prolonged root stalls and runs again from the reduced root
    (100, 1.0, 30.0, 0.001, 1e-10, 2),
])
def test_coarse_levels_stop_at_the_coarse_threshold(monkeypatch, N, f_value, beta, eps, tol,
                                                    requested_runs):
    thresholds = []
    damped_newton = oracle._damped_newton

    def recorded(A, f, u, **kwargs):
        thresholds.append((A.shape[0], kwargs["threshold"]))
        return damped_newton(A, f, u, **kwargs)

    monkeypatch.setattr(oracle, "_damped_newton", recorded)
    spec = square_problem(eps, beta=beta,
                          source=lambda x, y: np.full_like(np.asarray(y, dtype=float), f_value))
    report = newton_solve(spec, LineGrid(UNIT_SQUARE, N, N), tol=tol)
    scale = max(1.0, f_value)
    requested = (N - 1) ** 2
    assert [unknowns for unknowns, _ in thresholds].count(requested) == requested_runs
    assert len(thresholds) > requested_runs
    for unknowns, threshold in thresholds:
        if unknowns == requested:
            assert threshold == tol * scale
        else:
            assert threshold == max(tol * scale, oracle.COARSE_TOL * scale)
    assert report.residual_sup <= tol * scale


def test_every_solve_is_counted_across_levels(solve_counter):
    grid = LineGrid(UNIT_SQUARE, 32, 32)
    report = newton_solve(square_problem(0.01, source=_x_minus_half), grid)
    assert report.coarse_iterations > 0
    assert report.iterations + report.coarse_iterations == len(solve_counter)
    assert all(kwargs.get("permc_spec") == "MMD_AT_PLUS_A" for kwargs in solve_counter)


def test_small_grids_solve_on_one_level(solve_counter):
    grid = LineGrid(UNIT_SQUARE, 20, 20)
    report = newton_solve(square_problem(0.01), grid)
    assert report.coarse_iterations == 0
    assert report.iterations == len(solve_counter)


def _nodes(n):
    return np.linspace(0.0, 1.0, n + 1)


def test_prolongation_is_exact_for_bilinear_fields():
    def u(x, y):
        return 0.3 + 2.0 * x - 1.5 * y + 4.0 * x * y

    coarse = u(*np.meshgrid(_nodes(5), _nodes(7), indexing="ij"))
    fine = u(*np.meshgrid(_nodes(10), _nodes(14), indexing="ij"))
    np.testing.assert_allclose(oracle._prolong(coarse), fine, rtol=0, atol=1e-14)


def test_prolongation_is_exact_for_cubics_away_from_the_end_intervals():
    def u(x, y):
        return (x**3 - 2.0 * x**2 + x - 0.25) * (0.5 * y**3 + y**2 - 3.0 * y + 1.0)

    n, m = 8, 6
    coarse = u(*np.meshgrid(_nodes(n), _nodes(m), indexing="ij"))
    fine = u(*np.meshgrid(_nodes(2 * n), _nodes(2 * m), indexing="ij"))
    # the midpoints of the two end intervals of each axis are linear
    inner = (slice(2, -2), slice(2, -2))
    np.testing.assert_allclose(oracle._prolong(coarse)[inner], fine[inner], rtol=0, atol=1e-14)
    assert np.max(np.abs(oracle._prolong(coarse) - fine)) > 1e-3


def _forced_failures(monkeypatch, fail):
    """Gives every run for which ``fail(unknowns, run index)`` holds a step limit of 1;
    returns the (unknowns, start) of every run."""
    runs = []
    damped_newton = oracle._damped_newton

    def patched(A, f, u, **kwargs):
        if fail(A.shape[0], len(runs)):
            kwargs["max_newton"] = 1
        runs.append((A.shape[0], u.copy()))
        return damped_newton(A, f, u, **kwargs)

    monkeypatch.setattr(oracle, "_damped_newton", patched)
    return runs


def test_failed_coarse_level_hands_on_the_reduced_start(monkeypatch, solve_counter):
    grid = LineGrid(UNIT_SQUARE, 32, 32)
    spec = square_problem(0.01)
    single = _single_level(monkeypatch, spec, grid)
    solve_counter.clear()
    runs = _forced_failures(monkeypatch, lambda unknowns, k: unknowns < 31 * 31)
    report = newton_solve(spec, grid)
    assert [unknowns for unknowns, _ in runs] == [15 * 15, 31 * 31]
    f = np.ones(31 * 31)
    np.testing.assert_array_equal(runs[1][1], _reduced_root(1.0, 1.0, f))
    # from the reduced start the requested grid runs as it does on one level
    assert report.coarse_iterations == 1
    assert report.iterations == single.iterations == len(solve_counter) - 1
    np.testing.assert_array_equal(report.residual_history, single.residual_history)
    np.testing.assert_array_equal(report.solution.values, single.solution.values)


def test_requested_grid_retries_from_the_reduced_start(monkeypatch, solve_counter):
    grid = LineGrid(UNIT_SQUARE, 32, 32)
    spec = square_problem(0.001, source=_x_minus_half)
    single = _single_level(monkeypatch, spec, grid)
    solve_counter.clear()
    # the first run on the requested grid is the one from the prolonged start
    runs = _forced_failures(monkeypatch, lambda unknowns, k: unknowns == 31 * 31 and k == 1)
    report = newton_solve(spec, grid)
    assert [unknowns for unknowns, _ in runs] == [15 * 15, 31 * 31, 31 * 31]
    assert report.iterations == single.iterations
    assert report.iterations + report.coarse_iterations == len(solve_counter)
    np.testing.assert_array_equal(report.solution.values, single.solution.values)


def test_indefinite_coarse_root_still_reaches_the_single_level_root(monkeypatch, solve_counter):
    # beta = 30, eps = 0.001: without the stall stop the 32-line root, which
    # does not resolve the interior layer, is prolonged and Newton stalls on
    # 64 lines (3 + 8 + 50 + 5 steps); with it the 32-line run from the
    # prolonged start is stopped and the 64-line grid starts from the reduced root
    runs = []
    damped_newton = oracle._damped_newton

    def recorded(A, f, u, **kwargs):
        run = damped_newton(A, f, u, **kwargs)
        runs.append((A.shape[0], kwargs.get("stall_steps"), run))
        return run

    grid = LineGrid(UNIT_SQUARE, 64, 64)
    spec = square_problem(0.001, beta=30.0, source=_x_minus_half)
    with monkeypatch.context() as m:
        m.setattr(oracle, "_damped_newton", recorded)
        report = newton_solve(spec, grid)
    assert report.iterations + report.coarse_iterations == len(solve_counter) < 20
    assert [(unknowns, stall) for unknowns, stall, _ in runs] == [
        (15 * 15, None), (31 * 31, oracle.STALL_STEPS), (63 * 63, None)]
    stalled = runs[1][2]
    assert stalled.solves == oracle.STALL_STEPS
    assert stalled.failure.startswith(f"stalled after {oracle.STALL_STEPS} Newton steps")
    assert stalled.residual_history[-1] > 0.5 * stalled.residual_history[0]
    single = _single_level(monkeypatch, spec, grid)
    assert report.iterations == single.iterations
    assert compare_fields(report.solution, single.solution)[0] <= 1e-10
    np.testing.assert_array_equal(report.solution.values, single.solution.values)


def _kron_laplacian(N, M, d, h):
    nx, ny = N - 1, M - 1
    ex, ey = np.ones(nx), np.ones(ny)
    Lx = sp.diags([ex[:-1], -2.0 * ex, ex[:-1]], [-1, 0, 1]) / d**2
    Ly = sp.diags([ey[:-1], -2.0 * ey, ey[:-1]], [-1, 0, 1]) / h**2
    L = (sp.kron(Lx, sp.eye(ny)) + sp.kron(sp.eye(nx), Ly)).tocsc()
    # kron takes a block format for small dense factors, which stores zeros
    L.eliminate_zeros()
    return L


@pytest.mark.parametrize("N, M", [(2, 2), (2, 5), (3, 3), (20, 8), (25, 25)])
def test_laplacian_matches_kron_reference(N, M):
    d, h = 0.7 / N, 1.3 / M
    lap = oracle._laplacian(N, M, d, h)
    ref = _kron_laplacian(N, M, d, h)
    assert isinstance(lap, sp.csc_matrix) and lap.shape == ref.shape
    assert lap.has_canonical_format
    np.testing.assert_array_equal(lap.indptr, ref.indptr)
    np.testing.assert_array_equal(lap.indices, ref.indices)
    assert lap.data.tobytes() == ref.data.tobytes()
    rows, cols = lap.nonzero()
    assert np.count_nonzero(rows == cols) == (N - 1) * (M - 1)


def _per_step_assembly(A, f, u, *, alpha, beta, threshold, max_newton, stall_steps=None):
    """The oracle's Newton with J assembled afresh on every step."""

    def F(v):
        return A @ v + alpha * v**3 - beta * v - f

    res_hist, step_hist = [], []
    Fu = F(u)
    for it in range(max_newton + 1):
        sup = float(np.max(np.abs(Fu))) if Fu.size else 0.0
        res_hist.append(sup)
        if sup <= threshold:
            return oracle._Run(u, np.array(res_hist), np.array(step_hist), it, None)
        if it == max_newton or (it == stall_steps and sup > 0.5 * res_hist[0]):
            break
        J = (A + sp.diags(3.0 * alpha * u**2 - beta)).tocsc()
        delta = spla.spsolve(J, -Fu, permc_spec=oracle.PERMC_SPEC)
        base = np.linalg.norm(Fu)
        t = 1.0
        while t > 1e-10:
            trial = u + t * delta
            F_trial = F(trial)
            if np.linalg.norm(F_trial) < base:
                break
            t *= 0.5
        else:
            return oracle._Run(u, np.array(res_hist), np.array(step_hist), it + 1, "line search")
        u, Fu = trial, F_trial
        step_hist.append(float(np.max(np.abs(t * delta))))
    return oracle._Run(u, np.array(res_hist), np.array(step_hist), it, "no convergence")


@pytest.mark.parametrize("eps, beta, source", [
    (0.1, 1.0, None), (0.01, 1.0, None), (0.001, 1.0, None),
    (0.01, 30.0, _x_minus_half),  # J indefinite
])
def test_diagonal_update_matches_per_step_assembly(monkeypatch, eps, beta, source):
    grid = LineGrid(UNIT_SQUARE, 32, 32)
    spec = square_problem(eps, beta=beta, **({"source": source} if source else {}))
    report = newton_solve(spec, grid)
    with monkeypatch.context() as m:
        m.setattr(oracle, "_damped_newton", _per_step_assembly)
        ref = newton_solve(spec, grid)
    assert report.coarse_iterations > 0
    assert (report.iterations, report.coarse_iterations) == (ref.iterations, ref.coarse_iterations)
    np.testing.assert_array_equal(report.solution.values, ref.solution.values)
    np.testing.assert_array_equal(report.residual_history, ref.residual_history)
    np.testing.assert_array_equal(report.step_norms, ref.step_norms)


def test_operator_is_built_without_kron_or_diags(monkeypatch, solve_counter):
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle assembled a sparse matrix per step")

    monkeypatch.setattr(sp, "kron", forbidden)
    monkeypatch.setattr(sp, "diags", forbidden)
    grid = LineGrid(UNIT_SQUARE, 32, 32)
    report = newton_solve(square_problem(0.01), grid)
    assert report.coarse_iterations > 0
    assert report.iterations + report.coarse_iterations == len(solve_counter)
