import numpy as np
import pytest

from proxgml import proximal
from proxgml.cli import parse_source
from proxgml.linebvp import assemble_line_system, thomas_solve
from proxgml.oracle import compare_fields, newton_solve
from proxgml.problem import (
    CartesianDomain,
    FieldSolution,
    LineGrid,
    ProblemSpec,
    source_values,
)
from proxgml.proximal import backward_pass, proximal_iterate, residual_field
from proxgml.sweep import ab_recursion, c_operator

from conftest import UNIT_SQUARE, ones_source, square_problem, zero_source


def test_homogeneous_problem_is_fixed_at_zero():
    spec = square_problem(0.1, source=zero_source)
    grid = LineGrid(UNIT_SQUARE, 10, 10)
    report = proximal_iterate(spec, grid, tol=1e-8)
    assert report.converged
    assert report.outer_iterations == 1
    np.testing.assert_array_equal(report.solution.values, 0.0)
    assert report.residual_sup == 0.0


def test_backward_pass_zero_coefficients():
    spec = square_problem(0.1, source=zero_source)
    grid = LineGrid(UNIT_SQUARE, 8, 6)
    u = backward_pass(spec, grid, np.zeros((7, 7)), np.zeros(7))
    np.testing.assert_array_equal(u.values, 0.0)


def test_first_pass_interior_positive():
    # f = 1 > 0 and the M-matrix line solves keep every interior value positive
    spec = square_problem(0.1)
    grid = LineGrid(UNIT_SQUARE, 20, 20)
    u = proximal_iterate(spec, grid, max_iter=1).solution
    assert np.min(u.values[1:-1, 1:-1]) > 0.0


def test_backward_pass_matches_hand_unrolled_chain():
    # N = 3: two interior lines; unroll the recursion with explicit solves
    spec = square_problem(0.07, K=11.0, alpha=2.0, beta=0.5)
    grid = LineGrid(UNIT_SQUARE, 3, 6)
    a, b = ab_recursion(spec.prox_weight, grid.d, spec.epsilon, 2)
    c = np.random.default_rng(8).normal(size=(2, 7))
    got = backward_pass(spec, grid, c, np.zeros(7))

    kap = grid.d**2 / spec.epsilon
    h = 1.0 / 6
    # line 2: u_3 = 0, rhs = c_2
    sys2 = assemble_line_system(b[1], grid.d, h, c[1][1:-1])
    u2 = np.zeros(7)
    u2[1:-1] = thomas_solve(sys2)
    # line 1: rhs = a_1 u_2 + b_1 (-alpha u_2^3 + beta u_2) kap + c_1
    rhs1 = (a[0] * u2
            + b[0] * (-spec.alpha * u2**3 + spec.beta * u2) * kap
            + c[0])
    sys1 = assemble_line_system(b[0], grid.d, h, rhs1[1:-1])
    u1 = np.zeros(7)
    u1[1:-1] = thomas_solve(sys1)

    np.testing.assert_allclose(got.values[2], u2, atol=1e-13)
    np.testing.assert_allclose(got.values[1], u1, atol=1e-13)


def test_determinism_bit_identical(run_eps01_n20):
    spec, grid, report = run_eps01_n20
    again = proximal_iterate(spec, grid, tol=1e-8)
    assert np.array_equal(report.solution.values, again.solution.values)
    assert report.outer_iterations == again.outer_iterations
    assert np.array_equal(report.update_history, again.update_history)
    assert report.residual_sup == again.residual_sup


@pytest.mark.parametrize("kwargs", [{}, {"max_iter": 5}, {"max_iter": 50}])
def test_reported_residual_is_that_of_the_returned_field(kwargs):
    # the stop test's residual is reused for the report; it must be the
    # returned field's, on every kind of stop (50 is the cycle before
    # the converged one)
    spec = square_problem(0.1)
    grid = LineGrid(UNIT_SQUARE, 10, 10)
    report = proximal_iterate(spec, grid, **kwargs)
    assert report.residual_sup == np.max(np.abs(residual_field(spec, grid, report.solution)))


def test_updates_eventually_decreasing(run_eps01_n20):
    _, _, report = run_eps01_n20
    tail = report.update_history[-10:]
    assert np.all(np.diff(tail) <= 0.0)


def test_converged_flag_and_tolerance(run_eps01_n20):
    _, _, report = run_eps01_n20
    assert report.converged
    assert report.stop_reason == "converged"
    assert report.update_history[-1] <= 1e-8


def test_non_convergence_reported_not_raised():
    spec = square_problem(0.1)
    grid = LineGrid(UNIT_SQUARE, 10, 10)
    report = proximal_iterate(spec, grid, tol=1e-14, max_iter=3)
    assert not report.converged
    assert report.outer_iterations == 3
    assert report.stop_reason == "max_iter"


@pytest.mark.parametrize("max_iter", [None, 50])
def test_non_finite_update_stops_at_once(max_iter):
    # a finite source of 7.2e23 overflows the cubic term in the first cycle;
    # None runs at the default cap
    spec = square_problem(0.1, source=parse_source("3**50"))
    grid = LineGrid(UNIT_SQUARE, 6, 6)
    report = proximal_iterate(spec, grid, **({} if max_iter is None else {"max_iter": max_iter}))
    assert report.stop_reason == "non-finite"
    assert not report.converged
    assert report.outer_iterations <= 2
    assert not np.isfinite(report.update_history[-1])


def test_residual_zero_field_zero_source():
    spec = square_problem(0.1, source=zero_source)
    grid = LineGrid(UNIT_SQUARE, 6, 6)
    assert np.max(np.abs(residual_field(spec, grid, FieldSolution(np.zeros((7, 7)))))) == 0.0


def test_residual_constant_root_interior():
    # alpha u^3 - beta u = f at the flat root: away from the boundary rows
    # every difference quotient vanishes
    root = 1.3247179572447458  # u^3 - u - 1 = 0
    spec = square_problem(0.05)
    grid = LineGrid(UNIT_SQUARE, 12, 12)
    values = np.full((13, 13), root)
    values[0] = values[-1] = 0.0
    values[:, 0] = values[:, -1] = 0.0
    field = residual_field(spec, grid, FieldSolution(values))
    # rows/cols adjacent to the boundary see the clamped zeros; skip them
    assert np.max(np.abs(field[1:-1, 1:-1])) < 1e-12


def test_capped_run_sets_converged_by_the_same_test():
    # a run capped at max_iter = k reports the convergence test of its last cycle
    spec = square_problem(0.1)
    grid = LineGrid(UNIT_SQUARE, 10, 10)
    reference = proximal_iterate(spec, grid, tol=1e-8)
    k = reference.outer_iterations
    assert k == 51
    at_k = proximal_iterate(spec, grid, tol=1e-8, max_iter=k)
    assert at_k.converged and at_k.stop_reason == "converged"
    assert np.array_equal(at_k.solution.values, reference.solution.values)
    before = proximal_iterate(spec, grid, tol=1e-8, max_iter=k - 1)
    assert not before.converged and before.stop_reason == "max_iter"


def test_capped_run_checks_the_residual(square_grid_20):
    # capped at the first cycle whose update is below tol (57 of 58), the
    # FD residual is still above K*tol, so that cycle is not converged
    spec = square_problem(0.05, source=parse_source("sin(pi*x)*sin(pi*y)"))
    report = proximal_iterate(spec, square_grid_20, tol=1e-8)
    first_small = int(np.argmax(report.update_history <= 1e-8)) + 1
    assert first_small < report.outer_iterations
    early = proximal_iterate(spec, square_grid_20, tol=1e-8, max_iter=first_small)
    assert early.update_history[-1] <= 1e-8
    assert not early.converged and early.stop_reason == "max_iter"


@pytest.mark.parametrize("source, max_iter, stop", [
    ("sin(pi*x)*sin(pi*y)", 5000, "converged"),
    ("sin(pi*x)*sin(pi*y)", 57, "max_iter"),
    ("sin(pi*x)*sin(pi*y)", 20, "max_iter"),
    ("3**50", 5000, "non-finite"),
], ids=["converged", "max_iter-first-small-update", "max_iter-untested", "non-finite"])
def test_fd_residual_formed_once_per_field(monkeypatch, square_grid_20, source, max_iter, stop):
    # the stop test forms the residual of each cycle whose update is at most
    # tol, and the report reuses the last cycle's; max_iter = 57 stops at the
    # first such cycle, whose residual was once formed twice
    spec = square_problem(0.05, source=parse_source(source))
    calls = []
    residual = proximal._fd_residual

    def counted(*args):
        calls.append(1)
        return residual(*args)

    monkeypatch.setattr(proximal, "_fd_residual", counted)
    report = proximal_iterate(spec, square_grid_20, tol=1e-8, max_iter=max_iter)
    assert report.stop_reason == stop
    assert report.converged == (stop == "converged")
    tested = int(np.sum(report.update_history <= 1e-8))
    # a last field that no cycle tested gets its residual formed once, for the report
    assert len(calls) == max(tested, 1)
    monkeypatch.undo()
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.max(np.abs(residual_field(spec, square_grid_20, report.solution)))
    assert np.array_equal(report.residual_sup, expected, equal_nan=True)


def test_fixed_point_consistency_bound(square_grid_20):
    spec = square_problem(0.1)
    report = proximal_iterate(spec, square_grid_20, tol=1e-10, max_iter=20000)
    assert report.converged
    assert report.residual_sup <= spec.prox_weight * report.update_history[-1] + 1e-12


def test_square_solution_symmetry(run_eps01_n20):
    _, _, report = run_eps01_n20
    v = report.solution.values
    assert np.max(np.abs(v - v.T)) <= 5e-3


def test_stop_requires_residual_bound(square_grid_20):
    # with this source and eps the update falls below tol while the FD
    # residual is still above K*tol; the run must go on until both hold
    spec = square_problem(0.05, source=parse_source("sin(pi*x)*sin(pi*y)"))
    report = proximal_iterate(spec, square_grid_20, tol=1e-8)
    assert np.sum(report.update_history <= 1e-8) > 1
    assert report.converged
    assert report.update_history[-1] <= 1e-8
    assert report.residual_sup <= spec.prox_weight * 1e-8


def test_zero_weight_stops_on_update_alone():
    # K = 0 makes the residual bound K*tol zero; the update test decides
    spec = square_problem(0.1, K=0.0)
    grid = LineGrid(UNIT_SQUARE, 10, 10)
    report = proximal_iterate(spec, grid, tol=1e-8)
    assert report.converged
    assert report.update_history[-1] <= 1e-8



CURVED = CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1.0 + 0.5 * x)


def curved_problem(epsilon, source=ones_source):
    return ProblemSpec(epsilon=epsilon, alpha=1.0, beta=1.0, source=source,
                       prox_weight=50.0, domain=CURVED)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-8])
def test_tol_must_be_finite_and_positive(tol):
    spec = square_problem(0.1)
    grid = LineGrid(UNIT_SQUARE, 6, 6)
    with pytest.raises(ValueError, match="tol"):
        proximal_iterate(spec, grid, tol=tol, max_iter=200)


def test_source_sampled_once_per_solve():
    calls = []

    def counting_source(x, y):
        calls.append(x)
        return np.ones_like(np.asarray(y, dtype=float))

    spec = square_problem(0.1, source=counting_source)
    grid = LineGrid(UNIT_SQUARE, 10, 10)
    report = proximal_iterate(spec, grid, max_iter=20)
    assert report.outer_iterations == 20
    # once per interior line, the only lines the FD system reads f on
    assert len(calls) == grid.n_lines - 1 == 9
    assert calls == list(grid.abscissae[1:-1])


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_curved_strip_converges(eps):
    # the transverse step h_n changes from line to line
    spec = curved_problem(eps)
    grid = LineGrid(CURVED, 16, 16)
    report = proximal_iterate(spec, grid, tol=1e-8)
    assert report.converged
    assert report.residual_sup <= spec.prox_weight * 1e-8


def test_first_cycle_is_plain_sweep():
    # at the zero anchor the corrected source is f and the lag term is zero
    spec = curved_problem(0.05, source=parse_source("sin(pi*x)*sin(pi*y)"))
    grid = LineGrid(CURVED, 12, 9)
    report = proximal_iterate(spec, grid, max_iter=1)
    a, _ = ab_recursion(spec.prox_weight, grid.d, spec.epsilon, grid.n_lines - 1)
    c = c_operator(a, grid.d**2 / spec.epsilon) @ source_values(spec, grid)[1:-1]
    plain = backward_pass(spec, grid, c, np.zeros(grid.m_nodes + 1))
    assert np.array_equal(report.solution.values, plain.values)


def test_slow_contraction_converges_under_the_default_cap():
    # f = x - 0.5 at eps 0.001, N = M = 50: the plain loop needs 6,281 cycles,
    # more than the default max_iter of 5,000; the accelerated loop takes 159
    spec = square_problem(0.001, source=lambda x, y: np.full_like(np.asarray(y, dtype=float), x - 0.5))
    grid = LineGrid(UNIT_SQUARE, 50, 50)
    report = proximal_iterate(spec, grid)
    assert report.stop_reason == "converged"
    assert report.residual_sup <= spec.prox_weight * 1e-8
    root = newton_solve(spec, grid)
    assert compare_fields(report.solution, root.solution)[0] <= 1e-5


def test_four_hundred_lines_converge():
    # f = 1, eps 0.1 on N = 400 lines, M = 100: the lagged cycle's complex
    # modes make the heavy-ball phases grow; once one has grown, every second
    # armed cycle runs mirrored and the run converges in 138 cycles
    spec = square_problem(0.1)
    report = proximal_iterate(spec, LineGrid(UNIT_SQUARE, 400, 100), max_iter=400)
    assert report.stop_reason == "converged"
    assert report.residual_sup <= spec.prox_weight * 1e-8


def test_three_hundred_lines_converge_faster_than_the_plain_loop():
    # f = 1, eps 0.1, N = M = 300: the plain loop takes 312 cycles, and the
    # accelerated run, which mirrors after its first growth, takes 116
    spec = square_problem(0.1)
    report = proximal_iterate(spec, LineGrid(UNIT_SQUARE, 300, 300))
    assert report.stop_reason == "converged"
    assert report.outer_iterations < 312
    assert report.residual_sup <= spec.prox_weight * 1e-8


@pytest.mark.parametrize("source, cycles", [("1", 88), ("1 + 0.5*x", 81)])
def test_a_growing_run_on_the_strip_mirrors_its_own_lines(source, cycles):
    # eps 0.1 on y2 = 1 + 0.5x, N = M = 100 grows in its first heavy-ball
    # phase; its mirrored cycles run on the reversed steps and, for the
    # source that varies with x, on the reversed source rows
    spec = curved_problem(0.1, source=parse_source(source))
    report = proximal_iterate(spec, LineGrid(CURVED, 100, 100))
    assert report.stop_reason == "converged"
    assert report.outer_iterations == cycles
    assert report.residual_sup <= spec.prox_weight * 1e-8


def test_manufactured_bistable_case_keeps_its_cycles():
    # u* = 2*sin(pi*x)*sin(pi*y), N = M = 32, eps 0.003, f = -eps*Lap(u*) + u*^3 - u*:
    # mirroring every second armed cycle after the first growth takes 294; a
    # rule that never arms again after its second growth restart takes 2,109
    eps = 0.003

    def source(x, y):
        u = 2.0 * np.sin(np.pi * x) * np.sin(np.pi * y)
        return 2.0 * np.pi**2 * eps * u + u**3 - u

    report = proximal_iterate(square_problem(eps, source=source), LineGrid(UNIT_SQUARE, 32, 32))
    assert report.stop_reason == "converged"
    assert report.outer_iterations == 294


def test_a_failed_certificate_restarts_the_rule(reference_runs_n100):
    # f = 1, eps 0.1, N = M = 100: a cycle whose update is within tol but
    # whose FD residual is not within K*tol restarts the armed rule; the run
    # tests the residual on 3 cycles, from the first update within tol at
    # cycle 61 to the stop at 63
    report = reference_runs_n100[1][0.1][1]
    small = np.flatnonzero(report.update_history <= 1e-8) + 1
    assert report.converged
    assert (small[0], small.size, report.outer_iterations) == (61, 3, 63)


def test_the_mirrored_cycle_is_the_cycle_of_the_reflected_strip():
    # the mirrored pass runs the lines of y2 = 1 + 0.5x from x = 1 back to
    # x = 0, on the reversed steps and source rows: on any field it gives
    # the forward cycle of the strip reflected to y2 = 1.5 - 0.5x, with
    # source f(1 - x, y), on the reversed field
    def source(x, y):
        return (1.0 + x) * np.sin(np.pi * x) * np.sin(np.pi * y)

    reflected = CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1.5 - 0.5 * x)
    spec = curved_problem(0.01, source=source)
    mirror_spec = ProblemSpec(epsilon=0.01, alpha=1.0, beta=1.0, prox_weight=50.0,
                              source=lambda x, y: source(1.0 - x, y), domain=reflected)
    grid, mirror_grid = LineGrid(CURVED, 12, 9), LineGrid(reflected, 12, 9)
    field = np.zeros((13, 10))
    field[1:-1, 1:-1] = np.random.default_rng(3).uniform(0.0, 1.0, (11, 8))
    run, twin = proximal.BackwardPass(spec, grid), proximal.BackwardPass(mirror_spec, mirror_grid)
    run.u[...], twin.u[...] = field, field[::-1]
    proximal._corrected_cycle(spec, run.mirrored(), source_values(spec, grid)[::-1])
    proximal._corrected_cycle(mirror_spec, twin, source_values(mirror_spec, mirror_grid))
    assert not np.allclose(run.u, field)
    np.testing.assert_allclose(run.u[::-1], twin.u, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("n, cycles, binds", [(40, 60, 2), (30, 58, 1)])
def test_a_solve_factors_its_mirror_once(monkeypatch, n, cycles, binds):
    # f = 1, eps 0.1: N = M = 40 grows and mirrors, and every mirrored cycle
    # runs on the one twin, so the lines are factored twice in all; N = M =
    # 30 never mirrors and factors them once
    bind, mirrored = proximal.BackwardPass._bind, proximal.BackwardPass.mirrored
    bound, twins = [], []

    def spy_bind(self, u, h):
        bound.append(self)
        bind(self, u, h)

    def spy_mirrored(self):
        twins.append(mirrored(self))
        return twins[-1]

    monkeypatch.setattr(proximal.BackwardPass, "_bind", spy_bind)
    monkeypatch.setattr(proximal.BackwardPass, "mirrored", spy_mirrored)
    report = proximal_iterate(square_problem(0.1), LineGrid(UNIT_SQUARE, n, n))
    assert (report.stop_reason, report.outer_iterations) == ("converged", cycles)
    assert len(bound) == binds
    assert len(twins) > 1 if binds == 2 else twins == []
    assert all(t is bound[-1] for t in twins)


@pytest.fixture(scope="module")
def cycle_maps_n20():
    """The cycle map and the two-pass map (the cycle, then the mirrored cycle)
    at the FD root of f = 1, eps 0.1, K = 50, N = M = 20, linearised by
    central differences over the 361 unknowns."""
    spec = square_problem(0.1)
    grid = LineGrid(UNIT_SQUARE, 20, 20)
    run, f = proximal.BackwardPass(spec, grid), source_values(spec, grid)
    mirror = run.mirrored()
    root = newton_solve(spec, grid, tol=1e-12).solution.values
    x, step = root[1:-1, 1:-1].ravel(), 1e-6

    def T(x, passes):
        run.u[1:-1, 1:-1] = x.reshape(19, 19)
        for p, g in passes:
            proximal._corrected_cycle(spec, p, g)
        return run.u[1:-1, 1:-1].ravel()

    def linearised(*passes):
        assert np.max(np.abs(T(x, passes) - x)) <= 1e-14
        return np.column_stack([(T(x + step * e, passes) - T(x - step * e, passes)) / (2.0 * step)
                                for e in np.eye(x.size)])

    return linearised((run, f)), linearised((run, f), (mirror, f[::-1]))


def test_the_one_directional_cycle_has_a_complex_spectrum(cycle_maps_n20):
    # the heavy-ball rule assumes a real spectrum; the lagged cycle's has
    # |Im mu| up to 0.140 here, which is why its armed phases can grow
    mu = np.linalg.eigvals(cycle_maps_n20[0])
    assert np.max(np.abs(mu.imag)) >= 0.1
    assert 0.9 < np.max(np.abs(mu)) < 1.0


def test_the_two_pass_map_has_a_real_spectrum_of_radius_rho_squared(cycle_maps_n20):
    # the cycle followed by the mirrored cycle: |Im mu| 1.5e-5 here, and a
    # spectral radius of 0.902105 against the one-pass 0.949791^2 = 0.902103,
    # a gap of 1.7e-6 that stays put for difference steps from 1e-4 to 1e-7
    one, two = (np.linalg.eigvals(J) for J in cycle_maps_n20)
    rho = np.max(np.abs(one))
    assert np.max(np.abs(two.imag)) <= 1e-3
    assert abs(np.max(np.abs(two)) - rho**2) <= 2e-6


@pytest.mark.parametrize("N, f, cycles", [(6, 160, 66), (20, 130, 49)])
def test_relaxation_keeps_moderate_sources_converging(N, f, cycles):
    # near the sources where the loop diverges its early updates swing; a
    # first-order or heavy-ball rule that acted on every falling, aligned
    # step sent both runs non-finite within 15 cycles, while the plain loop
    # converges; the rule never arms here, so the counts are the plain loop's
    spec = square_problem(0.1, source=parse_source(str(f)))
    report = proximal_iterate(spec, LineGrid(UNIT_SQUARE, N, N))
    assert report.stop_reason == "converged"
    assert report.outer_iterations == cycles


@pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
def test_relaxed_linearised_map_is_a_contraction(eps):
    # the cycle map T at the FD root, linearised by central differences over
    # the 81 unknowns of N = M = 10, f = 1; its spectral radius rho is what the
    # observed update ratio estimates.  The heavy-ball rule's step and
    # momentum at rho-hat = rho and the floor at the root make the two-step map
    # [[(1 + beta)I + w(J - I), -beta*I], [I, 0]] a faster contraction than J
    # itself, although the floor bounds the proximal model, not T
    spec = square_problem(eps)
    grid = LineGrid(UNIT_SQUARE, 10, 10)
    run, f = proximal.BackwardPass(spec, grid), source_values(spec, grid)

    def T(x):
        run.u[1:-1, 1:-1] = x.reshape(9, 9)
        proximal._corrected_cycle(spec, run, f)
        return run.u[1:-1, 1:-1].ravel()

    root = newton_solve(spec, grid, tol=1e-12).solution.values
    x, step, eye = root[1:-1, 1:-1].ravel(), 1e-6, np.eye(81)
    assert np.max(np.abs(T(x) - x)) <= 1e-14
    J = np.column_stack([(T(x + step * e) - T(x - step * e)) / (2.0 * step) for e in eye])
    rho = np.max(np.abs(np.linalg.eigvals(J)))
    m, L = 1.0 - rho, (1.0 - proximal._spectral_floor(spec, grid)(root)) / 0.9
    w = 4.0 / (np.sqrt(L) + np.sqrt(m)) ** 2
    beta = ((np.sqrt(L) - np.sqrt(m)) / (np.sqrt(L) + np.sqrt(m))) ** 2
    two_step = np.block([[(1.0 + beta) * eye + w * (J - eye), -beta * eye],
                         [eye, np.zeros_like(eye)]])
    radius = np.max(np.abs(np.linalg.eigvals(two_step)))
    assert 0.9 < rho < 1.0 and w > 3.0
    assert radius < 0.65 * rho


def test_stalled_run_stays_finite():
    # K = 3 at eps 0.001, N = M = 40 stalls: it stops at max_iter after 5,000
    # cycles with or without acceleration.  Its early updates swing (0.45 down
    # to 0.064, then up to 2.9), and a heavy-ball rule that armed on any
    # falling, aligned step and never restarted sent it non-finite at cycle 5
    spec = square_problem(0.001, K=3.0)
    report = proximal_iterate(spec, LineGrid(UNIT_SQUARE, 40, 40), max_iter=300)
    assert report.stop_reason == "max_iter"
    assert np.all(np.isfinite(report.update_history))
    assert np.all(np.isfinite(report.solution.values))
