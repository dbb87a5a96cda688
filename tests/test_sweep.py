import math

import numpy as np
import pytest

from proxgml.polarsym import PolarSymbolicConfig, polar_iterate
from proxgml.problem import LineGrid
from proxgml.proximal import proximal_iterate
from proxgml.sweep import ab_recursion, c_operator, outer_loop

from conftest import UNIT_SQUARE, square_problem


def test_a1_b1_unregularized():
    grid = LineGrid(UNIT_SQUARE, 10, 4)
    a, b = ab_recursion(0.0, grid.d, 0.1, grid.n_lines - 1)
    assert a[0] == pytest.approx(0.5, abs=0)
    assert b[0] == pytest.approx(0.5, abs=0)


def test_a1_reference_parameters():
    # K*d^2/eps = 50*1e-4/0.1 = 0.05, so a_1 = 1/2.05
    grid = LineGrid(UNIT_SQUARE, 100, 4)
    a, _ = ab_recursion(50.0, grid.d, 0.1, grid.n_lines - 1)
    assert a[0] == pytest.approx(1.0 / 2.05, rel=1e-15)
    assert a[0] == pytest.approx(0.487805, abs=5e-7)


def test_c1_zero_anchor_unit_source():
    # at the zero anchor the line source is f = 1
    grid = LineGrid(UNIT_SQUARE, 100, 4)
    a, _ = ab_recursion(50.0, grid.d, 0.1, grid.n_lines - 1)
    c = c_operator(a, grid.d**2 / 0.1) @ np.ones((101, 5))[1:-1]
    np.testing.assert_allclose(c[0], (1.0 / 2.05) * 0.001, rtol=1e-14)


def test_full_recursion_against_direct_evaluation():
    eps, K = 0.05, 7.0
    grid = LineGrid(UNIT_SQUARE, 6, 3)
    g = np.random.default_rng(3).normal(size=(7, 4))
    a, b = ab_recursion(K, grid.d, eps, grid.n_lines - 1)
    q = 2.0 + K * grid.d**2 / eps
    kap = grid.d**2 / eps
    c = c_operator(a, kap) @ g[1:-1]
    a_prev, b_prev = 1.0 / q, 1.0 / q
    c_prev = kap * a_prev * g[1]
    assert a[0] == a_prev and b[0] == b_prev
    np.testing.assert_array_equal(c[0], c_prev)
    for n in range(2, 6):
        a_n = 1.0 / (q - a_prev)
        b_n = a_n * (b_prev + 1.0)
        c_n = a_n * (c_prev + g[n] * kap)
        assert a[n - 1] == pytest.approx(a_n, rel=1e-15)
        assert b[n - 1] == pytest.approx(b_n, rel=1e-15)
        np.testing.assert_allclose(c[n - 1], c_n, rtol=1e-14)
        a_prev, b_prev, c_prev = a_n, b_n, c_n


def test_a_monotone_and_bounded_by_fixed_point():
    rng = np.random.default_rng(11)
    for _ in range(20):
        K = rng.uniform(0.0, 200.0)
        eps = 10.0 ** rng.uniform(-3, 0)
        N = int(rng.integers(5, 120))
        spec = square_problem(eps, K=K)
        grid = LineGrid(UNIT_SQUARE, N, 3)
        a, b = ab_recursion(K, grid.d, eps, N - 1)
        q = 2.0 + K * grid.d**2 / eps
        a_star = (q - np.sqrt(q * q - 4.0)) / 2.0
        # strictly increasing until the recursion saturates at its fixed
        # point in double precision
        flat = np.diff(a) == 0.0
        assert np.all((np.diff(a) > 0.0) | (flat & (np.abs(a[1:] - a_star) <= 1e-12)))
        assert np.all(a < a_star + 1e-12)
        assert np.all(a > 0.0) and np.all(a < 1.0)
        assert np.all(b > 0.0) and np.all(np.isfinite(b))


def _loop_c_recursion(a, g, kap):
    # the recursion c_n = a_n*(c_{n-1} + g_n*kap) one line at a time
    c = np.empty((a.size, g.shape[1]))
    c[0] = kap * a[0] * g[1]
    for k in range(1, a.size):
        c[k] = a[k] * (c[k - 1] + g[k + 1] * kap)
    return c


@pytest.mark.parametrize("q", [2.0, 2.05, 1e20])
@pytest.mark.parametrize("size", [1, 31, 32, 33, 70])
def test_c_operator_matches_loop(size, q):
    # one product matrix for 1 to 70 rows; q = 2 (K = 0) gives
    # a_n = n/(n+1), so the products of many a's stay large and rows far
    # apart are coupled; q = 1e20 makes every product of more than 16 a's
    # underflow to 0; q = 2 + K*d^2/eps with d = eps = 1
    a, _ = ab_recursion(q - 2.0, 1.0, 1.0, size)
    g = np.random.default_rng(size).uniform(0.5, 1.5, size=(size + 2, 5))
    kap = 0.037
    want = _loop_c_recursion(a, g, kap)
    C = c_operator(a, kap)
    got = C @ g[1:-1]
    assert got.shape == want.shape
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    if q == 1e20 and size > 16:
        assert C[-1, 0] == 0.0


NEVER = -1.0  # a tol that no update, a sup norm, can meet


def _scripted(updates):
    """A cycle and the zero state it advances: cycle k sets entry k to updates[k].

    Every other entry is unchanged, so the sup change of cycle k is updates[k].
    """
    state = np.zeros(len(updates))
    steps = enumerate(updates)

    def cycle():
        k, update = next(steps)
        state[k] = update

    return cycle, state


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("tol", [None, NEVER])
def test_outer_loop_stops_at_the_first_non_finite_update(bad, tol):
    history, stop = outer_loop(*_scripted([0.5, 0.25, bad, 0.1, 0.0]), 5, tol)
    assert stop == "non-finite"
    np.testing.assert_array_equal(history, [0.5, 0.25, bad])


def test_outer_loop_stops_at_the_first_passing_update():
    history, stop = outer_loop(*_scripted([0.5, 0.1, 0.05]), 10, 0.1)
    assert stop == "converged"
    np.testing.assert_array_equal(history, [0.5, 0.1])


def test_certify_is_asked_only_on_updates_within_tol():
    # the second update within tol is the first whose output certify accepts
    cycle, state = _scripted([0.5, 0.1, 0.3, 0.05, 0.01, 0.0])
    judged = []

    def certify():
        judged.append(state.copy())
        return len(judged) == 2

    history, stop = outer_loop(cycle, state, 10, 0.1, certify)
    assert stop == "converged"
    np.testing.assert_array_equal(history, [0.5, 0.1, 0.3, 0.05])
    np.testing.assert_array_equal(judged, [[0.5, 0.1, 0, 0, 0, 0], [0.5, 0.1, 0.3, 0.05, 0, 0]])


def test_outer_loop_stops_at_the_cap():
    updates = [0.5, 0.4, 0.3, 0.2]
    history, stop = outer_loop(*_scripted(updates), 3, NEVER)
    assert stop == "max_iter"
    np.testing.assert_array_equal(history, updates[:3])
    history, stop = outer_loop(*_scripted(updates), 3)
    assert stop == "fixed_iters"
    np.testing.assert_array_equal(history, updates[:3])


def test_fixed_schedule_runs_past_updates_that_would_pass():
    # without a test every cycle runs, however small its update
    history, stop = outer_loop(*_scripted([0.0] * 4), 4)
    assert (stop, len(history)) == ("fixed_iters", 4)


@pytest.mark.parametrize("cap, tol, stop, cycles", [
    (6, NEVER, "non-finite", 3),
    (6, 0.25, "converged", 2),
    (2, NEVER, "max_iter", 2),
    (2, None, "fixed_iters", 2),
])
def test_outer_loop_leaves_the_last_cycles_values_in_the_state(cap, tol, stop, cycles):
    # the driver forms the update in its own buffer, never in the state
    updates = [0.5, 0.25, np.nan, 0.1, 0.0, 0.0]
    cycle, state = _scripted(updates)
    history, got = outer_loop(cycle, state, cap, tol)
    assert (got, len(history)) == (stop, cycles)
    np.testing.assert_array_equal(state, updates[:cycles] + [0.0] * (len(updates) - cycles))


def test_outer_loop_update_is_the_sup_change_of_the_state():
    # a 3 x 4 state set to each of these fields in turn; the largest change of
    # the second cycle is a decrease, so the update takes absolute values
    fields = np.random.default_rng(4).uniform(-1.0, 1.0, (4, 3, 4))
    fields[2, 1, 2] = fields[1, 1, 2] - 5.0
    state = fields[0].copy()
    steps = iter(fields[1:])

    def cycle():
        state[...] = next(steps)

    history, stop = outer_loop(cycle, state, 3)
    assert stop == "fixed_iters"
    assert history[1] == pytest.approx(5.0)
    np.testing.assert_array_equal(history, np.abs(np.diff(fields, axis=0)).max(axis=(1, 2)))
    np.testing.assert_array_equal(state, fields[-1])


def _linear(rate):
    """A cycle x <- rate*x + b on a zero state, and the states it was called on."""
    b = np.random.default_rng(5).uniform(0.5, 1.0, 6)
    state, seen = np.zeros(b.size), []

    def cycle():
        seen.append(state.copy())
        state[...] = rate * state + b

    return cycle, state, seen, lambda x: rate * x + b


def _plain(T, cycles):
    """The plain iterates x_k = T(x_{k-1}) from zero and their sup updates."""
    x, updates = np.zeros(6), []
    for _ in range(cycles):
        new = T(x)
        updates.append(float(np.max(np.abs(new - x))))
        x = new
    return x, updates


def _polyak(rho, mu_lo=0.0):
    """Polyak's step and momentum for a spectrum of I - J in [1 - rho, (1 - mu_lo)/0.9]."""
    s, t = math.sqrt((1.0 - mu_lo) / 0.9), math.sqrt(1.0 - rho)
    return 4.0 / (s + t) ** 2, ((s - t) / (s + t)) ** 2


def test_fixed_schedule_is_never_relaxed():
    # a falling, aligned contraction that a tested loop would accelerate
    cycle, state, _, T = _linear(0.95)
    history, stop = outer_loop(cycle, state, 12)
    x, updates = _plain(T, 12)
    assert stop == "fixed_iters"
    np.testing.assert_array_equal(history, updates)
    np.testing.assert_array_equal(state, x)


@pytest.mark.parametrize("mu_lo", [None, 0.25], ids=["no-floor", "floor"])
def test_falling_aligned_steps_take_the_heavy_ball_step(mu_lo):
    # four plain ratios of 0.95 arm the rule at the fifth cycle; from then on
    # a cycle moves to x + w*D + beta*(x - x_prev); the floor is read once, at
    # the arming cycle's output, and the last cycle is left plain
    cycle, state, seen, T = _linear(0.95)
    floored = []

    def floor(x):
        floored.append(x.copy())
        return mu_lo

    history, stop = outer_loop(cycle, state, 9, NEVER, floor=None if mu_lo is None else floor)
    assert stop == "max_iter"
    for k in range(4):
        np.testing.assert_array_equal(seen[k + 1], T(seen[k]))
    w, beta = _polyak(0.95, mu_lo or 0.0)
    for k in range(4, 8):
        step = T(seen[k]) - seen[k]
        assert history[k] == np.max(np.abs(step))
        momentum = seen[k] - seen[k - 1]
        np.testing.assert_allclose(seen[k + 1], seen[k] + w * step + beta * momentum, rtol=1e-13)
    np.testing.assert_array_equal(state, T(seen[8]))
    if mu_lo is not None:
        assert len(floored) == 1
        np.testing.assert_array_equal(floored[0], T(seen[4]))
    assert np.all(np.diff(history) < 0.0)


@pytest.mark.parametrize("rate", [-0.9, 1.05, 0.5], ids=["alternating", "growing", "fast"])
def test_alternating_growing_or_fast_steps_run_the_plain_loop(rate):
    # a fast contraction (ratio below 2/3) is left plain too
    cycle, state, _, T = _linear(rate)
    history, stop = outer_loop(cycle, state, 12, NEVER)
    x, updates = _plain(T, 12)
    np.testing.assert_array_equal(history, updates)
    np.testing.assert_array_equal(state, x)


_DIRECTION = np.array([1.0, 0.5, -0.25])


def _moved(sizes, signs=None, floor=None, tol=NEVER, certify=None, mirrored=None):
    """Scripted steps: cycle k adds signs[k]*sizes[k]*_DIRECTION to the state,
    whatever the state, so its update is sizes[k].  Returns the updates and
    the cycles whose output the loop moved on.  Given a list ``mirrored``,
    the loop also gets a mirrored cycle that takes the same step and appends
    its k there."""
    signs = [1.0] * len(sizes) if signs is None else signs
    state, seen = np.zeros(3), []
    steps = iter(zip(signs, sizes))

    def cycle():
        seen.append(state.copy())
        sign, size = next(steps)
        state[...] += sign * size * _DIRECTION

    def mirror():
        mirrored.append(len(seen))
        cycle()

    history, stop = outer_loop(cycle, state, len(sizes), tol, certify, floor,
                               None if mirrored is None else mirror)
    assert stop == "max_iter"
    seen.append(state)
    plain = [seen[k] + sign * size * _DIRECTION for k, (sign, size) in enumerate(zip(signs, sizes))]
    return history, [k for k, x in enumerate(plain) if not np.array_equal(seen[k + 1], x)]


def _sizes(ratios):
    return list(np.cumprod([1.0] + list(ratios)))


def test_only_steps_that_fall_by_a_steady_ratio_are_relaxed():
    # ratios 0.9 (three), 0.6, 0.9 (three), then 0.93: a window of four holds
    # no ratio below 2/3 and no two more than 2% apart only from cycle 11 on,
    # and the last cycle, 12, is never moved
    sizes = _sizes([0.9] * 3 + [0.6] + [0.9] * 3 + [0.93] * 5)
    history, moved = _moved(sizes)
    np.testing.assert_allclose(history, sizes, rtol=1e-14)
    assert moved == [11]


@pytest.mark.parametrize("ratios, signs, moved", [
    ([0.9, 0.9 * 1.015, 0.9, 0.9 * 1.015, 0.9], None, [4]),
    ([0.9, 0.9 * 1.025, 0.9, 0.9 * 1.025, 0.9], None, []),
    ([0.67] * 5, None, [4]),
    ([0.66] * 5, None, []),
    ([0.9] * 7, [1.0] * 4 + [-1.0] + [1.0] * 3, [6]),
], ids=["drift-1.5%", "drift-2.5%", "ratio-0.67", "ratio-0.66", "turned-step"])
def test_the_rule_arms_on_four_steady_ratios_and_an_aligned_step(ratios, signs, moved):
    # the window's ratios must lie in (2/3, 1) and within 2% of each other,
    # and the arming cycle's step must keep the previous step's direction
    assert _moved(_sizes(ratios), signs)[1] == moved


def test_restart_when_the_step_turns_against_the_momentum():
    # armed at cycle 4; cycle 6 steps backwards, so it is plain, and five
    # plain updates later, at cycle 10, the rule arms again
    signs = [1.0] * 6 + [-1.0] + [1.0] * 5
    assert _moved(_sizes([0.9] * 11), signs)[1] == [4, 5, 10]


@pytest.mark.parametrize("growth, moved", [(3.9, [4, 5, 6, 7, 8, 9, 10]), (4.1, [4, 5, 10])],
                         ids=["3.9", "4.1"])
def test_restart_when_an_update_exceeds_four_times_the_smallest(growth, moved):
    # armed at cycle 4; cycle 6's update is growth times cycle 5's, the
    # smallest since arming: past 4 times it, the cycle is plain and the rule
    # re-arms on five new plain updates
    ratios = [0.9] * 5 + [growth] + [0.9] * 5
    assert _moved(_sizes(ratios))[1] == moved


def test_a_certificate_that_fails_within_tol_restarts_the_rule():
    # armed at cycle 4; from cycle 6 on every update is within tol, and the
    # certificate fails on each: cycle 6, armed, is left plain, and the rule
    # re-arms five plain updates later, at cycle 10, and restarts again at 11
    sizes = _sizes([0.9] * 12)
    asked = []

    def certify():
        asked.append(True)
        return False

    history, moved = _moved(sizes, tol=sizes[6] * (1.0 + 1e-12), certify=certify)
    np.testing.assert_allclose(history, sizes, rtol=1e-14)
    assert moved == [4, 5, 10]
    assert len(asked) == 7
    assert _moved(sizes)[1] == list(range(4, 12))


@pytest.mark.parametrize("ratios, signs, moved, mirrored", [
    ([0.9] * 5 + [4.1] + [0.9] * 10, None, [4, 5] + list(range(10, 16)), [11, 13, 15]),
    ([0.9] * 16, None, list(range(4, 16)), []),
    ([0.9] * 5 + [3.9] + [0.9] * 10, None, list(range(4, 16)), []),
    ([0.9] * 16, [1.0] * 6 + [-1.0] + [1.0] * 10, [4, 5] + list(range(10, 16)), []),
], ids=["grew", "never-grew", "grew-3.9", "turned"])
def test_after_a_phase_grows_every_second_armed_cycle_is_mirrored(ratios, signs, moved, mirrored):
    # armed at cycle 4; in the first case cycle 6 grows past 4 times the
    # smallest update since arming, the rule restarts and re-arms at cycle
    # 10, and from then on the armed cycles at odd k run the mirrored cycle
    # in place of the cycle; the heavy-ball moves are those of a run without
    # one.  A run that never grew past 4 times, or whose phase ended on a
    # turn (cycle 6 steps backwards), never mirrors
    got = []
    history, got_moved = _moved(_sizes(ratios), signs, mirrored=got)
    np.testing.assert_allclose(history, _sizes(ratios), rtol=1e-14)
    assert (got_moved, got) == (moved, mirrored)
    assert _moved(_sizes(ratios), signs)[1] == moved


@pytest.mark.parametrize("sizes, moved", [
    ([0.0] * 8, []),
    ([1.0] + [0.0] * 7, []),
    ([1.0, 0.9, 0.81, 0.0, 0.7, 0.63, 0.567, 0.51, 0.459], []),
    ([1.0, 0.9, 0.81, 0.729, 0.6561, 0.0, 0.5, 0.45], [4, 5]),
], ids=["zeros", "one-then-zeros", "zero-in-window", "zero-after-arming"])
def test_zero_updates_are_never_divided_by(sizes, moved):
    # an update of 0 fails the ratio band before a ratio is formed; after
    # arming it leaves the smallest update 0, so the next positive one restarts
    history, got = _moved(sizes)
    np.testing.assert_allclose(history, sizes, rtol=1e-14)
    assert got == moved


def test_a_settled_ratio_above_sqrt_beta_lowers_m():
    # x <- J x + b with a fast mode (0.8) that sets the plain ratios and a
    # slow one (0.99) a thousand times smaller: the rule arms at cycle 4 on
    # rho = 0.8, whose heavy-ball map takes the slow mode at a real root
    # q = 0.979 > 1.05*sqrt(beta) = 0.42; once four ratios of q have settled,
    # m falls to (1 - q)(1 - beta/q)/w, the slow mode's 1 - 0.99, and the
    # moves after it take that m's step and momentum
    J, b = np.array([0.8, 0.99]), np.array([1.0, 1e-3])
    state, seen = np.zeros(2), []

    def cycle():
        seen.append(state.copy())
        state[...] = J * state + b

    outer_loop(cycle, state, 20, NEVER)
    seen.append(state)
    params = []
    for k in range(4, 19):  # solve each move for its (w, beta)
        step = J * seen[k] + b - seen[k]
        A = np.column_stack([step, seen[k] - seen[k - 1]])
        params.append(np.linalg.solve(A, seen[k + 1] - seen[k]))
    lowered = next(i for i, p in enumerate(params) if not np.allclose(p, params[0], rtol=1e-9))
    assert 5 <= lowered < len(params) - 1
    np.testing.assert_allclose(params[:lowered], [_polyak(0.8)] * lowered, rtol=1e-9)
    np.testing.assert_allclose(params[lowered:], [_polyak(0.99)] * (len(params) - lowered),
                               rtol=1e-6)


@pytest.mark.parametrize("cap, tol, stop", [
    (9, NEVER, "max_iter"),
    (50, 0.2, "converged"),
], ids=["max_iter", "converged"])
def test_a_stop_leaves_the_last_cycles_own_output(cap, tol, stop):
    # every cycle from the fifth on but the last is moved here, so only the
    # stop rule keeps the last cycle's output in the state
    cycle, state, seen, T = _linear(0.95)
    history, got = outer_loop(cycle, state, cap, tol)
    assert got == stop and len(history) > 5
    np.testing.assert_array_equal(state, T(seen[-1]))
    assert not np.array_equal(seen[-1], T(seen[-2]))


@pytest.mark.parametrize("K, eps", [(1e308, 1e-10), (-1.0, 1.0)], ids=["overflow", "below-2"])
def test_ab_recursion_rejects_a_q_that_is_not_finite_or_below_2(K, eps):
    # an overflowing q once gave a = b = 0: a rectangle pass that raised only
    # on b, and an annulus solve that returned NaN lines
    with pytest.raises(ValueError, match="finite q"):
        ab_recursion(K, 1.0, eps, 3)


@pytest.mark.parametrize("geometry", ["rectangle", "annulus"])
def test_solves_reject_an_overflowing_q(geometry):
    # at eps = 1e-310, K*d^2/eps overflows on both geometries
    with pytest.raises(ValueError, match="finite q"):
        if geometry == "rectangle":
            proximal_iterate(square_problem(1e-310, K=1.0), LineGrid(UNIT_SQUARE, 4, 4))
        else:
            polar_iterate(PolarSymbolicConfig(epsilon=1e-310, n_lines=4, iters=3))
