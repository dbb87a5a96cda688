import numpy as np
import pytest

from proxgml.problem import build_cartesian_grid
from proxgml.sweep import ab_recursion, c_operator, outer_loop

from conftest import UNIT_SQUARE, square_problem, ones_source


def test_a1_b1_unregularized():
    grid = build_cartesian_grid(UNIT_SQUARE, 10, 4)
    a, b = ab_recursion(0.0, grid.d, 0.1, grid.n_lines - 1)
    assert a[0] == pytest.approx(0.5, abs=0)
    assert b[0] == pytest.approx(0.5, abs=0)


def test_a1_reference_parameters():
    # K*d^2/eps = 50*1e-4/0.1 = 0.05, so a_1 = 1/2.05
    grid = build_cartesian_grid(UNIT_SQUARE, 100, 4)
    a, _ = ab_recursion(50.0, grid.d, 0.1, grid.n_lines - 1)
    assert a[0] == pytest.approx(1.0 / 2.05, rel=1e-15)
    assert a[0] == pytest.approx(0.487805, abs=5e-7)


def test_c1_zero_anchor_unit_source():
    # at the zero anchor the line source is f = 1
    grid = build_cartesian_grid(UNIT_SQUARE, 100, 4)
    a, _ = ab_recursion(50.0, grid.d, 0.1, grid.n_lines - 1)
    c = c_operator(a)(np.ones((101, 5)), grid.d**2 / 0.1)
    np.testing.assert_allclose(c[0], (1.0 / 2.05) * 0.001, rtol=1e-14)


def test_full_recursion_against_direct_evaluation():
    eps, K = 0.05, 7.0
    grid = build_cartesian_grid(UNIT_SQUARE, 6, 3)
    g = np.random.default_rng(3).normal(size=(7, 4))
    a, b = ab_recursion(K, grid.d, eps, grid.n_lines - 1)
    q = 2.0 + K * grid.d**2 / eps
    kap = grid.d**2 / eps
    c = c_operator(a)(g, kap)
    a_prev, b_prev = 1.0 / q, 1.0 / q
    c_prev = a_prev * g[1] * kap
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
        grid = build_cartesian_grid(UNIT_SQUARE, N, 3)
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
    c[0] = a[0] * g[1] * kap
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
    op = c_operator(a)
    got = op(g, kap)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    # the operator keeps no state between calls
    np.testing.assert_array_equal(op(g, kap), got)
    if q == 1e20 and size > 16:
        assert op.L[-1, 0] == 0.0


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
@pytest.mark.parametrize("converged", [None, lambda update: False])
def test_outer_loop_stops_at_the_first_non_finite_update(bad, converged):
    history, stop = outer_loop(*_scripted([0.5, 0.25, bad, 0.1, 0.0]), 5, converged)
    assert stop == "non-finite"
    np.testing.assert_array_equal(history, [0.5, 0.25, bad])


def test_outer_loop_stops_at_the_first_passing_update():
    judged = []

    def converged(update):
        judged.append(update)
        return update <= 0.1

    history, stop = outer_loop(*_scripted([0.5, 0.1, 0.05]), 10, converged)
    assert stop == "converged"
    np.testing.assert_array_equal(history, [0.5, 0.1])
    assert judged == [0.5, 0.1]


def test_outer_loop_stops_at_the_cap():
    updates = [0.5, 0.4, 0.3, 0.2]
    history, stop = outer_loop(*_scripted(updates), 3, lambda update: False)
    assert stop == "max_iter"
    np.testing.assert_array_equal(history, updates[:3])
    history, stop = outer_loop(*_scripted(updates), 3)
    assert stop == "fixed_iters"
    np.testing.assert_array_equal(history, updates[:3])


def test_fixed_schedule_runs_past_updates_that_would_pass():
    # without a test every cycle runs, however small its update
    history, stop = outer_loop(*_scripted([0.0] * 4), 4)
    assert (stop, len(history)) == ("fixed_iters", 4)


@pytest.mark.parametrize("cap, converged, stop, cycles", [
    (6, lambda update: False, "non-finite", 3),
    (6, lambda update: update <= 0.25, "converged", 2),
    (2, lambda update: False, "max_iter", 2),
    (2, None, "fixed_iters", 2),
])
def test_outer_loop_leaves_the_last_cycles_values_in_the_state(cap, converged, stop, cycles):
    # the driver forms the update in its own buffer, never in the state
    updates = [0.5, 0.25, np.nan, 0.1, 0.0, 0.0]
    cycle, state = _scripted(updates)
    history, got = outer_loop(cycle, state, cap, converged)
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
