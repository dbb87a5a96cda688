import numpy as np
import pytest

from proxgml.problem import FieldSolution, build_cartesian_grid
from proxgml.sweep import ab_recursion, c_operator, forward_sweep

from conftest import UNIT_SQUARE, square_problem, ones_source


def test_a1_b1_unregularized():
    spec = square_problem(0.1, K=0.0)
    grid = build_cartesian_grid(UNIT_SQUARE, 10, 4)
    coeffs = forward_sweep(spec, grid, FieldSolution.zeros(grid))
    assert coeffs.a[0] == pytest.approx(0.5, abs=0)
    assert coeffs.b[0] == pytest.approx(0.5, abs=0)


def test_a1_reference_parameters():
    # K*d^2/eps = 50*1e-4/0.1 = 0.05, so a_1 = 1/2.05
    spec = square_problem(0.1, K=50.0)
    grid = build_cartesian_grid(UNIT_SQUARE, 100, 4)
    coeffs = forward_sweep(spec, grid, FieldSolution.zeros(grid))
    assert coeffs.a[0] == pytest.approx(1.0 / 2.05, rel=1e-15)
    assert coeffs.a[0] == pytest.approx(0.487805, abs=5e-7)


def test_c1_zero_anchor_unit_source():
    spec = square_problem(0.1, K=50.0)
    grid = build_cartesian_grid(UNIT_SQUARE, 100, 4)
    coeffs = forward_sweep(spec, grid, FieldSolution.zeros(grid))
    np.testing.assert_allclose(coeffs.c[0], (1.0 / 2.05) * 0.001, rtol=1e-14)


def test_full_recursion_against_direct_evaluation():
    spec = square_problem(0.05, K=7.0)
    grid = build_cartesian_grid(UNIT_SQUARE, 6, 3)
    rng = np.random.default_rng(3)
    anchor = np.zeros((7, 4))
    anchor[1:-1, 1:-1] = rng.normal(size=(5, 2))
    coeffs = forward_sweep(spec, grid, FieldSolution(anchor))
    q = 2.0 + 7.0 * grid.d**2 / 0.05
    kap = grid.d**2 / 0.05
    a_prev, b_prev = 1.0 / q, 1.0 / q
    c_prev = a_prev * (7.0 * anchor[1] + 1.0) * kap
    assert coeffs.a[0] == a_prev and coeffs.b[0] == b_prev
    np.testing.assert_array_equal(coeffs.c[0], c_prev)
    for n in range(2, 6):
        a_n = 1.0 / (q - a_prev)
        b_n = a_n * (b_prev + 1.0)
        c_n = a_n * (c_prev + (7.0 * anchor[n] + 1.0) * kap)
        assert coeffs.a[n - 1] == pytest.approx(a_n, rel=1e-15)
        assert coeffs.b[n - 1] == pytest.approx(b_n, rel=1e-15)
        np.testing.assert_allclose(coeffs.c[n - 1], c_n, rtol=1e-14)
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


def test_a_b_anchor_independent_bit_exact():
    spec = square_problem(0.1, K=50.0)
    grid = build_cartesian_grid(UNIT_SQUARE, 12, 5)
    rng = np.random.default_rng(0)
    anchor = np.zeros((13, 6))
    anchor[1:-1, 1:-1] = rng.normal(size=(11, 4))
    c0 = forward_sweep(spec, grid, FieldSolution.zeros(grid))
    c1 = forward_sweep(spec, grid, FieldSolution(anchor))
    assert np.array_equal(c0.a, c1.a)
    assert np.array_equal(c0.b, c1.b)


def test_anchor_times_zero_weight_equals_zero_anchor():
    # K multiplies the anchor inside c: zero anchor with any K matches
    # arbitrary anchor with K = 0
    grid = build_cartesian_grid(UNIT_SQUARE, 8, 4)
    rng = np.random.default_rng(5)
    anchor = np.zeros((9, 5))
    anchor[1:-1, 1:-1] = rng.normal(size=(7, 3))
    c_k0 = forward_sweep(square_problem(0.1, K=0.0), grid,
                         FieldSolution(anchor))
    c_zero = forward_sweep(square_problem(0.1, K=0.0), grid, FieldSolution.zeros(grid))
    assert np.array_equal(c_k0.c, c_zero.c)


def test_dimension_mismatch_rejected():
    spec = square_problem(0.1)
    grid = build_cartesian_grid(UNIT_SQUARE, 8, 4)
    other = build_cartesian_grid(UNIT_SQUARE, 9, 4)
    state = FieldSolution.zeros(other)
    with pytest.raises(ValueError):
        forward_sweep(spec, grid, state)


def _loop_c_recursion(a, g, kap):
    # the recursion c_n = a_n*(c_{n-1} + g_n*kap) one line at a time
    c = np.empty((a.size, g.shape[1]))
    c[0] = a[0] * g[1] * kap
    for k in range(1, a.size):
        c[k] = a[k] * (c[k - 1] + g[k + 1] * kap)
    return c


@pytest.mark.parametrize("q", [2.0, 2.05, 1e20])
@pytest.mark.parametrize("size", [1, 31, 32, 33, 70])
def test_blocked_c_recursion_matches_loop(size, q):
    # 70 rows are blocks of 32, 32 and 6; q = 2 (K = 0) gives a_n = n/(n+1),
    # so the carry between blocks dominates; q = 1e20 makes every product of
    # more than 16 a's underflow to 0; q = 2 + K*d^2/eps with d = eps = 1
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
        assert op.blocks[0][-1, 0] == 0.0
