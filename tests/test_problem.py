import math

import numpy as np
import pytest

from proxgml.oracle import newton_solve
from proxgml.polarsym import PolarSymbolicConfig
from proxgml.problem import (
    CartesianDomain,
    FieldSolution,
    ProblemSpec,
    build_cartesian_grid,
    line_ordinates,
    transverse_steps,
)
from proxgml.proximal import proximal_iterate

from conftest import UNIT_SQUARE, ones_source, square_problem


def test_grid_spacing_unit_interval():
    grid = build_cartesian_grid(UNIT_SQUARE, 100, 100)
    assert grid.d == pytest.approx(0.01, abs=0)
    assert grid.abscissae[50] == pytest.approx(0.5, abs=1e-15)


def test_smallest_legal_grid():
    grid = build_cartesian_grid(UNIT_SQUARE, 2, 2)
    np.testing.assert_allclose(grid.abscissae, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(grid.reference_nodes, [0.0, 0.5, 1.0])


def test_curved_strip_per_line_range():
    dom = CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1.0 + x)
    grid = build_cartesian_grid(dom, 4, 4)
    assert tuple(grid.per_line_range[2]) == (0.0, 1.5)


def test_rejects_small_n_or_m():
    with pytest.raises(ValueError):
        build_cartesian_grid(UNIT_SQUARE, 1, 10)
    with pytest.raises(ValueError):
        build_cartesian_grid(UNIT_SQUARE, 10, 1)


def test_rejects_degenerate_width():
    pinched = CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1.0 - x)
    with pytest.raises(ValueError, match="degenerate"):
        build_cartesian_grid(pinched, 4, 4)


@pytest.mark.parametrize("a, b", [
    (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan), (-1e308, 1e308),
    (np.float64(-1e308), np.float64(1e308)), (0.0, np.float64(np.inf)),
])
def test_domain_rejects_non_finite_ends(a, b):
    with pytest.raises(ValueError, match="finite"):
        CartesianDomain(a=a, b=b, y1=lambda x: 0.0, y2=lambda x: 1.0)


@pytest.mark.parametrize("y1, y2", [
    (0.0, math.nan), (0.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0),
])
def test_rejects_non_finite_strip_bounds(y1, y2):
    # hi <= lo is False for NaN, so a NaN bound once passed the width test
    dom = CartesianDomain(a=0.0, b=1.0, y1=lambda x: y1, y2=lambda x: y2)
    with pytest.raises(ValueError, match="degenerate"):
        build_cartesian_grid(dom, 4, 4)


@pytest.mark.parametrize("N, M", [
    (4.5, 4), (4, 4.0), (True, 4), (4, True), ("4", 4), (np.float64(4), 4),
])
def test_rejects_non_integer_counts(N, M):
    with pytest.raises(ValueError, match="integer"):
        build_cartesian_grid(UNIT_SQUARE, N, M)


_SMALL = build_cartesian_grid(UNIT_SQUARE, 4, 4)
# every library count argument, each called with the count under test
COUNT_ARGUMENTS = {
    "n_lines": lambda k: PolarSymbolicConfig(epsilon=0.1, n_lines=k),
    "iters": lambda k: PolarSymbolicConfig(epsilon=0.1, iters=k),
    "max_iter": lambda k: proximal_iterate(square_problem(0.1), _SMALL, max_iter=k),
    "max_newton": lambda k: newton_solve(square_problem(0.1), _SMALL, max_newton=k),
}


# the least legal value of each count
COUNT_MINIMUM = {"n_lines": 2, "iters": 1, "max_iter": 1, "max_newton": 1}


@pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(3), "3"],
                         ids=["2.5", "3.0", "True", "float64", "str"])
@pytest.mark.parametrize("name", COUNT_ARGUMENTS)
def test_count_arguments_reject_bools_and_non_integers(name, value):
    # a float count once raised TypeError from inside numpy, and True ran one cycle
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        COUNT_ARGUMENTS[name](value)
    COUNT_ARGUMENTS[name](np.int64(50))


@pytest.mark.parametrize("name", COUNT_ARGUMENTS)
def test_count_arguments_reject_values_below_their_minimum(name):
    for value in (COUNT_MINIMUM[name] - 1, np.int64(-50)):
        with pytest.raises(ValueError, match=f"{name} must be >= {COUNT_MINIMUM[name]}, got"):
            COUNT_ARGUMENTS[name](value)


def test_accepts_numpy_integer_counts():
    grid = build_cartesian_grid(UNIT_SQUARE, np.int64(4), np.int32(3))
    assert (grid.n_lines, grid.m_nodes) == (4, 3)
    assert type(grid.n_lines) is int and type(grid.m_nodes) is int


def test_domain_invariants():
    with pytest.raises(ValueError):
        CartesianDomain(a=1.0, b=0.0, y1=lambda x: 0.0, y2=lambda x: 1.0)
    with pytest.raises(ValueError):
        ProblemSpec(epsilon=0.0, alpha=1, beta=1, source=ones_source,
                    prox_weight=1.0, domain=UNIT_SQUARE)
    with pytest.raises(ValueError):
        ProblemSpec(epsilon=0.1, alpha=1, beta=1, source=ones_source,
                    prox_weight=-1.0, domain=UNIT_SQUARE)


def test_transverse_step():
    grid = build_cartesian_grid(UNIT_SQUARE, 10, 100)
    assert transverse_steps(grid).shape == (11,)
    assert transverse_steps(grid)[3] == pytest.approx(0.01)
    dom = CartesianDomain(a=0.0, b=1.0, y1=lambda x: -1.0, y2=lambda x: 1.0)
    g2 = build_cartesian_grid(dom, 4, 4)
    assert transverse_steps(g2)[0] == pytest.approx(0.5)
    g3 = build_cartesian_grid(
        CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1.5), 4, 3)
    assert transverse_steps(g3)[1] == pytest.approx(0.5)


def test_grid_determinism_bit_identical():
    dom = CartesianDomain(a=-0.3, b=1.7, y1=np.sin, y2=lambda x: np.cos(x) + 2.0)
    g1 = build_cartesian_grid(dom, 17, 9)
    g2 = build_cartesian_grid(dom, 17, 9)
    assert np.array_equal(g1.abscissae, g2.abscissae)
    assert np.array_equal(g1.per_line_range, g2.per_line_range)
    assert g1.d == g2.d


def test_reference_mapping_affine_and_onto():
    dom = CartesianDomain(a=0.0, b=2.0, y1=lambda x: x, y2=lambda x: x + 1.0 + x * x)
    grid = build_cartesian_grid(dom, 5, 8)
    for n in range(6):
        y = line_ordinates(grid, n)
        lo, hi = grid.per_line_range[n]
        assert y[0] == pytest.approx(lo)
        assert y[-1] == pytest.approx(hi)
        np.testing.assert_allclose(np.diff(y), transverse_steps(grid)[n], rtol=1e-12)


def test_field_zeros_shape():
    grid = build_cartesian_grid(UNIT_SQUARE, 5, 7)
    u = FieldSolution.zeros(grid)
    assert u.values.shape == (6, 8)
    assert not u.values.flags.writeable


def test_spec_prox_weight_defaults_to_the_rectangle_setting():
    # the paper's K = 50 on the rectangle, as the annulus schedule holds its 10
    spec = ProblemSpec(epsilon=0.1, alpha=1.0, beta=1.0, source=ones_source, domain=UNIT_SQUARE)
    assert spec.prox_weight == ProblemSpec.prox_weight == 50.0


@pytest.mark.parametrize("field", ["epsilon", "alpha", "beta", "prox_weight"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_spec_rejects_non_finite(field, bad):
    params = dict(epsilon=0.1, alpha=1.0, beta=1.0, prox_weight=50.0)
    params[field] = bad
    with pytest.raises(ValueError, match=field):
        ProblemSpec(source=ones_source, domain=UNIT_SQUARE, **params)
    # the annulus configuration holds the same coefficients under the same rule
    with pytest.raises(ValueError, match=field):
        PolarSymbolicConfig(**params)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("solve", [proximal_iterate, newton_solve])
def test_non_finite_source_rejected(solve, bad):
    spec = ProblemSpec(epsilon=0.1, alpha=1.0, beta=1.0, prox_weight=50.0, domain=UNIT_SQUARE,
                       source=lambda x, y: np.where(np.asarray(y) > 0.5, bad, 1.0))
    grid = build_cartesian_grid(UNIT_SQUARE, 6, 6)
    with pytest.raises(ValueError, match="source is not finite"):
        solve(spec, grid)
