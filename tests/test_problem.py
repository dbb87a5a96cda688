import math
import warnings

import numpy as np
import pytest

from proxgml.oracle import newton_solve
from proxgml.polarsym import PolarSymbolicConfig
from proxgml.problem import (
    CartesianDomain,
    FieldSolution,
    LineGrid,
    ProblemSpec,
    source_values,
)
from proxgml.proximal import proximal_iterate, residual_field

from conftest import UNIT_SQUARE, ones_source, square_problem


def test_grid_spacing_unit_interval():
    grid = LineGrid(UNIT_SQUARE, 100, 100)
    assert grid.d == pytest.approx(0.01, abs=0)
    assert grid.abscissae[50] == pytest.approx(0.5, abs=1e-15)


def test_smallest_legal_grid():
    grid = LineGrid(UNIT_SQUARE, 2, 2)
    np.testing.assert_allclose(grid.abscissae, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(grid.ordinates, [[0.0, 0.5, 1.0]] * 3)


def test_curved_strip_line_range():
    dom = CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1.0 + x)
    grid = LineGrid(dom, 4, 4)
    assert (grid.ordinates[2, 0], grid.ordinates[2, -1]) == (0.0, 1.5)


def test_rejects_small_n_or_m():
    with pytest.raises(ValueError):
        LineGrid(UNIT_SQUARE, 1, 10)
    with pytest.raises(ValueError):
        LineGrid(UNIT_SQUARE, 10, 1)


def test_rejects_degenerate_width():
    pinched = CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1.0 - x)
    with pytest.raises(ValueError, match="degenerate"):
        LineGrid(pinched, 4, 4)


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
        LineGrid(dom, 4, 4)


@pytest.mark.parametrize("y2, line", [
    (lambda x: np.complex128(1 + 0.5j), 0),  # float() would drop 0.5j, giving h = 0.25
    (lambda x: 1.0 + (0.5j if x > 0.5 else 0.0), 3),  # float() raises a bare TypeError
], ids=["numpy", "python"])
def test_rejects_complex_strip_bounds(y2, line):
    dom = CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=y2)
    with pytest.raises(ValueError, match=f"complex strip bound at line {line} "):
        LineGrid(dom, 4, 4)


@pytest.mark.parametrize("y1, y2, line", [
    (lambda x: 0.0, lambda x: np.array([1.0]), 0),  # numpy raised a bare ValueError
    (lambda x: [0.0] if x > 0.5 else 0.0, lambda x: 1.0, 3),
], ids=["array", "list"])
def test_rejects_non_scalar_strip_bounds(y1, y2, line):
    dom = CartesianDomain(a=0.0, b=1.0, y1=y1, y2=y2)
    with pytest.raises(ValueError, match=f"non-scalar strip bound at line {line} "):
        LineGrid(dom, 4, 4)


@pytest.mark.parametrize("N, M", [
    (4.5, 4), (4, 4.0), (True, 4), (4, True), ("4", 4), (np.float64(4), 4),
])
def test_rejects_non_integer_counts(N, M):
    with pytest.raises(ValueError, match="integer"):
        LineGrid(UNIT_SQUARE, N, M)


_SMALL = LineGrid(UNIT_SQUARE, 4, 4)
# every library count argument, each called with the count under test
COUNT_ARGUMENTS = {
    "n_lines": lambda k: PolarSymbolicConfig(epsilon=0.1, n_lines=k),
    "iters": lambda k: PolarSymbolicConfig(epsilon=0.1, iters=k),
    "max_iter": lambda k: proximal_iterate(square_problem(0.1), _SMALL, max_iter=k),
}


# the least legal value of each count
COUNT_MINIMUM = {"n_lines": 2, "iters": 1, "max_iter": 1}


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
    grid = LineGrid(UNIT_SQUARE, np.int64(4), np.int32(3))
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
    grid = LineGrid(UNIT_SQUARE, 10, 100)
    assert grid.h.shape == (11,)
    assert grid.h[3] == pytest.approx(0.01)
    dom = CartesianDomain(a=0.0, b=1.0, y1=lambda x: -1.0, y2=lambda x: 1.0)
    g2 = LineGrid(dom, 4, 4)
    assert g2.h[0] == pytest.approx(0.5)
    g3 = LineGrid(CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1.5), 4, 3)
    assert g3.h[1] == pytest.approx(0.5)


def test_grid_determinism_bit_identical():
    dom = CartesianDomain(a=-0.3, b=1.7, y1=np.sin, y2=lambda x: np.cos(x) + 2.0)
    g1 = LineGrid(dom, 17, 9)
    g2 = LineGrid(dom, 17, 9)
    assert np.array_equal(g1.abscissae, g2.abscissae)
    assert np.array_equal(g1.ordinates, g2.ordinates)
    assert g1.d == g2.d


@pytest.mark.parametrize("y2", [lambda x: 1.0, lambda x: 1.0 + 0.5 * x], ids=["square", "strip"])
def test_grid_derives_its_fields_from_domain_and_counts(y2):
    # the rule written out, as the grid builder and the step and ordinate
    # functions formed it before the grid derived itself; every derived
    # array is read-only
    dom = CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=y2)
    N, M = 17, 9
    d = (dom.b - dom.a) / N
    x = dom.a + d * np.arange(N + 1)
    ranges = np.column_stack([[float(dom.y1(v)) for v in x], [float(dom.y2(v)) for v in x]])
    s = np.arange(M + 1) / M
    want = {"abscissae": x, "h": (ranges[:, 1] - ranges[:, 0]) / M,
            "ordinates": np.array([lo + s * (hi - lo) for lo, hi in ranges])}
    grid = LineGrid(dom, N, M)
    assert (grid.domain, grid.n_lines, grid.m_nodes, grid.d) == (dom, N, M, d)
    for name, value in want.items():
        got = getattr(grid, name)
        assert got.shape == value.shape and got.tobytes() == value.tobytes(), name
        assert not got.flags.writeable, name


@pytest.mark.parametrize("line, h", [(2, 0.0), (1, -0.1), (2, math.nan)],
                         ids=["zero", "negative", "nan"])
def test_grid_rejects_a_line_step_that_is_not_positive(line, h):
    # lines 1 and 2 of a 3-line grid with M = 6: y2 gives line `line` the
    # step h and every other line 0.1
    M = 6
    dom = CartesianDomain(a=0.0, b=0.3, y1=lambda x: 0.0,
                          y2=lambda x: M * (h if round(10 * x) == line else 0.1))
    with pytest.raises(ValueError, match=f"degenerate strip width at line {line}"):
        LineGrid(dom, 3, M)


def test_grid_rejects_a_strip_whose_inverse_squared_step_is_not_finite():
    # on a 1e-170 strip h^2 underflows to 0 and the line matrices divide by
    # it; a 1e-150 strip keeps 1/h^2 near 4e301, so it builds and solves
    def strip(width):
        return CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: width)

    with pytest.raises(ValueError, match=r"degenerate strip width at line 0 .*width 1e-170"):
        LineGrid(strip(1e-170), 6, 6)
    spec = ProblemSpec(epsilon=0.1, alpha=1.0, beta=1.0, source=ones_source, domain=strip(1e-150))
    report = proximal_iterate(spec, LineGrid(spec.domain, 6, 6))
    assert report.converged and np.all(np.isfinite(report.solution.values))


def test_grid_takes_no_derived_field():
    # d and the arrays follow from (domain, N, M): none can be passed or set,
    # and a spacing that underflows to 0 is rejected
    grid = LineGrid(UNIT_SQUARE, 4, 4)
    for name, value in (("d", 0.0), ("h", np.full(5, 0.5)), ("ordinates", np.zeros((5, 5)))):
        with pytest.raises(TypeError):
            LineGrid(UNIT_SQUARE, 4, 4, **{name: value})
        with pytest.raises(AttributeError):
            setattr(grid, name, value)
    for name in ("h", "ordinates"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(grid, name)[0] = 1.0
    tiny = CartesianDomain(a=0.0, b=1e-323, y1=lambda x: 0.0, y2=lambda x: 1.0)
    with pytest.raises(ValueError, match="degenerate line spacing"):
        LineGrid(tiny, 4, 4)


def test_reference_mapping_affine_and_onto():
    dom = CartesianDomain(a=0.0, b=2.0, y1=lambda x: x, y2=lambda x: x + 1.0 + x * x)
    grid = LineGrid(dom, 5, 8)
    for n in range(6):
        y = grid.ordinates[n]
        assert y[0] == pytest.approx(dom.y1(grid.abscissae[n]))
        assert y[-1] == pytest.approx(dom.y2(grid.abscissae[n]))
        np.testing.assert_allclose(np.diff(y), grid.h[n], rtol=1e-12)


# the three library calls that sample the source, at N = M = 8
_SOLVES = [proximal_iterate, newton_solve,
           lambda spec, grid: residual_field(spec, grid, FieldSolution(np.zeros((9, 9))))]
_SOLVE_IDS = ["proximal_iterate", "newton_solve", "residual_field"]


def _reciprocal(shift):
    # 1/shift(x, y) without a warning, so the library's own check sees the inf
    def source(x, y):
        with np.errstate(divide="ignore"):
            return np.divide(1.0, shift(x, np.asarray(y)))
    return source


@pytest.mark.parametrize("shift, node", [
    (lambda x, y: x - 0.5, "line 4, node 1"),
    (lambda x, y: y - 0.5, "line 1, node 4"),
], ids=["x", "y"])
@pytest.mark.parametrize("solve", _SOLVES, ids=_SOLVE_IDS)
def test_source_singular_at_an_interior_node_is_rejected(solve, shift, node):
    # at N = M = 8, line 4 lies on x = 0.5 and node 4 of each line on y = 0.5
    spec = square_problem(0.1, source=_reciprocal(shift))
    grid = LineGrid(UNIT_SQUARE, 8, 8)
    with pytest.raises(ValueError, match=f"source is not finite at {node}:"):
        solve(spec, grid)


@pytest.mark.parametrize("solve", _SOLVES, ids=_SOLVE_IDS)
def test_complex_source_is_rejected(solve):
    # a float cast would drop 1j*y and solve f = 1 with only a ComplexWarning
    spec = square_problem(0.1, source=lambda x, y: 1 + 1j * y)
    with pytest.raises(ValueError, match="source is complex at line 1 "):
        solve(spec, LineGrid(UNIT_SQUARE, 8, 8))


@pytest.mark.parametrize("solve", _SOLVES, ids=_SOLVE_IDS)
def test_object_array_of_complex_numbers_is_rejected(solve):
    # np.iscomplexobj is False for object dtype, and the float cast of the
    # row assignment raised a bare TypeError that named no line
    spec = square_problem(0.1, source=lambda x, y: np.array([1j] * y.size, dtype=object))
    with pytest.raises(ValueError, match=r"source is not real at line 1 \(x=0.125\): .*complex"):
        solve(spec, LineGrid(UNIT_SQUARE, 8, 8))


@pytest.mark.parametrize("domain", [
    CartesianDomain(a=0.0, b=3.0, y1=lambda x: 0.0, y2=lambda x: 2.0),
    CartesianDomain(a=0.0, b=3.0, y1=lambda x: 0.0, y2=lambda x: 1.0),
    CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1.0 + x),
], ids=["wider", "other-abscissae", "other-ordinates"])
@pytest.mark.parametrize("solve", _SOLVES, ids=_SOLVE_IDS)
def test_spec_on_another_domain_is_rejected(solve, domain):
    # a spec on [0, 3] x [0, 2] solved on a unit-square grid once returned the
    # unit square's answer without a word
    spec = ProblemSpec(epsilon=0.1, alpha=1.0, beta=1.0, source=ones_source, domain=domain)
    with pytest.raises(ValueError, match="domain gives other nodes than the grid's"):
        solve(spec, LineGrid(UNIT_SQUARE, 8, 8))


@pytest.mark.parametrize("solve", _SOLVES, ids=_SOLVE_IDS)
def test_spec_on_an_equal_domain_solves(solve):
    # a separately written unit square is not the grid's domain object, but
    # it gives the same nodes, so the answer is the same
    same = CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1.0)
    assert same != UNIT_SQUARE
    grid = LineGrid(UNIT_SQUARE, 8, 8)
    spec = ProblemSpec(epsilon=0.1, alpha=1.0, beta=1.0, source=ones_source, domain=same)
    got, want = (r if isinstance(r, np.ndarray) else r.solution.values
                 for r in (solve(spec, grid), solve(square_problem(0.1), grid)))
    assert np.array_equal(got, want)


def test_source_that_raises_an_arithmetic_error_is_rejected():
    # float(x) - 0.5 is 0.0 on line 4 of N = 8, and Python's 1/0.0 raises
    spec = square_problem(0.1, source=lambda x, y: 1 / (float(x) - 0.5) + 0 * y)
    with pytest.raises(ValueError, match=r"source fails to evaluate at line 4 \(x=0.5\)"):
        source_values(spec, LineGrid(UNIT_SQUARE, 8, 8))


def test_numpy_warnings_of_a_source_become_the_value_error():
    # no errstate of the source's own: its divide warning would otherwise be
    # an error under the suite's filter, before the check could name the node
    spec = square_problem(0.1, source=lambda x, y: 1 / (y - 0.5))
    grid = LineGrid(UNIT_SQUARE, 8, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"not finite at line 1, node 4: inf \(x=0.125, y=0.5\)"):
            source_values(spec, grid)


def test_source_values_are_the_interior_samples_and_zero_on_the_boundary():
    # f(x, y) = 1/y + x is infinite on y = 0, a boundary node that the FD
    # system does not read, so it is never sampled
    dom = CartesianDomain(a=0.0, b=2.0, y1=lambda x: 0.0, y2=lambda x: 1.0 + x * x)
    spec = ProblemSpec(epsilon=0.1, alpha=1.0, beta=1.0, domain=dom,
                       source=lambda x, y: 1.0 / y + x)
    grid = LineGrid(dom, 5, 8)
    f = source_values(spec, grid)
    assert f.shape == (6, 9)
    for edge in (f[0], f[-1], f[:, 0], f[:, -1]):
        assert np.array_equal(edge, np.zeros_like(edge))
    x, y = grid.abscissae[1:-1, None], grid.ordinates[1:-1, 1:-1]
    assert np.array_equal(f[1:-1, 1:-1], 1.0 / y + x)


def test_field_zeros_shape():
    grid = LineGrid(UNIT_SQUARE, 5, 7)
    u = FieldSolution(np.zeros((grid.n_lines + 1, grid.m_nodes + 1)))
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
    grid = LineGrid(UNIT_SQUARE, 6, 6)
    with pytest.raises(ValueError, match="source is not finite"):
        solve(spec, grid)
