"""Problem definition: PDE coefficients, domain geometry and line grids.

The solver works on a family of vertical lines x = x_n.  On curved strips
each line carries its own physical y-range [y1(x_n), y2(x_n)]; every line
has M+1 nodes at the fractions s_j = j/M of that range, with step h_n.
Line-to-line arithmetic always pairs values at matching j, so no
interpolation is ever needed.  On the rectangle this is the plain
finite-difference scheme.  On a curved strip it is not yet consistent
with the PDE: pairing lines at matching s makes the x-difference U_xx
along curves of constant s, and the scheme drops the metric terms
2*s_x*U_xs + s_x^2*U_ss + s_xx*U_s of the Laplacian in (x, s), so a
manufactured solution on y2 = 1 + 0.5x keeps a sup error near 4.6e-2
from N = M = 10 to 80.  ``LineGrid`` is the one owner of the line
geometry, which every solver reads from it; ``source_values`` is the one
place a source is sampled and judged, and ``check_coefficients``,
``check_tolerance`` and ``integer_count`` are the input rules that the
solvers share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "CartesianDomain",
    "ProblemSpec",
    "LineGrid",
    "FieldSolution",
    "build_cartesian_grid",
    "check_coefficients", "check_tolerance",
    "integer_count",
    "source_values",
]


@dataclass(frozen=True)
class CartesianDomain:
    """Curvilinear strip  a <= x <= b,  y1(x) <= y <= y2(x)."""

    a: float
    b: float
    y1: Callable[[float], float]
    y2: Callable[[float], float]

    def __post_init__(self):
        # catches a non-finite a or b, and a width b - a that overflows (as
        # Python floats, which overflow to inf without a numpy warning)
        if not math.isfinite(float(self.b) - float(self.a)):
            raise ValueError(f"need finite a, b and b - a, got a={self.a}, b={self.b}")
        if not self.b > self.a:
            raise ValueError(f"need b > a, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class ProblemSpec:
    """Semilinear problem -eps*Lap(u) + alpha*u^3 - beta*u = f with weight K.

    ``source`` is called as source(x_n, y) with one line's abscissa x_n
    and the array y of that line's interior ordinates; it returns a real,
    finite array of y's shape or scalar (``source_values`` checks both).
    ``prox_weight`` is the proximal constant K, by default the paper's
    rectangle setting 50; K = 0 degrades to the unregularized sweep.
    Coefficients: finite, eps > 0, K >= 0 (``check_coefficients``).
    The solvers take the geometry from the grid, and ``source_values``
    rejects a grid whose nodes are not those of ``domain``.
    """

    epsilon: float
    alpha: float
    beta: float
    source: Callable[[float, np.ndarray], np.ndarray | float]
    domain: CartesianDomain
    prox_weight: float = 50.0

    def __post_init__(self):
        check_coefficients(self)


@dataclass(frozen=True)
class LineGrid:
    """N+1 lines of ``domain`` with M+1 nodes each, derived from (domain, N, M).

    d = (b - a)/N, ``abscissae[n]`` = a + n*d and, with y1, y2 at x_n, the
    step ``h[n]`` = (y2 - y1)/M and the node ordinates ``ordinates[n, j]``
    = y1 + (j/M)*(y2 - y1), whose last column is y2 up to rounding, all
    read-only.
    N and M are counts of at least 2 (``integer_count``); d must be
    positive and every line must have real, scalar, finite y1 < y2 and a
    step h_n whose 1/h_n^2, which the line matrices read, is finite.
    """

    domain: CartesianDomain
    n_lines: int
    m_nodes: int
    d: float = field(init=False)
    abscissae: np.ndarray = field(init=False)
    h: np.ndarray = field(init=False)  # shape (N+1,)
    ordinates: np.ndarray = field(init=False)  # shape (N+1, M+1)

    def __post_init__(self):
        domain = self.domain
        N, M = integer_count("N", self.n_lines, 2), integer_count("M", self.m_nodes, 2)
        d = (domain.b - domain.a) / N
        if not d > 0.0:  # b - a underflows when divided by N
            raise ValueError(f"degenerate line spacing d={d} for a={domain.a}, b={domain.b}, N={N}")
        abscissae = domain.a + d * np.arange(N + 1)
        lo, hi = np.empty(N + 1), np.empty(N + 1)
        for n, x in enumerate(abscissae):
            y1, y2 = domain.y1(x), domain.y2(x)
            if np.iscomplexobj(y1) or np.iscomplexobj(y2):
                raise ValueError(f"complex strip bound at line {n} (x={x}): y1={y1}, y2={y2}")
            if np.ndim(y1) or np.ndim(y2):
                raise ValueError(f"non-scalar strip bound at line {n} (x={x}): y1={y1}, y2={y2}")
            lo[n], hi[n] = y1, y2
        bad = np.nonzero(~(np.isfinite(lo) & np.isfinite(hi) & (hi > lo)))[0]
        if bad.size:
            n = int(bad[0])
            raise ValueError(
                f"degenerate strip width at line {n} (x={abscissae[n]}): "
                f"need finite y1 < y2, got y1={lo[n]}, y2={hi[n]}"
            )
        h = (hi - lo) / M
        with np.errstate(divide="ignore", over="ignore"):
            thin = np.nonzero(~np.isfinite(1.0 / (h * h)))[0]
        if thin.size:
            n = int(thin[0])
            raise ValueError(f"degenerate strip width at line {n} (x={abscissae[n]}): width "
                             f"{hi[n] - lo[n]} gives h={h[n]}, whose 1/h^2 is not finite")
        ordinates = lo[:, None] + np.arange(M + 1) / M * (hi - lo)[:, None]
        arrays = abscissae, h, ordinates
        for arr in arrays:
            arr.setflags(write=False)
        for name, value in zip(("n_lines", "m_nodes", "d", "abscissae", "h", "ordinates"),
                               (N, M, d, *arrays)):
            object.__setattr__(self, name, value)


def check_coefficients(run) -> None:
    """Finite eps, alpha, beta and K with eps > 0, K >= 0; a ValueError names the field."""
    for name in ("epsilon", "alpha", "beta", "prox_weight"):
        if not math.isfinite(getattr(run, name)):
            raise ValueError(f"{name} must be finite, got {getattr(run, name)}")
    if not run.epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {run.epsilon}")
    if run.prox_weight < 0.0:
        raise ValueError(f"prox_weight must be >= 0, got {run.prox_weight}")


def check_tolerance(tol) -> None:
    """A stopping tolerance must be finite and positive."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")


def integer_count(name: str, k, minimum: int) -> int:
    """``k`` as an int, the rule of every library count: a bool, any
    non-integer or a value below ``minimum`` raises ValueError naming ``name``."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {k!r}")
    if k < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {k}")
    return int(k)


# a second name for LineGrid, kept only while the benchmark calls it
build_cartesian_grid = LineGrid


def source_values(spec: ProblemSpec, grid: LineGrid) -> np.ndarray:
    """f at the interior nodes, the only ones the FD system reads; shape (N+1, M+1).

    The source is called once per interior line n = 1..N-1 on that line's
    interior ordinates, so it may be singular on the boundary; the
    boundary rows and columns are 0.  A ValueError rejects a spec whose
    domain is not the grid's and gives other nodes.  Numpy's warnings are
    silenced while sampling; a ValueError names the line and x of a source
    that raises an ArithmeticError, returns a complex array or returns
    values that float() rejects (an object array of complex numbers), and
    the line, node, x and y of the first value that is NaN or infinite.
    """
    if spec.domain != grid.domain:
        own = LineGrid(spec.domain, grid.n_lines, grid.m_nodes)
        if not (np.array_equal(own.abscissae, grid.abscissae)
                and np.array_equal(own.ordinates, grid.ordinates)):
            raise ValueError("the spec's domain gives other nodes than the grid's")
    out = np.zeros_like(grid.ordinates)
    with np.errstate(all="ignore"):
        for n in range(1, grid.n_lines):
            x = grid.abscissae[n]
            try:
                vals = spec.source(x, grid.ordinates[n, 1:-1])
            except ArithmeticError as exc:
                raise ValueError(f"source fails to evaluate at line {n} (x={x}): {exc}") from None
            if np.iscomplexobj(vals):
                raise ValueError(f"source is complex at line {n} (x={x})")
            try:
                out[n, 1:-1] = vals
            except TypeError as exc:  # an object array of complex numbers, say
                raise ValueError(f"source is not real at line {n} (x={x}): {exc}") from None
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        n, j = bad[0]
        raise ValueError(f"source is not finite at line {n}, node {j}: {out[n, j]} "
                         f"(x={grid.abscissae[n]}, y={grid.ordinates[n, j]})")
    return out


@dataclass(frozen=True)
class FieldSolution:
    """Per-line solution values; values[n][j] = u_n at ``grid.ordinates[n, j]``."""

    values: np.ndarray  # shape (N+1, M+1)

    def __post_init__(self):
        self.values.setflags(write=False)
