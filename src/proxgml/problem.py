"""Problem definition: PDE coefficients, domain geometry and line grids.

The solver works on a family of vertical lines x = x_n.  On curved strips
each line carries its own physical y-range [y1(x_n), y2(x_n)]; all lines
share M+1 reference nodes s_j = j/M in [0, 1], mapped affinely onto the
physical range.  Line-to-line arithmetic always pairs values at matching
reference nodes, so no interpolation is ever needed.  On the rectangle
this is the plain finite-difference scheme.  On a curved strip it is not
yet consistent with the PDE: pairing lines at matching s makes the
x-difference U_xx along curves of constant s, and the scheme drops the
metric terms 2*s_x*U_xs + s_x^2*U_ss + s_xx*U_s of the Laplacian in (x, s),
so a manufactured solution on y2 = 1 + 0.5x keeps a sup error near
4.6e-2 from N = M = 10 to 80.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "transverse_steps",
    "line_ordinates",
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

    ``prox_weight`` is the proximal constant K, by default the paper's
    rectangle setting 50; K = 0 degrades to the unregularized sweep.
    Coefficients: finite, eps > 0, K >= 0 (``check_coefficients``).
    """

    epsilon: float
    alpha: float
    beta: float
    source: Callable[[float, float], float]
    domain: CartesianDomain
    prox_weight: float = 50.0

    def __post_init__(self):
        check_coefficients(self)


@dataclass(frozen=True)
class LineGrid:
    """Line abscissae plus the shared transverse reference nodes.

    abscissae[n] = a + n*d for n = 0..N, d = (b - a)/N.
    per_line_range[n] = (y1(x_n), y2(x_n)).
    """

    n_lines: int
    d: float
    abscissae: np.ndarray
    m_nodes: int
    reference_nodes: np.ndarray
    per_line_range: np.ndarray  # shape (N+1, 2)

    def __post_init__(self):
        for arr in (self.abscissae, self.reference_nodes, self.per_line_range):
            arr.setflags(write=False)


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


def build_cartesian_grid(domain: CartesianDomain, N: int, M: int) -> LineGrid:
    """Partition [a, b] into N equal sub-intervals and each line into M.

    N and M are counts of at least 2 (see ``integer_count``).  Rejects
    degenerate strips: every line must have finite y1(x_n) < y2(x_n).
    """
    N, M = integer_count("N", N, 2), integer_count("M", M, 2)
    d = (domain.b - domain.a) / N
    abscissae = domain.a + d * np.arange(N + 1)
    lo = np.array([float(domain.y1(x)) for x in abscissae])
    hi = np.array([float(domain.y2(x)) for x in abscissae])
    bad = np.nonzero(~(np.isfinite(lo) & np.isfinite(hi) & (hi > lo)))[0]
    if bad.size:
        n = int(bad[0])
        raise ValueError(
            f"degenerate strip width at line {n} (x={abscissae[n]}): "
            f"need finite y1 < y2, got y1={lo[n]}, y2={hi[n]}"
        )
    return LineGrid(
        n_lines=N,
        d=d,
        abscissae=abscissae,
        m_nodes=M,
        reference_nodes=np.arange(M + 1) / M,
        per_line_range=np.column_stack([lo, hi]),
    )


def transverse_steps(grid: LineGrid) -> np.ndarray:
    """Physical transverse step h_n = (y2(x_n) - y1(x_n)) / M of every line n = 0..N."""
    lo, hi = grid.per_line_range.T
    return (hi - lo) / grid.m_nodes


def line_ordinates(grid: LineGrid, n: int) -> np.ndarray:
    """Physical y-coordinates of the M+1 nodes of line n."""
    lo, hi = grid.per_line_range[n]
    return lo + grid.reference_nodes * (hi - lo)


def source_values(spec: ProblemSpec, grid: LineGrid) -> np.ndarray:
    """Sample f pointwise at every grid node; shape (N+1, M+1).

    Raises ValueError if any sampled value is NaN or infinite.
    """
    N, M = grid.n_lines, grid.m_nodes
    out = np.empty((N + 1, M + 1))
    for n in range(N + 1):
        x = grid.abscissae[n]
        y = line_ordinates(grid, n)
        vals = spec.source(x, y)
        out[n] = np.broadcast_to(np.asarray(vals, dtype=float), (M + 1,))
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        n, j = bad[0]
        raise ValueError(f"source is not finite at line {n}, node {j}: {out[n, j]}")
    return out


@dataclass(frozen=True)
class FieldSolution:
    """Per-line solution values; values[n][j] = u_n at reference node s_j."""

    values: np.ndarray  # shape (N+1, M+1)

    def __post_init__(self):
        self.values.setflags(write=False)

    @staticmethod
    def zeros(grid: LineGrid) -> "FieldSolution":
        return FieldSolution(np.zeros((grid.n_lines + 1, grid.m_nodes + 1)))
