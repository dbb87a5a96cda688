"""Symbolic line solutions on the annulus, polynomial in the boundary data.

Lines are the circles r = t_n = 1 + n*d.  The inner circle carries u = 0,
the outer circle the symbol uf (the boundary function of the angle).  The
sweep coefficients a_n, b_n are the same scalars as in the Cartesian
solver and come from ``sweep.ab_recursion`` with q = 2 + K*d^2/eps; c_n
becomes polynomial-valued because the proximal anchor is a polynomial.  The backward pass is fully explicit: the angular second
derivative is taken symbolically on the already-known line n+1 and the
radial first derivative uses the previous outer iterate's anchors, so no
per-line solve is needed.  Each assembled expression is truncated to the
configured caps before moving on.

A numeric mirror of the same explicit scheme (finite differences in the
angle, periodic) provides an independent cross-check of the polynomials.
It computes a and b once and takes its c from ``sweep.c_recursion``; the
polynomial c-recursion and the two backward passes stay separate code, so
the cross-check still compares two implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .sweep import ab_recursion, c_recursion
from .symalg import (
    DEFAULT_TRUNCATION,
    BoundaryPolynomial,
    TruncationSpec,
    poly_add,
    poly_const,
    poly_diff,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_symbol,
    poly_zero,
)

__all__ = [
    "PolarSymbolicConfig",
    "CrossCheckReport",
    "symbolic_sweep",
    "symbolic_backward_pass",
    "symbolic_solve",
    "polar_numeric_solve",
    "cross_check_numeric",
]


@dataclass(frozen=True)
class PolarSymbolicConfig:
    """Annulus run configuration; defaults reproduce the reference schedule."""

    epsilon: float
    n_lines: int = 100
    prox_weight: float = 10.0
    alpha: float = 1.0
    beta: float = 1.0
    iters: int = 149
    trunc: TruncationSpec = DEFAULT_TRUNCATION

    def __post_init__(self):
        params = (self.epsilon, self.prox_weight, self.alpha, self.beta)
        if not all(math.isfinite(x) for x in params):
            raise ValueError("polar configuration parameters must be finite")
        if self.epsilon <= 0.0 or self.prox_weight < 0.0 or self.n_lines < 2 or self.iters < 1:
            raise ValueError("invalid polar configuration")

    @property
    def d(self) -> float:
        return 1.0 / self.n_lines

    def radius(self, n: int) -> float:
        """t_n = 1 + n*d, in [1, 2]."""
        return 1.0 + n * self.d


def symbolic_sweep(
    cfg: PolarSymbolicConfig, anchors: list[BoundaryPolynomial]
) -> tuple[np.ndarray, np.ndarray, list[BoundaryPolynomial]]:
    """Sweep coefficients with polynomial anchors; f is the constant 1.

    ``anchors`` is indexed by line number 0..n_lines (entry 0 unused, the
    inner boundary is fixed at zero).  Returns scalar arrays a, b (entry k
    for line k+1) and the list of polynomials c (same indexing).
    """
    m8 = cfg.n_lines
    if len(anchors) != m8 + 1:
        raise ValueError(f"need {m8 + 1} anchor entries, got {len(anchors)}")
    K = cfg.prox_weight
    kap = cfg.d**2 / cfg.epsilon
    one = poly_const(1.0, cfg.trunc)
    a, b = ab_recursion(2.0 + K * kap, m8 - 1)
    c: list[BoundaryPolynomial] = []
    c.append(poly_scale(poly_add(poly_scale(anchors[1], K), one), a[0] * kap))
    for i in range(2, m8):
        ft = poly_scale(poly_add(poly_scale(anchors[i], K), one), kap)
        c.append(poly_scale(poly_add(c[i - 2], ft), a[i - 1]))
    return a, b, c


def symbolic_backward_pass(
    cfg: PolarSymbolicConfig,
    a: np.ndarray,
    b: np.ndarray,
    c: list[BoundaryPolynomial],
    anchors: list[BoundaryPolynomial],
) -> list[BoundaryPolynomial]:
    """Explicit backward pass; returns lines indexed 0..n_lines.

    Line n_lines is the bare symbol uf, line 0 the zero polynomial.  The
    radial first-derivative term uses the anchors of the previous outer
    iterate, not the lines being built.
    """
    m8 = cfg.n_lines
    kap = cfg.d**2 / cfg.epsilon
    u: list[BoundaryPolynomial] = [poly_zero(cfg.trunc)] * (m8 + 1)
    u[m8] = poly_symbol(0, cfg.trunc)
    for n in range(m8 - 1, 0, -1):
        t = cfg.radius(n)
        un1 = u[n + 1]
        cubic = poly_mul(poly_mul(un1, un1), un1)
        reaction = poly_add(poly_scale(cubic, -cfg.alpha), poly_scale(un1, cfg.beta))
        expr = poly_scale(un1, a[n - 1])
        expr = poly_add(expr, poly_scale(reaction, b[n - 1] * kap))
        expr = poly_add(expr, c[n - 1])
        expr = poly_add(
            expr, poly_scale(poly_diff(poly_diff(un1)), b[n - 1] * cfg.d**2 / t**2)
        )
        radial = poly_add(anchors[n + 1], poly_scale(anchors[n], -1.0))
        expr = poly_add(expr, poly_scale(radial, b[n - 1] * cfg.d / t))
        u[n] = expr
    return u


def symbolic_solve(cfg: PolarSymbolicConfig) -> list[BoundaryPolynomial]:
    """Run exactly cfg.iters sweep+backward cycles from zero anchors.

    Returns the final line polynomials, indexed 0..n_lines.
    """
    m8 = cfg.n_lines
    anchors = [poly_zero(cfg.trunc)] * (m8 + 1)
    u = anchors
    for _ in range(cfg.iters):
        a, b, c = symbolic_sweep(cfg, anchors)
        u = symbolic_backward_pass(cfg, a, b, c, anchors)
        anchors = list(u)
    return u


def polar_numeric_solve(cfg: PolarSymbolicConfig, boundary: np.ndarray) -> np.ndarray:
    """Numeric mirror of the explicit annulus scheme.

    ``boundary`` samples the outer-circle data at uniformly spaced angles;
    the angular second derivative is the periodic 3-point stencil on those
    nodes.  Returns the (n_lines+1, m_theta) field with line 0 zero.
    """
    m8 = cfg.n_lines
    K = cfg.prox_weight
    kap = cfg.d**2 / cfg.epsilon
    boundary = np.asarray(boundary, dtype=float)
    mth = boundary.size
    h_th = 2.0 * np.pi / mth
    a, b = ab_recursion(2.0 + K * kap, m8 - 1)
    uo = np.zeros((m8 + 1, mth))
    u = np.zeros((m8 + 1, mth))
    for _ in range(cfg.iters):
        c = c_recursion(a, K * uo + 1.0, kap)
        u = np.zeros((m8 + 1, mth))
        u[m8] = boundary
        for n in range(m8 - 1, 0, -1):
            t = cfg.radius(n)
            un1 = u[n + 1]
            d2 = (np.roll(un1, -1) - 2.0 * un1 + np.roll(un1, 1)) / h_th**2
            u[n] = (
                a[n - 1] * un1
                + b[n - 1] * (-cfg.alpha * un1**3 + cfg.beta * un1) * kap
                + c[n - 1]
                + b[n - 1] * cfg.d**2 * d2 / t**2
                + b[n - 1] * cfg.d * (uo[n + 1] - uo[n]) / t
            )
        uo = u.copy()
    return u


@dataclass(frozen=True)
class CrossCheckReport:
    """Symbolic-vs-numeric comparison on a sampled boundary function."""

    sup_diff: float
    per_line_sup: np.ndarray  # entry k for line k+1
    symbolic_values: np.ndarray = field(repr=False)
    numeric_values: np.ndarray = field(repr=False)


def cross_check_numeric(
    cfg: PolarSymbolicConfig,
    boundary_samples: np.ndarray,
    boundary_second_derivative: np.ndarray,
    lines: list[BoundaryPolynomial] | None = None,
) -> CrossCheckReport:
    """Evaluate the line polynomials on sampled boundary data and compare
    against the numeric explicit solve with the same configuration.

    ``boundary_second_derivative`` holds the exact d^2/dtheta^2 of the
    boundary function at the same angles (the polynomials consume uf''
    symbolically; the first derivative never survives the caps in the
    final expressions, so it is evaluated at 0).
    """
    g = np.asarray(boundary_samples, dtype=float)
    g2 = np.asarray(boundary_second_derivative, dtype=float)
    if g.shape != g2.shape:
        raise ValueError("boundary sample arrays must have matching shapes")
    if lines is None:
        lines = symbolic_solve(cfg)
    m8 = cfg.n_lines
    sym = np.empty((m8 - 1, g.size))
    for n in range(1, m8):
        p = lines[n]
        sym[n - 1] = [poly_eval(p, g[j], 0.0, g2[j]) for j in range(g.size)]
    num = polar_numeric_solve(cfg, g)[1:m8]
    per_line = np.max(np.abs(sym - num), axis=1)
    return CrossCheckReport(
        sup_diff=float(np.max(per_line)),
        per_line_sup=per_line,
        symbolic_values=sym,
        numeric_values=num,
    )
