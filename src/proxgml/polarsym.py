"""Symbolic line solutions on the annulus, polynomial in the boundary data.

Lines are the circles r = t_n = 1 + n*d.  The inner circle carries u = 0,
the outer circle the symbol uf (the boundary function of the angle).  The
sweep coefficients a_n, b_n are the scalars of the Cartesian solver, from
``sweep.ab_recursion`` with q = 2 + K*d^2/eps; c_n is polynomial-valued
because the proximal anchor is.  The backward pass is fully explicit: the
angular second derivative is taken symbolically on the already-known line
n+1 and the radial first derivative uses the previous outer iterate's
anchors, so no per-line solve is needed.  Every product is truncated to
the configured caps as it is formed.

The solve keeps all lines in one work buffer, allocated once per solve:
row n is [u_n | 0 | cube(u_n) | 1], with u_n the coefficient row of line n
over the truncation basis (see ``symalg``).  Everything linear that does
not depend on the anchors is also built once per solve: the c operator
(``sweep.c_operator``, applied to the u columns coefficient by
coefficient), the radial weights b_n*d/t_n, and the augmented line
operators G_n = [A_n | 0 | -alpha*b_n*kap*I | s_n] with
A_n = (a_n + b_n*kap*beta)*I + (b_n*d^2/t_n^2)*D^2.  A cycle writes
s_n = c_n + (anchor_{n+1} - anchor_n)*b_n*d/t_n into the last column of
every G_n in one array assignment.  A row step is then four native calls
on views built once: gather M(u_{n+1}) from row n+1
(``TruncationSpec.mul_gather``), two products with it that write
cube(u_{n+1}) into that row's cube slot, and u_n = G_n @ row n+1.  The
returned polynomials share one compact copy of the u columns.  A numeric
mirror of the scheme (periodic finite differences in the angle) shares a,
b and the c operator but has its own backward pass, so cross-checking it
against the polynomials still compares two implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import integer_count
from .sweep import COperator, ab_recursion, c_operator
from .symalg import DEFAULT_TRUNCATION, BoundaryPolynomial, TruncationSpec, poly_eval

__all__ = [
    "PolarSymbolicConfig",
    "CrossCheckReport",
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
        for name in ("n_lines", "iters"):
            object.__setattr__(self, name, integer_count(name, getattr(self, name)))
        params = (self.epsilon, self.prox_weight, self.alpha, self.beta)
        if not all(math.isfinite(x) for x in params):
            raise ValueError("polar configuration parameters must be finite")
        if self.epsilon <= 0.0 or self.prox_weight < 0.0 or self.n_lines < 2 or self.iters < 1:
            raise ValueError("invalid polar configuration")
        if not isinstance(self.trunc, TruncationSpec) or self.trunc.caps[0] < 1:
            raise ValueError(f"trunc must be a TruncationSpec admitting uf, got {self.trunc!r}")

    @property
    def d(self) -> float:
        return 1.0 / self.n_lines

    def radius(self, n: int) -> float:
        """t_n = 1 + n*d, in [1, 2]."""
        return 1.0 + n * self.d


def _sweep_rows(cfg: PolarSymbolicConfig, c_op: COperator, anchors: np.ndarray) -> np.ndarray:
    """c for lines 1..n_lines-1 (row k for line k+1) from anchor rows 0..n_lines."""
    g = cfg.prox_weight * anchors
    g[:, 0] += 1.0  # f = 1 on the constant monomial, basis[0]
    return c_op(g, cfg.d**2 / cfg.epsilon)


class _BackwardPass:
    """The explicit backward pass on memory that each solve allocates once.

    Row n of the work buffer z is [u_n | 0 | cube(u_n) | 1] and the
    line operator G_n = [A_n | 0 | cubic_n*I | s_n], with
    A_n = (a_n + b_n*kap*beta)*I + (b_n*d^2/t_n^2)*D^2 and
    cubic_n = -alpha*b_n*kap, so u_n = G_n @ z_{n+1}.  Only the s column of
    G changes between cycles; the zero slot and the unit column are never
    written, and a row's cube slot is written just before G reads it.
    """

    def __init__(self, cfg: PolarSymbolicConfig, a: np.ndarray, b: np.ndarray):
        trunc = cfg.trunc
        B = len(trunc.basis)
        kap = cfg.d**2 / cfg.epsilon
        d2 = trunc.diff_matrix @ trunc.diff_matrix
        t = cfg.radius(np.arange(1, cfg.n_lines))
        eye = np.eye(B)
        self.G = np.zeros((cfg.n_lines - 1, B, 2 * B + 2))  # entry k for line k+1
        self.G[:, :, :B] = ((a + b * kap * cfg.beta)[:, None, None] * eye
                            + (b * cfg.d**2 / t**2)[:, None, None] * d2)
        self.G[:, :, B + 1:-1] = (-cfg.alpha * b * kap)[:, None, None] * eye
        self.radial = b * cfg.d / t
        z = np.zeros((cfg.n_lines + 1, 2 * B + 2))
        z[:, -1] = 1.0
        self.u = z[:, :B]  # the anchors, then the lines; row n is line n
        self.uf = np.zeros(B)  # line n_lines is the bare symbol uf
        self.uf[trunc.basis[(1, 0, 0, 0, 0)]] = 1.0
        self.gather = trunc.mul_gather
        self.M = np.empty((B, B))
        self.sq = np.empty(B)
        # row n from row n+1, n = n_lines-1..1; bound once, not per cycle
        u = self.u
        self.steps = [(G_n.dot, z1, z1.take, u1, cube1, u_n) for G_n, z1, u1, cube1, u_n
                      in zip(self.G[::-1], z[:1:-1], u[:1:-1], z[:1:-1, B + 1:-1], u[-2:0:-1])]

    def __call__(self, c: np.ndarray) -> None:
        """One cycle: s_n from c and the anchors in ``u``, then lines n_lines-1..1 in place."""
        u = self.u
        self.G[:, :, -1] = c + (u[2:] - u[1:-1]) * self.radial[:, None]
        u[-1] = self.uf
        gather, M_flat, M_dot, sq = self.gather, self.M.reshape(-1), self.M.dot, self.sq
        for G_dot, z1, take, u1, cube1, u_n in self.steps:
            take(gather, out=M_flat, mode="clip")  # M(u_{n+1})
            M_dot(u1, out=sq)
            M_dot(sq, out=cube1)
            G_dot(z1, out=u_n)


@np.errstate(over="ignore", invalid="ignore")
def symbolic_solve(cfg: PolarSymbolicConfig) -> list[BoundaryPolynomial]:
    """Run exactly cfg.iters sweep+backward cycles from zero anchors; lines 0..n_lines.

    The c operator, the line operators and the work buffer are built once,
    before the first cycle.  The polynomials share one compact copy of the
    solved rows.  A diverging solve raises no warning: its coefficients
    overflow to inf or NaN and are returned as they are.
    """
    a, b = ab_recursion(cfg.prox_weight, cfg.d, cfg.epsilon, cfg.n_lines - 1)
    c_op, backward = c_operator(a), _BackwardPass(cfg, a, b)
    for _ in range(cfg.iters):
        backward(_sweep_rows(cfg, c_op, backward.u))
    return [BoundaryPolynomial.from_coeffs(row, cfg.trunc) for row in backward.u.copy()]


def _samples(name: str, values: np.ndarray) -> np.ndarray:
    """``values`` as a float array; rejects an empty, non-1-D or non-finite one."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be a non-empty 1-D array of finite samples")
    return arr


def polar_numeric_solve(cfg: PolarSymbolicConfig, boundary: np.ndarray) -> np.ndarray:
    """Numeric mirror of the explicit annulus scheme.

    ``boundary`` samples the outer-circle data at uniformly spaced angles;
    the angular second derivative is the periodic 3-point stencil on those
    nodes.  Returns the (n_lines+1, m_theta) field with line 0 zero.
    Raises ValueError on empty or non-finite samples.
    """
    m8 = cfg.n_lines
    K = cfg.prox_weight
    kap = cfg.d**2 / cfg.epsilon
    boundary = _samples("boundary", boundary)
    mth = boundary.size
    h_th = 2.0 * np.pi / mth
    a, b = ab_recursion(K, cfg.d, cfg.epsilon, m8 - 1)
    c_op = c_operator(a)
    u = np.zeros((m8 + 1, mth))
    for _ in range(cfg.iters):
        c = c_op(K * u + 1.0, kap)
        uo, u = u, np.zeros((m8 + 1, mth))
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
    final expressions, so it is evaluated at 0).  Raises ValueError on
    empty or non-finite samples, and on ``lines`` that are not n_lines+1
    polynomials over cfg.trunc.
    """
    g = _samples("boundary_samples", boundary_samples)
    g2 = _samples("boundary_second_derivative", boundary_second_derivative)
    if g.shape != g2.shape:
        raise ValueError("boundary sample arrays must have matching shapes")
    if lines is None:
        lines = symbolic_solve(cfg)
    elif len(lines) != cfg.n_lines + 1 or any(p.trunc != cfg.trunc for p in lines):
        raise ValueError(f"lines must be {cfg.n_lines + 1} polynomials over {cfg.trunc}")
    sym = np.array([[poly_eval(p, x, 0.0, x2) for x, x2 in zip(g, g2)]
                    for p in lines[1:cfg.n_lines]])
    num = polar_numeric_solve(cfg, g)[1:cfg.n_lines]
    per_line = np.max(np.abs(sym - num), axis=1)
    return CrossCheckReport(sup_diff=float(np.max(per_line)), per_line_sup=per_line,
                            symbolic_values=sym, numeric_values=num)
