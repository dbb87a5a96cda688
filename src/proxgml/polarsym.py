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
over the truncation basis (see ``symalg``).  Everything linear is also
built once per solve: the augmented line operators
G_n = [A_n | 0 | -alpha*b_n*kap*I | s_n] with
A_n = (a_n + b_n*kap*beta)*I + (b_n*d^2/t_n^2)*D^2, and the line sources
s_n = c_n + (anchor_{n+1} - anchor_n)*b_n*d/t_n as an affine map of the
anchor rows, S @ u + s0.  S holds K*C in the columns of lines
1..n_lines-1, with C the c operator (``sweep.c_operator``, kap included),
zeros in those of lines 0 and n_lines, plus the radial weights; s0 is C
applied to f = 1.  C is built once per solve and applied in no cycle, and
a cycle's S @ u costs O(n_lines^2) per basis monomial.
A cycle writes S @ u + s0 into the last column of every G_n (one matmul
and one add).  A row step is then four native calls on views built once:
gather M(u_{n+1}) from row n+1 (``TruncationSpec.mul_gather``), two
products with it that write cube(u_{n+1}) into that row's cube slot, and
u_n = G_n @ row n+1.  The returned polynomials share one compact copy of
the u columns; ``polar_iterate`` runs the cycles through
``sweep.outer_loop``.  A numeric mirror of the scheme (periodic finite
differences in the angle) shares a, b and the c operator, which it
applies every cycle, but has its own backward pass, loop and output
check, so cross-checking it against the polynomials still compares two
implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problem import check_coefficients, integer_count
from .sweep import ab_recursion, c_operator, outer_loop
from .symalg import DEFAULT_TRUNCATION, BoundaryPolynomial, TruncationSpec, poly_eval

__all__ = [
    "PolarSymbolicConfig",
    "CrossCheckReport",
    "PolarReport",
    "polar_iterate",
    "symbolic_solve",
    "polar_numeric_solve",
    "cross_check_numeric",
]


@dataclass(frozen=True)
class PolarSymbolicConfig:
    """Annulus run configuration; defaults reproduce the reference schedule.

    The coefficients obey ``problem.check_coefficients``, as in a
    ``ProblemSpec``; n_lines >= 2 and iters >= 1 are ``integer_count``s."""

    epsilon: float
    n_lines: int = 100
    prox_weight: float = 10.0
    alpha: float = 1.0
    beta: float = 1.0
    iters: int = 149
    trunc: TruncationSpec = DEFAULT_TRUNCATION

    def __post_init__(self):
        for name, minimum in (("n_lines", 2), ("iters", 1)):
            object.__setattr__(self, name, integer_count(name, getattr(self, name), minimum))
        check_coefficients(self)
        if not isinstance(self.trunc, TruncationSpec) or self.trunc.caps[0] < 1:
            raise ValueError(f"trunc must be a TruncationSpec admitting uf, got {self.trunc!r}")

    @property
    def d(self) -> float:
        return 1.0 / self.n_lines

    def radius(self, n: int) -> float:
        """t_n = 1 + n*d, in [1, 2]."""
        return 1.0 + n * self.d


class _BackwardPass:
    """One annulus cycle on memory and operators that each solve builds once.

    Built from ``cfg`` alone, with a and b from ``sweep.ab_recursion``.
    Row n of the work buffer z is [u_n | 0 | cube(u_n) | 1] and the
    line operator G_n = [A_n | 0 | cubic_n*I | s_n], with
    A_n = (a_n + b_n*kap*beta)*I + (b_n*d^2/t_n^2)*D^2 and
    cubic_n = -alpha*b_n*kap, so u_n = G_n @ z_{n+1}.  Only the s column of
    G changes between cycles; the zero slot and the unit column are never
    written, and a row's cube slot is written just before G reads it.

    The line sources s_n = c_n + (b_n*d/t_n)*(anchor_{n+1} - anchor_n) are
    affine in the anchor rows u, so a cycle forms them all as S @ u + s0.
    S is dense, (n_lines-1) x (n_lines+1): K*C in columns 1..n_lines-1, C
    the c operator (``sweep.c_operator``, kap included), plus the radial
    weights +-b_n*d/t_n in columns n+1 and n of row n; s0 is C applied to
    f = 1 on the constant monomial.  The product costs O(n_lines^2 * B) per
    cycle and S takes 8*n_lines^2 bytes (80 KB at 100 lines, 8 MB at 1,000).
    """

    def __init__(self, cfg: PolarSymbolicConfig):
        trunc = cfg.trunc
        a, b = ab_recursion(cfg.prox_weight, cfg.d, cfg.epsilon, cfg.n_lines - 1)
        B = len(trunc.basis)
        kap = cfg.d**2 / cfg.epsilon
        d2 = trunc.diff_matrix @ trunc.diff_matrix
        t = cfg.radius(np.arange(1, cfg.n_lines))
        eye = np.eye(B)
        self.G = np.zeros((cfg.n_lines - 1, B, 2 * B + 2))  # entry k for line k+1
        self.G[:, :, :B] = ((a + b * kap * cfg.beta)[:, None, None] * eye
                            + (b * cfg.d**2 / t**2)[:, None, None] * d2)
        self.G[:, :, B + 1:-1] = (-cfg.alpha * b * kap)[:, None, None] * eye
        C = c_operator(a, kap)
        self.S = np.pad(cfg.prox_weight * C, ((0, 0), (1, 1)))  # no c from lines 0, n_lines
        k, radial = np.arange(cfg.n_lines - 1), b * cfg.d / t  # row k is line k+1
        self.S[k, k + 2] += radial
        self.S[k, k + 1] -= radial
        unit = np.zeros((cfg.n_lines - 1, B))
        unit[:, 0] = 1.0  # f = 1 on the constant monomial, basis[0]
        self.s0 = C @ unit
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

    def __call__(self) -> None:
        """One cycle: s_n from the anchors ``u``, then lines n_lines-1..1 in place."""
        u = self.u
        self.G[:, :, -1] = self.S @ u + self.s0
        u[-1] = self.uf  # after the sources, so the first cycle's anchors are all zero
        gather, M_flat, M_dot, sq = self.gather, self.M.reshape(-1), self.M.dot, self.sq
        for G_dot, z1, take, u1, cube1, u_n in self.steps:
            take(gather, out=M_flat, mode="clip")  # M(u_{n+1})
            M_dot(u1, out=sq)
            M_dot(sq, out=cube1)
            G_dot(z1, out=u_n)


@dataclass(frozen=True)
class PolarReport:
    """Outcome of an annulus run and how it stopped."""

    lines: list[BoundaryPolynomial]  # lines 0..n_lines
    update_history: np.ndarray  # sup-norm change of the coefficient rows in every cycle
    stop_reason: str  # "fixed_iters" or "non-finite"


@np.errstate(over="ignore", invalid="ignore")
def polar_iterate(cfg: PolarSymbolicConfig) -> PolarReport:
    """Run cfg.iters cycles from zero anchors through ``sweep.outer_loop``; lines 0..n_lines.

    Each cycle is one ``_BackwardPass`` on operators built before the first.
    The schedule is fixed and never accelerated, so only an update that
    is not finite ends it early, with that cycle's lines: a diverging solve
    raises no warning and returns inf or NaN coefficients.  The polynomials share one compact
    copy of the solved rows.
    """
    backward = _BackwardPass(cfg)
    updates, stop_reason = outer_loop(backward, backward.u[1:-1], cfg.iters)
    lines = [BoundaryPolynomial.from_coeffs(row, cfg.trunc) for row in backward.u.copy()]
    return PolarReport(lines=lines, update_history=updates, stop_reason=stop_reason)


def symbolic_solve(cfg: PolarSymbolicConfig) -> list[BoundaryPolynomial]:
    """The lines 0..n_lines of ``polar_iterate(cfg)``."""
    return polar_iterate(cfg).lines


def _samples(name: str, values: np.ndarray) -> np.ndarray:
    """``values`` as a float array; rejects an empty, non-1-D or non-finite one."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be a non-empty 1-D array of finite samples")
    return arr


@np.errstate(over="ignore", invalid="ignore")
def polar_numeric_solve(cfg: PolarSymbolicConfig, boundary: np.ndarray) -> np.ndarray:
    """Numeric mirror of the explicit annulus scheme.

    ``boundary`` samples the outer-circle data at uniformly spaced angles;
    the angular second derivative is the periodic 3-point stencil on those
    nodes.  Returns the (n_lines+1, m_theta) field with line 0 zero.
    Raises ValueError on empty or non-finite samples, and ArithmeticError,
    with no warning, on a field that is not finite.  The explicit stencil
    limits the angle count: a pass scales the highest angular mode by
    prod_n |a_n + b_n*kap*beta - 4*b_n*d^2/(t_n*h)^2|, h = 2*pi/m_theta,
    and roundoff in it overflows once that is large.  At eps 0.1, 128
    angles run at 20 lines (160 do not) and 224 at 100 lines (256 do not);
    at eps 0.01 and 100 lines, 384 run (512 do not).
    """
    m8 = cfg.n_lines
    K = cfg.prox_weight
    kap = cfg.d**2 / cfg.epsilon
    boundary = _samples("boundary", boundary)
    mth = boundary.size
    h_th = 2.0 * np.pi / mth
    a, b = ab_recursion(K, cfg.d, cfg.epsilon, m8 - 1)
    C = c_operator(a, kap)
    nxt, prv = np.roll(np.arange(mth), -1), np.roll(np.arange(mth), 1)  # periodic neighbours
    # the anchors u and the field being solved swap every cycle; line 0 of both stays zero
    u, new = np.zeros((m8 + 1, mth)), np.zeros((m8 + 1, mth))
    for _ in range(cfg.iters):
        c = C @ (K * u[1:-1] + 1.0)
        new[m8] = boundary
        for n in range(m8 - 1, 0, -1):
            t = cfg.radius(n)
            un1 = new[n + 1]
            d2 = (un1[nxt] - 2.0 * un1 + un1[prv]) / h_th**2
            new[n] = (
                a[n - 1] * un1
                + b[n - 1] * (-cfg.alpha * un1**3 + cfg.beta * un1) * kap
                + c[n - 1]
                + b[n - 1] * cfg.d**2 * d2 / t**2
                + b[n - 1] * cfg.d * (u[n + 1] - u[n]) / t
            )
        u, new = new, u
    if not np.all(np.isfinite(u)):
        raise ArithmeticError(f"numeric twin not finite with {mth} angles; use fewer angles")
    return u


@dataclass(frozen=True)
class CrossCheckReport:
    """Symbolic-vs-numeric comparison on a sampled boundary function."""

    sup_diff: float
    symbolic_values: np.ndarray = field(repr=False)
    numeric_values: np.ndarray = field(repr=False)


def cross_check_numeric(
    cfg: PolarSymbolicConfig,
    boundary_samples: np.ndarray,
    boundary_second_derivative: np.ndarray,
) -> CrossCheckReport:
    """Solve the line polynomials of ``cfg``, evaluate them on sampled
    boundary data and compare against the numeric explicit solve of ``cfg``.

    ``boundary_second_derivative`` holds the exact d^2/dtheta^2 of the
    boundary function at the same angles (the polynomials consume uf''
    symbolically; the first derivative never survives the caps in the
    final expressions, so it is evaluated at 0).  Raises ValueError on
    empty, non-finite or mismatched samples.
    """
    g = _samples("boundary_samples", boundary_samples)
    g2 = _samples("boundary_second_derivative", boundary_second_derivative)
    if g.shape != g2.shape:
        raise ValueError("boundary sample arrays must have matching shapes")
    sym = np.array([[poly_eval(p, x, 0.0, x2) for x, x2 in zip(g, g2)]
                    for p in symbolic_solve(cfg)[1:cfg.n_lines]])
    num = polar_numeric_solve(cfg, g)[1:cfg.n_lines]
    return CrossCheckReport(sup_diff=float(np.max(np.abs(sym - num))),
                            symbolic_values=sym, numeric_values=num)
