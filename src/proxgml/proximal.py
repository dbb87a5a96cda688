"""Outer proximal fixed-point driver and solution diagnostics.

The FD system is -eps*D_xx u - (R(u) + E(u) + f) = 0 on interior nodes,
with R(u) = -alpha*u^3 + beta*u and E(u) = eps*D_yy u (3-point stencil on
each line's step h_n).  ``_scheme_terms`` is the one definition of R and
E: the outer cycle, the FD residual and ``error_estimate`` take them from
it, so a change to the scheme is made in one place.

The backward pass replaces the sum that exact elimination carries,
w_n = a_n*(w_{n-1} + T(u_n)) with T = kap*(R + E) and kap = d^2/eps, by
b_n*kap*[R(u_{n+1}) + E(u_n)].  Each cycle adds the difference back at the
anchor u0 (defect correction, Stetter 1978), so at the fixed point u = u0
the pass is the exact elimination of the FD system and the fixed point
solves it.  w obeys the same recursion as c, so the corrected c is one
c-recursion on g = K*u0 + f + R(u0) + E(u0), minus
b_n*kap*[R(u0_{n+1}) + E(u0_n)].  At the zero anchor g = f and that lag
term vanishes, so the first cycle is a plain ``forward_sweep`` +
``backward_pass``.

The line systems depend only on (b_n, d, h_n), so a solve factors them
once (``linebvp.factor_lines``) and every backward pass, in the loop and
in ``backward_pass``, is the same ``linebvp.backward_solve`` on those
factors.  A cycle is converged when the update is at most ``tol`` and
the FD residual is at most K*tol; ``SolveReport.stop_reason`` says why
the loop stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linebvp import backward_solve, factor_lines
from .problem import FieldSolution, LineGrid, ProblemSpec, source_values
from .sweep import SweepCoefficients, c_recursion, scalar_coefficients

__all__ = [
    "SolveReport",
    "backward_pass",
    "proximal_iterate",
    "residual_field",
    "residual_norm",
    "error_estimate",
]


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a proximal run plus a-posteriori diagnostics."""

    solution: FieldSolution
    outer_iterations: int
    anchor_update_norm: float
    residual_sup: float
    error_estimates: np.ndarray  # per-line sup|G_n|, n = 1..N-1 (see error_estimate)
    converged: bool
    update_history: np.ndarray  # sup-norm anchor update of every iteration
    stop_reason: str  # "converged", "max_iter", "non-finite" or "fixed_iters"


def backward_pass(
    coeffs: SweepCoefficients,
    spec: ProblemSpec,
    grid: LineGrid,
    u_boundary_N: np.ndarray,
) -> FieldSolution:
    """Solve lines N-1, N-2, ..., 1 and assemble the field.

    Factors the line systems for this one pass; ``proximal_iterate`` runs
    the same ``backward_solve`` on factors it makes once per solve.
    ``u_boundary_N`` is the Dirichlet data on the last line (all zeros for
    the homogeneous problem).
    """
    N, M = grid.n_lines, grid.m_nodes
    values = np.zeros((N + 1, M + 1))
    values[N] = np.asarray(u_boundary_N, dtype=float)
    factors = factor_lines(coeffs.b, grid.d, _transverse_steps(grid)[1:-1], M - 1)
    backward_solve(factors, coeffs, grid.d**2 / spec.epsilon, spec.alpha, spec.beta, values)
    return FieldSolution(values)


@np.errstate(over="ignore", invalid="ignore")
def proximal_iterate(
    spec: ProblemSpec,
    grid: LineGrid,
    tol: float = 1e-8,
    max_iter: int = 5000,
    fixed_iters: int | None = None,
) -> SolveReport:
    """Run the outer proximal loop from a zero anchor.

    a, b, f, the transverse steps and the line factors are computed once
    per solve.  Every cycle runs the c-recursion on the corrected source of
    the anchor (see the module docstring) and then the backward pass.  A
    cycle is converged when the anchor update is at most ``tol`` and the FD
    residual is at most K*tol; the residual is evaluated only once the
    update test holds.  For K = 0 that bound is zero and cannot be met, so
    the update test alone decides.

    ``fixed_iters`` forces exactly that many cycles (used to mirror a
    fixed-iteration reference schedule); ``converged`` then reports the
    same test for the last cycle.  Non-convergence within ``max_iter`` is
    reported, not raised.  A cycle whose update is not finite ends the run
    unconverged at once, with ``stop_reason`` "non-finite"; numpy's
    overflow and invalid-value warnings are off during the solve, as that
    stop reports them.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if fixed_iters is not None and fixed_iters < 1:
        raise ValueError(f"fixed_iters must be >= 1, got {fixed_iters}")
    K = spec.prox_weight
    kap = grid.d**2 / spec.epsilon
    a, b = scalar_coefficients(spec, grid)
    h = _transverse_steps(grid)
    f = source_values(spec, grid)
    factors = factor_lines(b, grid.d, h[1:-1], grid.m_nodes - 1)
    residual_bound = K * tol

    def residual_sup(v: np.ndarray) -> float:
        return float(np.max(np.abs(_fd_residual(spec, grid, v, f, h))))

    updates = []
    stop_reason = "max_iter" if fixed_iters is None else "fixed_iters"
    v = np.zeros((grid.n_lines + 1, grid.m_nodes + 1))
    for _ in range(fixed_iters or max_iter):
        R, E = _scheme_terms(spec, v, h)
        c = c_recursion(a, K * v + f + R + E, kap)
        c -= (b * kap)[:, None] * (R[2:] + E[1:-1])
        coeffs = SweepCoefficients(a=a, b=b, c=c)
        values = np.zeros_like(v)
        backward_solve(factors, coeffs, kap, spec.alpha, spec.beta, values)
        diff = float(np.max(np.abs(values - v)))
        updates.append(diff)
        v = values
        # a non-finite update fails this test too, so the flag is False on that stop
        converged = diff <= tol and (residual_bound == 0.0 or residual_sup(v) <= residual_bound)
        if not math.isfinite(diff):
            stop_reason = "non-finite"
            break
        if converged and fixed_iters is None:
            stop_reason = "converged"
            break
    u = FieldSolution(v)
    return SolveReport(
        solution=u,
        outer_iterations=len(updates),
        anchor_update_norm=updates[-1],
        residual_sup=residual_sup(v),
        error_estimates=error_estimate(coeffs, u, spec, grid),
        converged=converged,
        update_history=np.array(updates),
        stop_reason=stop_reason,
    )


def _transverse_steps(grid: LineGrid) -> np.ndarray:
    """Physical transverse step h_n of every line n = 0..N (see ``transverse_step``)."""
    lo, hi = grid.per_line_range.T
    return (hi - lo) / grid.m_nodes


def _scheme_terms(
    spec: ProblemSpec, v: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The anchor terms R(v) = -alpha*v^3 + beta*v and E(v) = eps*D_yy v of a field.

    ``v`` holds every line, ``h`` the step of each line; D_yy is the 3-point
    stencil, and E is zero on the end columns.  This is the one place the
    scheme's reaction and transverse terms are formed.
    """
    R = -spec.alpha * v**3 + spec.beta * v
    E = np.zeros_like(v)
    E[:, 1:-1] = spec.epsilon * ((v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / h[:, None] ** 2)
    return R, E


def _fd_residual(
    spec: ProblemSpec, grid: LineGrid, v: np.ndarray, f: np.ndarray, h: np.ndarray
) -> np.ndarray:
    R, E = _scheme_terms(spec, v, h)
    d_xx = (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / grid.d**2
    return -spec.epsilon * d_xx - (R + E + f)[1:-1, 1:-1]


def residual_field(spec: ProblemSpec, grid: LineGrid, u: FieldSolution) -> np.ndarray:
    """Unregularized residual at every interior node; shape (N-1, M-1).

    This is the defect of the original finite-difference system (no
    proximal terms): -eps*(D_xx + D_yy)u + alpha*u^3 - beta*u - f.
    """
    return _fd_residual(spec, grid, u.values, source_values(spec, grid), _transverse_steps(grid))


def residual_norm(spec: ProblemSpec, grid: LineGrid, u: FieldSolution) -> float:
    """Sup-norm of the unregularized residual over interior nodes."""
    return float(np.max(np.abs(residual_field(spec, grid, u))))


def error_estimate(
    coeffs: SweepCoefficients, u: FieldSolution, spec: ProblemSpec, grid: LineGrid
) -> np.ndarray:
    """Per-line sup|G_n| of the lagged-sum defect at ``u``.

    G_n = a_n*G_{n-1} + b_n*(T(u_n) - T(u_{n+1})) with G_0 = 0 and
    T = kap*(R + E) from ``_scheme_terms``, evaluated on interior
    transverse nodes.  Since G_n = a_n*(G_{n-1} + (b_n/a_n)*dT_n), this is
    ``c_recursion`` on the source (b_n/a_n)*dT_n.  It is the part of the
    sum w_n that the backward pass drops when it lags T at line n+1.
    ``proximal_iterate`` adds it back (with the transverse shift) in every
    cycle, so at a converged field it gives the size of the term the loop
    adds back, not an error left in the returned field.  It shrinks with a
    and b as K grows.
    """
    R, E = _scheme_terms(spec, u.values, _transverse_steps(grid))
    T = (grid.d**2 / spec.epsilon) * (R + E)[:, 1:-1]
    g = T[:-1] - T[1:]  # row n is T(u_n) - T(u_{n+1}); row 0 is not read
    g[1:] *= (coeffs.b / coeffs.a)[:, None]
    return np.max(np.abs(c_recursion(coeffs.a, g, 1.0)), axis=1)
