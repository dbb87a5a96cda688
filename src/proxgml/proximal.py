"""Outer proximal fixed-point driver and solution diagnostics.

The backward pass replaces the sum that exact elimination carries,
w_n = a_n*(w_{n-1} + T(u_n)), by b_n*[kap*R(u_{n+1}) + d^2*D_yy u_n], with
R(u) = -alpha*u^3 + beta*u, kap = d^2/eps and T(u) = kap*R(u) + d^2*D_yy u.
The correction E_n = w_n(u0) - b_n*[kap*R(u0_{n+1}) + d^2*D_yy u0_n] adds
the difference back at the anchor u0 (defect correction, Stetter 1978), so
at the fixed point u = u0 the pass is the exact elimination of the
finite-difference system and the proximal term vanishes: the fixed point
solves the original FD system.

w obeys the same recursion as c, and T/kap = R + eps*D_yy, so c_n + E_n
is one c-recursion run on the source g = K*u0 + f + R(u0) + eps*D_yy u0,
minus b_n*[kap*R(u0_{n+1}) + d^2*D_yy u0_n].  One outer cycle builds that
c, runs the backward pass (lines N-1 down to 1), measures the sup-norm
change against the anchor and promotes the result to the new anchor.  At
the zero anchor g = f and the lag term vanishes, so the first cycle is a
plain ``forward_sweep`` + ``backward_pass``.

The line systems depend only on (b_n, d, h_n), so a solve factors them
once (``linebvp.factor_lines``) and every backward pass, in the loop and
in ``backward_pass``, is the same ``linebvp.backward_solve`` on those
factors.

The loop stops once the update drops below ``tol`` and the FD residual is
at most K*tol, when the update is not finite, or after a fixed iteration
count when one is forced; ``SolveReport.stop_reason`` says which.
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
    the anchor (see the module docstring) and then the backward pass.  The
    run counts as converged when the anchor update is at most ``tol`` and
    the FD residual is at most K*tol; the residual is evaluated only once
    the update test holds.  For K = 0 that bound is zero and cannot be
    met, so the update test alone decides.

    ``fixed_iters`` forces exactly that many cycles with no convergence
    test (used to mirror a fixed-iteration reference schedule); the same
    rule then sets the ``converged`` flag of the last cycle.
    Non-convergence within ``max_iter`` is reported, not raised.  A cycle
    whose update is not finite ends the run unconverged at once, with
    ``stop_reason`` "non-finite"; numpy's overflow and invalid-value
    warnings are off during the solve, as that stop reports them.
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

    def residual_sup(u: FieldSolution) -> float:
        return float(np.max(np.abs(_fd_residual(spec, grid, u.values, f, h))))

    def stops(diff: float, u: FieldSolution) -> bool:
        if diff > tol:
            return False
        return residual_bound == 0.0 or residual_sup(u) <= residual_bound

    limit = fixed_iters if fixed_iters is not None else max_iter
    updates = []
    converged = False
    stop_reason = "max_iter" if fixed_iters is None else "fixed_iters"
    u = FieldSolution.zeros(grid)
    for _ in range(limit):
        v = u.values
        react = -spec.alpha * v**3 + spec.beta * v
        d_yy = np.zeros_like(v)
        d_yy[:, 1:-1] = _transverse_second_derivative(h, v)
        c = c_recursion(a, K * v + f + react + spec.epsilon * d_yy, kap)
        c -= b[:, None] * (kap * react[2:] + grid.d**2 * d_yy[1:-1])
        coeffs = SweepCoefficients(a=a, b=b, c=c)
        values = np.zeros_like(v)
        backward_solve(factors, coeffs, kap, spec.alpha, spec.beta, values)
        u = FieldSolution(values)
        diff = float(np.max(np.abs(values - v)))
        updates.append(diff)
        if not math.isfinite(diff):
            stop_reason = "non-finite"
            break
        if fixed_iters is None and stops(diff, u):
            converged = True
            stop_reason = "converged"
            break
    if stop_reason == "fixed_iters":
        converged = stops(updates[-1], u)
    return SolveReport(
        solution=u,
        outer_iterations=len(updates),
        anchor_update_norm=updates[-1],
        residual_sup=residual_sup(u),
        error_estimates=error_estimate(coeffs, u, spec, grid),
        converged=converged,
        update_history=np.array(updates),
        stop_reason=stop_reason,
    )


def _transverse_steps(grid: LineGrid) -> np.ndarray:
    """Physical transverse step h_n of every line n = 0..N (see ``transverse_step``)."""
    lo, hi = grid.per_line_range.T
    return (hi - lo) / grid.m_nodes


def _transverse_second_derivative(h: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """3-point D_yy at interior transverse nodes of ``rows`` with steps ``h``."""
    return (rows[:, 2:] - 2.0 * rows[:, 1:-1] + rows[:, :-2]) / h[:, None] ** 2


def _fd_residual(
    spec: ProblemSpec, grid: LineGrid, v: np.ndarray, f: np.ndarray, h: np.ndarray
) -> np.ndarray:
    d_xx = (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / grid.d**2
    d_yy = _transverse_second_derivative(h[1:-1], v[1:-1])
    mid = v[1:-1, 1:-1]
    return -spec.epsilon * (d_xx + d_yy) + spec.alpha * mid**3 - spec.beta * mid - f[1:-1, 1:-1]


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
    T(u) = (-alpha*u^3 + beta*u)*d^2/eps + u''*d^2, evaluated on interior
    transverse nodes.  This is the part of the sum w_n that the backward
    pass drops when it lags T at line n+1.  ``proximal_iterate`` adds it
    back (with the transverse shift) in every cycle, so at a converged
    field it gives the size of the term the loop adds back, not an error
    left in the returned field.  It shrinks with a and b as K grows.
    """
    kap = grid.d**2 / spec.epsilon
    rows = u.values[1:]
    transverse = _transverse_second_derivative(_transverse_steps(grid)[1:], rows) * grid.d**2
    mid = rows[:, 1:-1]
    T = (-spec.alpha * mid**3 + spec.beta * mid) * kap + transverse
    out = np.empty(grid.n_lines - 1)
    g = np.zeros(mid.shape[1])
    for k in range(grid.n_lines - 1):  # line n = k+1; T[k] is T(u_{k+1}), T[k+1] is T(u_{k+2})
        g = coeffs.a[k] * g + coeffs.b[k] * (T[k] - T[k + 1])
        out[k] = np.max(np.abs(g))
    return out
