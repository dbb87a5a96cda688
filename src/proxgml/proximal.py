"""Outer proximal fixed-point driver and solution diagnostics.

The FD system is -eps*D_xx u - (R(u) + E(u) + f) = 0 on interior nodes,
with R(u) = -alpha*u^3 + beta*u and E(u) = eps*D_yy u (3-point stencil on
each line's step h_n).  ``_scheme_terms`` is the one definition of R and
E: the outer cycle and the FD residual take them from it, so a change to
the scheme is made in one place.

The backward pass replaces the sum that exact elimination carries,
w_n = a_n*(w_{n-1} + T(u_n)) with T = kap*(R + E) and kap = d^2/eps, by
b_n*kap*[R(u_{n+1}) + E(u_n)].  Each cycle adds the difference back at the
anchor u0 (defect correction, Stetter 1978), so at the fixed point u = u0
the pass is the exact elimination of the FD system and the fixed point
solves it.  w obeys the same recursion as c, so the corrected c is one
c-recursion on g = K*u0 + f + R(u0) + E(u0), minus
b_n*kap*[R(u0_{n+1}) + E(u0_n)].  At the zero anchor g = f and that lag
term vanishes, so the first cycle is ``backward_pass`` on the c of f.

The line systems depend only on (b_n, d, h_n), so a solve builds one
``linebvp.BackwardPass``, which factors them and holds the solve's one
field: a cycle writes c, formed from the field, into its c rows, which the
pass solves in place; ``backward_pass`` runs a one-shot pass on a given c.
A cycle is converged when the update is at most ``tol`` and, for K > 0,
the FD residual is at most K*tol.  ``sweep.outer_loop`` runs the cycles,
forms their updates, stops them and names the stop (``stop_reason``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linebvp import BackwardPass
from .problem import (FieldSolution, LineGrid, ProblemSpec, check_tolerance, integer_count,
                      source_values, transverse_steps)
from .sweep import ab_recursion, c_operator, outer_loop

__all__ = [
    "SolveReport",
    "backward_pass",
    "proximal_iterate",
    "residual_field",
    "residual_norm",
]


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a proximal run and how it stopped."""

    solution: FieldSolution
    outer_iterations: int
    anchor_update_norm: float
    residual_sup: float
    converged: bool
    update_history: np.ndarray  # sup-norm anchor update of every iteration
    stop_reason: str  # "converged", "max_iter" or "non-finite"


def backward_pass(
    spec: ProblemSpec,
    grid: LineGrid,
    c: np.ndarray,
    u_boundary_N: np.ndarray,
) -> FieldSolution:
    """Solve lines N-1, N-2, ..., 1 on the sweep coefficients c and assemble the field.

    ``c`` has one row per line 1..N-1 and one column per transverse node,
    of which only the interior ones are read; a and b come from
    ``ab_recursion`` for ``spec`` and ``grid``.  Writes c and
    ``u_boundary_N``, the Dirichlet data on line N (all zeros for the
    homogeneous problem), into the field of a fresh ``BackwardPass`` and
    runs it, so the caller's c is never written.
    """
    N, M = grid.n_lines, grid.m_nodes
    if np.shape(c) != (N - 1, M + 1):
        raise ValueError(f"c must have shape {(N - 1, M + 1)}, got {np.shape(c)}")
    run = BackwardPass(*ab_recursion(spec.prox_weight, grid.d, spec.epsilon, N - 1), spec, grid)
    run.c[:, 1:-1] = np.asarray(c)[:, 1:-1]
    run.u[N] = u_boundary_N
    run()
    return FieldSolution(run.u)


@np.errstate(over="ignore", invalid="ignore")
def proximal_iterate(
    spec: ProblemSpec,
    grid: LineGrid,
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> SolveReport:
    """Run the outer proximal loop from a zero anchor, at most ``max_iter`` cycles.

    a, b, f, the transverse steps, the c operator and the backward pass
    (line factors and field) are built once per solve; a cycle writes the
    corrected c into the field and runs the pass.  The FD residual
    is evaluated only once the update test holds, and the report reuses the
    last cycle's; a field's residual is formed once.  Non-convergence is
    reported, not raised; numpy's overflow and invalid-value warnings are
    off, as the "non-finite" stop reports them.
    """
    check_tolerance(tol)
    integer_count("max_iter", max_iter, 1)
    K = spec.prox_weight
    kap = grid.d**2 / spec.epsilon
    a, b = ab_recursion(K, grid.d, spec.epsilon, grid.n_lines - 1)
    c_op = c_operator(a)
    h = transverse_steps(grid)
    f = source_values(spec, grid)
    f[:, [0, -1]] = 0.0  # read only inside; zero, so c keeps the field's Dirichlet columns 0
    backward = BackwardPass(a, b, spec, grid)
    v = backward.u  # the anchor, which each cycle overwrites with the new field
    b_kap = (b * kap)[:, None]
    residual = None

    def cycle() -> None:
        R, E = _scheme_terms(spec, v, h)
        c = c_op(K * v + f + R + E, kap, out=backward.c)
        c -= b_kap * (R[2:] + E[1:-1])
        backward()

    def residual_sup() -> float:
        return float(np.max(np.abs(_fd_residual(spec, grid, v, f, h))))

    def converged(update: float) -> bool:
        nonlocal residual
        residual = residual_sup() if update <= tol and K > 0.0 else None
        return update <= tol and (residual is None or residual <= K * tol)

    updates, stop_reason = outer_loop(cycle, v, max_iter, converged)
    if stop_reason == "non-finite":  # that cycle was never tested
        residual = None
    return SolveReport(
        solution=FieldSolution(v),
        outer_iterations=len(updates),
        anchor_update_norm=float(updates[-1]),
        residual_sup=residual_sup() if residual is None else residual,
        converged=stop_reason == "converged",
        update_history=updates,
        stop_reason=stop_reason,
    )


def _scheme_terms(
    spec: ProblemSpec, v: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The anchor terms R(v) = -alpha*v^3 + beta*v and E(v) = eps*D_yy v of a field.

    ``v`` holds every line, ``h`` the step of each line; D_yy is the 3-point
    stencil, and E is zero on the end columns.  This is the one place the
    scheme's reaction and transverse terms are formed.
    """
    R = (spec.beta - spec.alpha * v * v) * v
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
    return _fd_residual(spec, grid, u.values, source_values(spec, grid), transverse_steps(grid))


def residual_norm(spec: ProblemSpec, grid: LineGrid, u: FieldSolution) -> float:
    """Sup-norm of the unregularized residual over interior nodes."""
    return float(np.max(np.abs(residual_field(spec, grid, u))))

