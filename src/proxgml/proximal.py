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
term vanishes, so the first cycle is a plain ``forward_sweep`` +
``backward_pass``.

The line systems depend only on (b_n, d, h_n), so a solve builds one
``linebvp.BackwardPass``, which factors them, and every cycle writes into
its c buffer; ``backward_pass`` builds and runs a one-shot pass.  A cycle
is converged when the update is at most ``tol`` and the FD residual is at
most K*tol; ``SolveReport.stop_reason`` says why the loop stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linebvp import BackwardPass
from .problem import (FieldSolution, LineGrid, ProblemSpec, integer_count, source_values,
                      transverse_steps)
from .sweep import SweepCoefficients, ab_recursion, c_operator

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
    stop_reason: str  # "converged", "max_iter", "non-finite" or "fixed_iters"


def backward_pass(
    coeffs: SweepCoefficients,
    spec: ProblemSpec,
    grid: LineGrid,
    u_boundary_N: np.ndarray,
) -> FieldSolution:
    """Solve lines N-1, N-2, ..., 1 and assemble the field.

    Builds a ``BackwardPass`` (which factors the line systems) for this one
    pass, copies c into its buffer, so ``coeffs`` is never written, and
    runs it; ``proximal_iterate`` builds one pass per solve and runs it in
    every cycle.  ``u_boundary_N`` is the Dirichlet data on the last line
    (all zeros for the homogeneous problem).
    """
    N, M = grid.n_lines, grid.m_nodes
    values = np.zeros((N + 1, M + 1))
    values[N] = np.asarray(u_boundary_N, dtype=float)
    run = BackwardPass(coeffs.a, coeffs.b, spec, grid)
    run.c[...] = coeffs.c
    run.boundary[...] = values[N, 1:-1]
    run(values)
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

    a, b, f, the transverse steps, the c operator and the backward pass
    (with its line factors) are built once per solve.  Every cycle applies
    the c operator to the corrected source of the anchor (see the module
    docstring) in the pass's c buffer and runs the pass.  A cycle is
    converged when the update is at most ``tol`` and the FD residual is at
    most K*tol; the residual is evaluated only once the update test holds,
    and the report reuses it.  For K = 0 the update test alone decides.

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
    if integer_count("max_iter", max_iter) < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if fixed_iters is not None and integer_count("fixed_iters", fixed_iters) < 1:
        raise ValueError(f"fixed_iters must be >= 1, got {fixed_iters}")
    K = spec.prox_weight
    kap = grid.d**2 / spec.epsilon
    a, b = ab_recursion(K, grid.d, spec.epsilon, grid.n_lines - 1)
    c_op = c_operator(a)
    h = transverse_steps(grid)
    f = source_values(spec, grid)
    backward = BackwardPass(a, b, spec, grid)
    b_kap = (b * kap)[:, None]

    def residual_sup(v: np.ndarray) -> float:
        return float(np.max(np.abs(_fd_residual(spec, grid, v, f, h))))

    updates = []
    stop_reason = "max_iter" if fixed_iters is None else "fixed_iters"
    v = np.zeros((grid.n_lines + 1, grid.m_nodes + 1))
    values = np.zeros_like(v)  # the two fields swap roles every cycle; their edges stay 0
    for _ in range(fixed_iters or max_iter):
        R, E = _scheme_terms(spec, v, h)
        c = c_op(K * v + f + R + E, kap, out=backward.c)
        c -= b_kap * (R[2:] + E[1:-1])
        backward(values)
        diff = float(np.max(np.abs(values - v)))
        updates.append(diff)
        v, values = values, v
        # a non-finite update fails this test too, so the flag is False on that stop
        residual = residual_sup(v) if diff <= tol and K > 0.0 else None
        converged = diff <= tol and (residual is None or residual <= K * tol)
        if not math.isfinite(diff):
            stop_reason = "non-finite"
            break
        if converged and fixed_iters is None:
            stop_reason = "converged"
            break
    return SolveReport(
        solution=FieldSolution(v),
        outer_iterations=len(updates),
        anchor_update_norm=updates[-1],
        residual_sup=residual_sup(v) if residual is None else residual,
        converged=converged,
        update_history=np.array(updates),
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

