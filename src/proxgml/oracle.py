"""Independent full-grid validation solver.

Assembles the complete nonlinear finite-difference system on the 2D grid
(5-point Laplacian, steps d and h, scaled by -eps, plus the diagonal
reaction alpha*u^3 - beta*u) and drives it to a root with damped Newton,
started from the reduced problem alpha*u^3 - beta*u = f (the eps -> 0
limit).  Shares no code path with the line sweep, so agreement between the
two is a meaningful check.  Each Newton step solves the Jacobian with a sparse
LU ordered by minimum degree on A^T + A, which follows the symmetric 5-point
structure: at N=M=100, eps=0.01 the factors hold 364,676 nonzeros, against
666,448 under the default column ordering (COLAMD).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .problem import FieldSolution, LineGrid, ProblemSpec, source_values, transverse_steps

__all__ = ["NewtonReport", "NewtonDivergenceError", "newton_solve", "compare_fields"]

# SuperLU column ordering for the Jacobian: its sparsity pattern is symmetric
PERMC_SPEC = "MMD_AT_PLUS_A"


class NewtonDivergenceError(RuntimeError):
    """Damped Newton failed to reach the residual tolerance."""


@dataclass(frozen=True)
class NewtonReport:
    solution: FieldSolution
    iterations: int
    residual_sup: float
    residual_history: np.ndarray
    step_norms: np.ndarray


def _require_uniform_rectangle(grid: LineGrid) -> float:
    widths = grid.per_line_range[:, 1] - grid.per_line_range[:, 0]
    lows = grid.per_line_range[:, 0]
    if not (np.allclose(widths, widths[0], rtol=0, atol=1e-13 * abs(widths[0]))
            and np.allclose(lows, lows[0], rtol=0, atol=1e-13 * (1 + abs(lows[0])))):
        raise ValueError("full-grid oracle requires a rectangle with constant y-range")
    return transverse_steps(grid)[0]


def _laplacian(N: int, M: int, d: float, h: float) -> sp.csc_matrix:
    # interior unknowns, line-major flattening: index = (n-1)*(M-1) + (j-1)
    nx, ny = N - 1, M - 1
    ex = np.ones(nx)
    ey = np.ones(ny)
    Lx = sp.diags([ex[:-1], -2.0 * ex, ex[:-1]], [-1, 0, 1]) / d**2
    Ly = sp.diags([ey[:-1], -2.0 * ey, ey[:-1]], [-1, 0, 1]) / h**2
    return (sp.kron(Lx, sp.eye(ny)) + sp.kron(sp.eye(nx), Ly)).tocsc()


def _reduced_root(alpha: float, beta: float, f: np.ndarray) -> np.ndarray:
    """Per-node root of alpha*u^3 - beta*u = f with the sign of f and 3*alpha*u^2 > beta
    (0 where f = 0); alpha, beta > 0.  u = 2r*t turns it into 4t^3 - 3t = z, solved by
    t = cosh(arccosh(z)/3), taken in complex arithmetic so that z < 1 gives the cos form."""
    r = math.sqrt(beta / (3.0 * alpha))
    z = 1.5 * np.abs(f) / (beta * r)  # |f| / (2*alpha*r^3)
    return np.sign(f) * 2.0 * r * np.cosh(np.arccosh(z.astype(complex)) / 3.0).real


def newton_solve(
    spec: ProblemSpec,
    grid: LineGrid,
    tol: float = 1e-10,
    max_newton: int = 50,
) -> NewtonReport:
    """Damped Newton from the reduced-problem root, or from zero unless alpha, beta > 0.
    Stops once the sup residual is at most tol*max(1, sup|f|): rounding in the
    residual grows with the source.  ``iterations`` counts every Newton step,
    one linear solve each; ``residual_sup`` is the absolute residual."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_newton < 1:
        raise ValueError(f"max_newton must be >= 1, got {max_newton}")
    N, M = grid.n_lines, grid.m_nodes
    h = _require_uniform_rectangle(grid)
    A = -spec.epsilon * _laplacian(N, M, grid.d, h)
    f = source_values(spec, grid)[1:-1, 1:-1].ravel()
    stable_branch = spec.alpha > 0.0 and spec.beta > 0.0
    u = _reduced_root(spec.alpha, spec.beta, f) if stable_branch else np.zeros_like(f)
    threshold = tol * max(1.0, float(np.max(np.abs(f))))

    def F(v):
        return A @ v + spec.alpha * v**3 - spec.beta * v - f

    res_hist = []
    step_hist = []
    Fu = F(u)
    for it in range(max_newton + 1):
        sup = float(np.max(np.abs(Fu))) if Fu.size else 0.0
        res_hist.append(sup)
        if sup <= threshold:
            values = np.zeros((N + 1, M + 1))
            values[1:-1, 1:-1] = u.reshape(N - 1, M - 1)
            return NewtonReport(
                solution=FieldSolution(values),
                iterations=it,
                residual_sup=sup,
                residual_history=np.array(res_hist),
                step_norms=np.array(step_hist),
            )
        if it == max_newton:
            break
        J = (A + sp.diags(3.0 * spec.alpha * u**2 - spec.beta)).tocsc()
        delta = spla.spsolve(J, -Fu, permc_spec=PERMC_SPEC)
        # halving line search on the euclidean residual norm; the accepted
        # trial's residual is the next step's F(u)
        base = np.linalg.norm(Fu)
        t = 1.0
        while t > 1e-10:
            trial = u + t * delta
            F_trial = F(trial)
            if np.linalg.norm(F_trial) < base:
                break
            t *= 0.5
        else:
            break  # no decrease along the Newton direction
        u, Fu = trial, F_trial
        step_hist.append(float(np.max(np.abs(t * delta))))
    failure = "no convergence" if it == max_newton else "line search failed"
    raise NewtonDivergenceError(f"{failure} after {it} Newton steps (residual {sup:.3e})")


def compare_fields(u1: FieldSolution, u2: FieldSolution) -> tuple[float, float]:
    """(sup, rms) difference over interior nodes; grids must match.

    Both read NaN when either field holds a NaN or an infinity, and inf
    when the difference of two finite fields overflows.  The rms is formed
    from the difference scaled by its sup, so squaring never overflows.
    """
    if u1.values.shape != u2.values.shape:
        raise ValueError("field shapes differ")
    a, b = u1.values[1:-1, 1:-1], u2.values[1:-1, 1:-1]
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return math.nan, math.nan
    with np.errstate(over="ignore"):
        diff = a - b
    sup = float(np.max(np.abs(diff)))
    if not 0.0 < sup < math.inf:
        return sup, sup
    return sup, sup * float(np.sqrt(np.mean((diff / sup) ** 2)))
