"""Independent full-grid validation solver.

Assembles the complete nonlinear finite-difference system on the 2D grid
(5-point Laplacian, steps d and h, scaled by -eps, plus the diagonal
reaction alpha*u^3 - beta*u) and drives it to a root with damped Newton.
Shares no code path with the line sweep, so agreement between the two is a
meaningful check.  Each grid level builds its operator A = -eps * Laplacian
once (``_laplacian``), and each Newton run (``_damped_newton``) solves its
Jacobian with a sparse LU ordered by minimum degree on A^T + A
(``PERMC_SPEC``), which follows the symmetric 5-point structure: at
N=M=100, eps=0.01 the factors hold 364,676 nonzeros, against 666,448 under
the default column ordering (COLAMD), and the solve takes about half the time.
``scipy.sparse`` and ``scipy.sparse.linalg`` are imported at the first
solve, so ``import proxgml`` and the line solves never load them; the
first Newton run binds ``scipy.sparse.linalg`` to the module's ``_spla``,
on which ``spsolve`` is looked up at each call, so that a tracer that
wraps it counts the solves.

``newton_solve`` sequences the runs over coarser grids (nested iteration).
The coarse levels resolve the boundary layers that the reduced start
ignores at a fraction of the cost, and the requested grid then needs two or
three steps instead of five: at N=M=100 the 25-, 50- and 100-line levels
take 3, 1 and 2 steps at eps 0.1 and 0.01, and 3, 2 and 3 at eps 0.001.
A coarse root only starts the next level, whose prolonged start carries a
residual of about sup|f| anyway (1.0-1.4 on the benchmark cases), so the
coarse levels stop at a looser tolerance: nested iteration needs a coarse
root about as accurate as the discretization error the next level removes.
A run from a prolonged start can stall outside the basin (an indefinite
problem whose coarse root misses an interior layer: at beta = 30,
f = x - 0.5, eps = 0.001 and N = M = 64 the 32-line level stalls, and the
solve takes 2 + 3 + 5 steps), so it ends as failed once ``STALL_STEPS``
steps have not halved its residual, and the reduced start takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .problem import FieldSolution, LineGrid, ProblemSpec, check_tolerance, source_values

__all__ = ["NewtonReport", "NewtonDivergenceError", "newton_solve", "compare_fields"]

# SuperLU column ordering for the Jacobian: its sparsity pattern is symmetric
PERMC_SPEC = "MMD_AT_PLUS_A"
# the fewest intervals each way of a coarse level (``newton_solve``)
COARSE_MIN = 16
# the Newton steps after which a run from a prolonged start may stall (``_damped_newton``)
STALL_STEPS = 3
# the coarse levels' residual tolerance relative to max(1, sup|f|) (``newton_solve``)
COARSE_TOL = 1e-2
# a run that has not converged after this many Newton steps ends as failed
MAX_NEWTON = 50
_spla = None  # scipy.sparse.linalg, bound by the first Newton run


class NewtonDivergenceError(RuntimeError):
    """Damped Newton failed to reach the residual tolerance."""


@dataclass(frozen=True)
class NewtonReport:
    solution: FieldSolution
    iterations: int
    coarse_iterations: int
    residual_sup: float
    residual_history: np.ndarray
    step_norms: np.ndarray


def _require_uniform_rectangle(grid: LineGrid) -> float:
    h, lows = grid.h, grid.ordinates[:, 0]
    if not (np.allclose(h, h[0], rtol=0, atol=1e-13 * abs(h[0]))
            and np.allclose(lows, lows[0], rtol=0, atol=1e-13 * (1 + abs(lows[0])))):
        raise ValueError("full-grid oracle requires a rectangle with constant y-range")
    return h[0]


def _laplacian(N: int, M: int, d: float, h: float) -> "scipy.sparse.csc_matrix":
    import scipy.sparse as sp

    # interior unknowns, line-major flattening: index k = (n-1)*(M-1) + (j-1);
    # column k holds rows k-(M-1), k-1, k, k+1, k+(M-1) where they exist, in
    # ascending order, and always its diagonal
    nx, ny = N - 1, M - 1
    k = np.arange(nx * ny)
    i, j = np.divmod(k, ny)
    offsets = np.array([-ny, -1, 0, 1, ny])
    present = np.stack([i > 0, j > 0, np.ones_like(i, dtype=bool), j < ny - 1, i < nx - 1],
                       axis=1)
    wx, wy = 1.0 / d**2, 1.0 / h**2
    values = np.array([wx, wy, -2.0 / d**2 + -2.0 / h**2, wy, wx])
    indptr = np.concatenate([[0], np.cumsum(present.sum(axis=1))])
    return sp.csc_matrix(
        (np.broadcast_to(values, present.shape)[present], (k[:, None] + offsets)[present], indptr),
        shape=(k.size, k.size))


def _reduced_root(alpha: float, beta: float, f: np.ndarray) -> np.ndarray:
    """Per-node root of alpha*u^3 - beta*u = f with the sign of f and 3*alpha*u^2 > beta
    (0 where f = 0); alpha, beta > 0.  u = 2r*t turns it into 4t^3 - 3t = z, solved by
    t = cosh(arccosh(z)/3), taken in complex arithmetic so that z < 1 gives the cos form."""
    r = math.sqrt(beta / (3.0 * alpha))
    z = 1.5 * np.abs(f) / (beta * r)  # |f| / (2*alpha*r^3)
    return np.sign(f) * 2.0 * r * np.cosh(np.arccosh(z.astype(complex)) / 3.0).real


def _prolong(v: np.ndarray) -> np.ndarray:
    """(n+1, m+1) nodal field, boundary included, onto the grid of half the steps,
    (2n+1, 2m+1): along each axis the coarse nodes are kept and each midpoint takes
    the 4-point cubic (-v[i-1] + 9v[i] + 9v[i+1] - v[i+2])/16, linear in the two end
    intervals."""
    for axis in (0, 1):
        w = np.moveaxis(v, axis, 0)
        mid = 0.5 * (w[:-1] + w[1:])
        mid[1:-1] = (9.0 * (w[1:-2] + w[2:-1]) - w[:-3] - w[3:]) / 16.0
        out = np.empty((2 * w.shape[0] - 1,) + w.shape[1:])
        out[::2], out[1::2] = w, mid
        v = np.moveaxis(out, 0, axis)
    return v


@dataclass(frozen=True)
class _Run:
    """One damped-Newton run on one grid; ``failure`` is None once it converged."""

    u: np.ndarray
    residual_history: np.ndarray
    step_norms: np.ndarray
    solves: int
    failure: str | None


def _norm(r: np.ndarray) -> float:
    """Euclidean norm of r; scaled by its sup only when the plain sum of
    squares overflows (a residual of 1e300 on a thin strip), so every other
    norm is numpy's own."""
    with np.errstate(over="ignore"):
        n = float(np.linalg.norm(r))
    if math.isfinite(n):
        return n
    sup = float(np.max(np.abs(r)))
    return sup * float(np.linalg.norm(r / sup)) if 0.0 < sup < math.inf else n


def _damped_newton(A, f, u, *, alpha, beta, threshold, max_newton, stall_steps=None) -> _Run:
    """Newton on A u + alpha u^3 - beta u = f from u, one sparse solve per step,
    until the sup residual is at most threshold.  A must store its whole diagonal:
    J is A's copy, and a step writes only J's diagonal.  With ``stall_steps`` the
    run fails once its sup residual after that many steps is above half its first."""

    global _spla
    if _spla is None:
        import scipy.sparse.linalg as _spla

    def F(v):
        return A @ v + alpha * v**3 - beta * v - f

    J = A.copy()
    diag = np.flatnonzero(J.indices == np.repeat(np.arange(J.shape[1]), np.diff(J.indptr)))
    a_diag = A.data[diag]
    res_hist = []
    step_hist = []
    Fu = F(u)
    for it in range(max_newton + 1):
        sup = float(np.max(np.abs(Fu)))
        res_hist.append(sup)
        if sup <= threshold:
            return _Run(u, np.array(res_hist), np.array(step_hist), it, None)
        if it == max_newton:
            failure, solves = "no convergence", it
            break
        if it == stall_steps and sup > 0.5 * res_hist[0]:
            failure, solves = "stalled", it
            break
        J.data[diag] = a_diag + (3.0 * alpha * u**2 - beta)
        delta = _spla.spsolve(J, -Fu, permc_spec=PERMC_SPEC)
        # halving line search on the euclidean residual norm; the accepted
        # trial's residual is the next step's F(u)
        base = _norm(Fu)
        t = 1.0
        while t > 1e-10:
            trial = u + t * delta
            F_trial = F(trial)
            if _norm(F_trial) < base:
                break
            t *= 0.5
        else:
            # no decrease along the Newton direction
            failure, solves = "line search failed", it + 1
            break
        u, Fu = trial, F_trial
        step_hist.append(float(np.max(np.abs(t * delta))))
    return _Run(u, np.array(res_hist), np.array(step_hist), solves,
                f"{failure} after {it} Newton steps (residual {sup:.3e})")


def newton_solve(spec: ProblemSpec, grid: LineGrid, tol: float = 1e-10) -> NewtonReport:
    """Damped Newton on the FD system, sequenced over coarser grids.

    While N and M are both even and the halved grid keeps at least
    ``COARSE_MIN`` intervals each way, the grid is halved, so N=M=100 is
    solved on 25, then 50, then 100 lines, and a grid with N or M <= 31 on
    itself alone.  Every level samples the requested grid's source at its
    own nodes.  The coarsest level starts from the root of the reduced
    problem alpha*u^3 - beta*u = f (``_reduced_root``, the eps -> 0 limit),
    or from zero unless alpha, beta > 0; each finer level starts from the
    coarser root, prolonged by ``_prolong``.  A coarse level that fails
    hands the next level the reduced start instead, and the requested grid,
    should it fail from the prolonged start, runs again from the reduced
    start, so the sequenced oracle converges wherever the single-grid one
    does.  The requested grid stops once its sup residual is at most
    tol*max(1, sup|f|), as rounding in the residual grows with the source;
    a coarser one at max(tol, COARSE_TOL)*max(1, sup|f|).  ``iterations``
    counts the Newton steps of the run that solved the requested grid, one
    linear solve each; ``coarse_iterations`` counts every other linear
    solve: those on the coarser grids, and those of a failed run from the
    prolonged start.
    ``residual_sup`` is the absolute residual.  A failed line search or the
    step limit ``MAX_NEWTON`` on the requested grid raises
    NewtonDivergenceError with the number of steps taken."""
    check_tolerance(tol)
    N, M = grid.n_lines, grid.m_nodes
    h = _require_uniform_rectangle(grid)
    f_nodes = source_values(spec, grid)
    scale = max(1.0, float(np.max(np.abs(f_nodes[1:-1, 1:-1]))))
    threshold = tol * scale
    coarse_threshold = max(threshold, COARSE_TOL * scale)
    strides = [1]
    while all(k % (2 * strides[-1]) == 0 and k // (2 * strides[-1]) >= COARSE_MIN for k in (N, M)):
        strides.append(2 * strides[-1])
    stable_branch = spec.alpha > 0.0 and spec.beta > 0.0
    coarse_iterations = 0
    prolonged = None  # the coarser level's root on this level's nodes
    for stride in reversed(strides):
        n, m = N // stride, M // stride
        A = -spec.epsilon * _laplacian(n, m, grid.d * stride, h * stride)
        f = f_nodes[::stride, ::stride][1:-1, 1:-1].ravel()
        newton = partial(_damped_newton, A, f, alpha=spec.alpha, beta=spec.beta,
                         threshold=threshold if stride == 1 else coarse_threshold,
                         max_newton=MAX_NEWTON)
        run = None
        if prolonged is not None:
            run = newton(prolonged[1:-1, 1:-1].ravel(), stall_steps=STALL_STEPS)
            if run.failure is not None and stride == 1:
                coarse_iterations += run.solves
                run = None
        if run is None:
            run = newton(_reduced_root(spec.alpha, spec.beta, f) if stable_branch
                         else np.zeros_like(f))
        values = np.zeros((n + 1, m + 1))
        values[1:-1, 1:-1] = run.u.reshape(n - 1, m - 1)
        if stride > 1:
            coarse_iterations += run.solves
            prolonged = _prolong(values) if run.failure is None else None
    if run.failure is not None:
        raise NewtonDivergenceError(run.failure)
    return NewtonReport(
        solution=FieldSolution(values),
        iterations=run.solves,
        coarse_iterations=coarse_iterations,
        residual_sup=float(run.residual_history[-1]),
        residual_history=run.residual_history,
        step_norms=run.step_norms,
    )


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
