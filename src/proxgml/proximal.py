"""Outer proximal fixed-point driver, its backward pass, and solution diagnostics.

The FD system is -eps*D_xx u - (R(u) + E(u) + f) = 0 on interior nodes,
with R(u) = -alpha*u^3 + beta*u and E(u) = eps*D_yy u (3-point stencil on
each line's step h_n, ``grid.h``); f is read only at interior nodes, and
``source_values`` gives 0 elsewhere.  ``_scheme_terms`` is the one
definition of R and E, which the outer cycle and the FD residual share.

Exact elimination carries w_n = a_n*(w_{n-1} + T(u_n)), T = kap*(R + E),
kap = d^2/eps.  ``BackwardPass`` lags it: line n solves (I - b_n*d^2*D_yy)
u_n = c_n + (a_n + b_n*kap*beta)*u_{n+1} - (b_n*kap*alpha)*u_{n+1}^3, so it
takes b_n*kap*[R(u_{n+1}) + E(u_n)] in place of the sum.  Each cycle adds
the difference back at the anchor u0 (defect correction, Stetter 1978):
w obeys the recursion of c, so the corrected c is one c-recursion on
g = K*u0 + f + R(u0) + E(u0), minus the lag at u0.  At the fixed point
u = u0 the pass is exact elimination, so the fixed point solves the FD
system.  The lag and the correction that cancels it change together, so
both are here.  At the zero anchor g = f and the lag is 0.

a, b and the line matrices depend only on (spec, grid), so a solve builds
one ``BackwardPass(spec, grid)``, which forms a, b and the c operator C
(kap included), factors the matrices (LAPACK ``dpttrf``) and allocates the
solve's field: rows 1..N-1 are the c buffer, row N the boundary line.  A
cycle writes C @ g, with g from the field, into those rows; per line, two
BLAS ``daxpy`` calls form the right-hand side in place and ``dpttrs``
solves it there.  c must be 0 on the end columns, the Dirichlet zeros.
``backward_pass`` runs a one-shot pass on a given c; ``linebvp`` holds the
Thomas reference.  A cycle is converged when the update is at most ``tol``
and, for K > 0, the FD residual is at most K*tol; ``sweep.outer_loop``
runs the cycles, stops them and names the stop (``stop_reason``).  Once
the updates fall by a steady ratio it moves a failed cycle by the
heavy-ball step (see ``sweep``), which leaves the stop test's meaning as it
was for the plain loop.  The step reads the floor K/(K + lam_hi) of
``_spectral_floor``, which bounds the proximal model of a cycle (near the
root an error e goes to about K*(K + J)^-1 e, J the FD system's Jacobian),
not the lagged cycle, whose spectrum can sit a little lower: the factor
1/0.9 on ``sweep``'s L covers that.  Gershgorin's theorem puts the
eigenvalues of J at most
lam_hi = max(0, 3*max(alpha, 0)*max|v|^2 - beta) + 4*eps*(1/d^2 + 1/min(h)^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dpttrf, dpttrs

from .problem import (FieldSolution, LineGrid, ProblemSpec, check_tolerance, integer_count,
                      source_values)
from .sweep import ab_recursion, c_operator, outer_loop

__all__ = [
    "BackwardPass",
    "SolveReport",
    "backward_pass",
    "proximal_iterate",
    "residual_field",
]


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a proximal run and how it stopped."""

    solution: FieldSolution
    outer_iterations: int
    residual_sup: float
    converged: bool
    update_history: np.ndarray  # sup-norm anchor update of every iteration
    stop_reason: str  # "converged", "max_iter" or "non-finite"


class BackwardPass:
    """The lagged backward pass of one solve (see the module docstring).

    Built from (spec, grid): it forms a and b (``ab_recursion``), the c
    operator ``C`` (``sweep.c_operator``, kap included) and the lag weights
    ``b_kap`` = b*kap.  ``u`` is the solve's field, ``c`` its rows 1..N-1,
    row N the boundary line.  Line n has the matrix of
    ``linebvp.assemble_line_system(b_n, d, h_n, .)``; its rows, factors and
    weights are bound once, in ``steps``."""

    def __init__(self, spec: ProblemSpec, grid: LineGrid):
        d, m = grid.d, grid.m_nodes - 1
        kap = d**2 / spec.epsilon
        a, b = ab_recursion(spec.prox_weight, d, spec.epsilon, grid.n_lines - 1)
        self.C = c_operator(a, kap)
        self.b_kap = (b * kap)[:, None]
        h = grid.h[1:-1]
        g = b * d * d
        off = -g / (h * h)
        diag = 1.0 + 2.0 * g / (h * h)
        self.u = np.zeros((grid.n_lines + 1, grid.m_nodes + 1))
        self.c = self.u[1:-1]
        self.cube = np.empty(m)
        lin = (a + b * (kap * spec.beta)).tolist()
        cub = (b * (-kap * spec.alpha)).tolist()
        rows = self.u[:, 1:-1]
        self.steps = []
        for k in range(b.size - 1, -1, -1):
            # f2py wants one off-diagonal entry even when m = 1, where LAPACK reads none
            dk, ek, info = dpttrf(np.full(m, diag[k]), np.full(max(m - 1, 1), off[k]))
            if info != 0:
                raise ArithmeticError(
                    f"line {k + 1} system is not positive definite (info={info})")
            self.steps.append((rows[k + 1], rows[k + 2], dk, ek, lin[k], cub[k]))

    def __call__(self) -> None:
        """Solve lines N-1..1 in place, each on its row of c and the line above."""
        t, m = self.cube, self.cube.size
        for y, u, d, e, lin, cub in self.steps:
            daxpy(u, y, m, lin)
            np.multiply(u, u, t)
            np.multiply(t, u, t)
            daxpy(t, y, m, cub)
            dpttrs(d, e, y, overwrite_b=1)


def backward_pass(
    spec: ProblemSpec,
    grid: LineGrid,
    c: np.ndarray,
    u_boundary_N: np.ndarray,
) -> FieldSolution:
    """Solve lines N-1, N-2, ..., 1 on the sweep coefficients c and assemble the field.

    ``c`` has one row per line 1..N-1 and one column per transverse node,
    of which only the interior ones are read; ``u_boundary_N`` is the
    Dirichlet data on line N (zeros for the homogeneous problem).  Both
    are copied into the field of a fresh ``BackwardPass(spec, grid)``, which
    forms a and b itself, so the caller's c is never written.  A shape other
    than (N-1, M+1) and (M+1,), or a non-finite value read, raises
    ValueError naming the argument.
    """
    N, M = grid.n_lines, grid.m_nodes
    for name, x, shape in (("c", c, (N - 1, M + 1)), ("u_boundary_N", u_boundary_N, (M + 1,))):
        if np.shape(x) != shape:
            raise ValueError(f"{name} must have shape {shape}, got {np.shape(x)}")
    run = BackwardPass(spec, grid)
    run.c[:, 1:-1] = np.asarray(c)[:, 1:-1]
    run.u[N] = u_boundary_N
    for name, x in (("c", run.c), ("u_boundary_N", run.u[N])):
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{name} must be finite, got a non-finite value")
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

    f and the backward pass (a, b, the c operator, line factors and
    field) are built once per solve; a cycle writes the corrected c into
    the field and runs the pass, and ``sweep.outer_loop`` may move its
    output by the heavy-ball step before the next one.  ``update_history``
    holds each cycle's own sup change, and the returned field is the last
    cycle's output, never a moved one.  The FD residual
    is evaluated only once the update test holds, and the report reuses the
    last cycle's; a field's residual is formed once.  Non-convergence is
    reported, not raised; numpy's overflow and invalid-value warnings are
    off, as the "non-finite" stop reports them.
    """
    check_tolerance(tol)
    integer_count("max_iter", max_iter, 1)
    K = spec.prox_weight
    f = source_values(spec, grid)  # 0 on the end columns, so c keeps the Dirichlet zeros
    backward = BackwardPass(spec, grid)
    v = backward.u  # the anchor, which each cycle overwrites with the new field
    C, b_kap = backward.C, backward.b_kap
    residual = None

    def cycle() -> None:
        R, E = _scheme_terms(spec, v, grid.h)
        c = np.matmul(C, (K * v + f + R + E)[1:-1], out=backward.c)
        c -= b_kap * (R[2:] + E[1:-1])
        backward()

    def residual_sup() -> float:
        return float(np.max(np.abs(_fd_residual(spec, grid, v, f))))

    def converged(update: float) -> bool:
        nonlocal residual
        residual = residual_sup() if update <= tol and K > 0.0 else None
        return update <= tol and (residual is None or residual <= K * tol)

    updates, stop_reason = outer_loop(cycle, v, max_iter, converged, _spectral_floor(spec, grid))
    if stop_reason == "non-finite":  # that cycle was never tested
        residual = None
    return SolveReport(
        solution=FieldSolution(v),
        outer_iterations=len(updates),
        residual_sup=residual_sup() if residual is None else residual,
        converged=stop_reason == "converged",
        update_history=updates,
        stop_reason=stop_reason,
    )


def _spectral_floor(spec: ProblemSpec, grid: LineGrid):
    """``floor(v)``: K/(K + lam_hi) at field v, a lower bound on the spectrum of
    K*(K + J(v))^-1 from the Gershgorin bound lam_hi on J(v) (module
    docstring); 3*max(alpha, 0)*v^2 bounds the reaction's 3*alpha*v^2 for
    either sign of alpha, and a v^2 or 1/d^2 that overflows gives 0."""
    K = spec.prox_weight
    with np.errstate(divide="ignore", over="ignore"):  # d^2 may underflow to 0
        diffusion = 4.0 * spec.epsilon * np.sum(1.0 / np.square([grid.d, np.min(grid.h[1:-1])]))
    reaction = 3.0 * max(spec.alpha, 0.0)

    def floor(v: np.ndarray) -> float:
        vmax = max(v.max(), -v.min())
        return K / (K + max(0.0, reaction * vmax * vmax - spec.beta) + diffusion)

    return floor


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


def _fd_residual(spec: ProblemSpec, grid: LineGrid, v: np.ndarray, f: np.ndarray) -> np.ndarray:
    R, E = _scheme_terms(spec, v, grid.h)
    d_xx = (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / grid.d**2
    return -spec.epsilon * d_xx - (R + E + f)[1:-1, 1:-1]


def residual_field(spec: ProblemSpec, grid: LineGrid, u: FieldSolution) -> np.ndarray:
    """Unregularized residual at every interior node; shape (N-1, M-1).

    This is the defect of the original finite-difference system (no
    proximal terms): -eps*(D_xx + D_yy)u + alpha*u^3 - beta*u - f.
    """
    return _fd_residual(spec, grid, u.values, source_values(spec, grid))
