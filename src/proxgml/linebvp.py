"""Per-line two-point boundary-value solves for the backward pass.

Each line n requires the linear BVP

    u - gamma * u'' = rhs(y),   gamma = b_n * d^2,   u(ends) = 0,

discretized by the standard 3-point stencil at the line's M+1 nodes with
physical step h.  The interior system is tridiagonal, symmetric positive
definite, strictly diagonally dominant and an M-matrix.

Its matrix depends only on (b_n, d, h_n), so it is the same in every outer
cycle of a solve.  A solve builds one ``BackwardPass``: its constructor
computes the LDL^T factors of every line (LAPACK ``dpttrf``) and allocates
the solve's field, whose rows 1..N-1 are the c buffer and row N the
boundary line.  A cycle writes c into the buffer and runs the pass: per
line, two BLAS ``daxpy`` calls form the right-hand side in that line's row
and ``dpttrs`` solves it in place, so nothing is copied out.  The field's
end columns are the Dirichlet zeros, so c must be 0 there.  The Thomas
solve (``assemble_line_system``, ``thomas_solve``) is the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy
from scipy.linalg.lapack import dpttrf, dpttrs

from .problem import LineGrid, ProblemSpec, transverse_steps

__all__ = [
    "TridiagonalSystem",
    "assemble_line_system",
    "thomas_solve",
    "BackwardPass",
]


@dataclass(frozen=True)
class TridiagonalSystem:
    """Interior-unknown tridiagonal system: sub/sup length M-2, diag M-1."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        m = self.diag.size
        if not (self.sub.size == m - 1 and self.sup.size == m - 1 and self.rhs.size == m):
            raise ValueError("inconsistent tridiagonal band lengths")


def assemble_line_system(b_n: float, d: float, h: float, rhs_values: np.ndarray) -> TridiagonalSystem:
    """Assemble (1 + 2g/h^2)*u_j - (g/h^2)*(u_{j-1} + u_{j+1}) = rhs_j, g = b_n*d^2.

    ``rhs_values`` holds the M-1 interior right-hand sides; the zero
    Dirichlet end values are already folded in.
    """
    if h <= 0.0:
        raise ValueError(f"transverse step must be positive, got {h}")
    if b_n <= 0.0:
        raise ValueError(f"b_n must be positive, got {b_n}")
    rhs = np.asarray(rhs_values, dtype=float)
    m = rhs.size
    g = b_n * d * d
    off = -g / (h * h)
    return TridiagonalSystem(
        sub=np.full(m - 1, off),
        diag=np.full(m, 1.0 + 2.0 * g / (h * h)),
        sup=np.full(m - 1, off),
        rhs=rhs,
    )


def thomas_solve(sys: TridiagonalSystem) -> np.ndarray:
    """Forward elimination + back substitution on the tridiagonal system."""
    m = sys.diag.size
    # plain python floats in the sequential loops; ~3x faster than ndarray
    # scalar indexing
    sub = sys.sub.tolist()
    diag = sys.diag.tolist()
    sup = sys.sup.tolist()
    rhs = sys.rhs.tolist()
    cp = [0.0] * m
    dp = [0.0] * m
    piv = diag[0]
    if piv == 0.0:
        raise ZeroDivisionError("zero pivot in tridiagonal elimination")
    cp[0] = sup[0] / piv if m > 1 else 0.0
    dp[0] = rhs[0] / piv
    for j in range(1, m):
        piv = diag[j] - sub[j - 1] * cp[j - 1]
        if piv == 0.0:
            raise ZeroDivisionError(f"zero pivot at row {j}")
        cp[j] = sup[j] / piv if j < m - 1 else 0.0
        dp[j] = (rhs[j] - sub[j - 1] * dp[j - 1]) / piv
    x = [0.0] * m
    x[m - 1] = dp[m - 1]
    for j in range(m - 2, -1, -1):
        x[j] = dp[j] - cp[j] * x[j + 1]
    return np.array(x)


class BackwardPass:
    """The backward pass of one solve, on line factors and a field it makes once.

    ``u`` is the solve's (N+1) x (M+1) field, ``c`` its rows 1..N-1 and row
    N the boundary line (zeros unless set).  Line n solves, in place on the
    interior of row n, (I - b_n*d^2*D_yy) u_n = c_n + (a_n + b_n*kap*beta)
    *u_{n+1} - (b_n*kap*alpha)*u_{n+1}^3, the reaction lagged at line n+1.
    Line n has the matrix of ``assemble_line_system(b_n, d, h_n, .)``,
    which the constructor factors with ``dpttrf``; each line's rows,
    factors and weights are bound once, in ``steps``.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, spec: ProblemSpec, grid: LineGrid):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        h = transverse_steps(grid)[1:-1]
        if a.shape != h.shape or b.shape != h.shape:
            raise ValueError(f"need one a_n and b_n per line 1..{h.size}, "
                             f"got shapes {a.shape} and {b.shape}")
        if not np.all(h > 0.0):
            raise ValueError(f"transverse steps must be positive, got min {np.min(h)}")
        if not np.all(b > 0.0):
            raise ValueError(f"b_n must be positive, got min {np.min(b)}")
        d, m = grid.d, grid.m_nodes - 1
        g = b * d * d
        off = -g / (h * h)
        diag = 1.0 + 2.0 * g / (h * h)
        kap = d**2 / spec.epsilon
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
