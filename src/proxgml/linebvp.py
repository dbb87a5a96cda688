"""The per-line two-point BVP and its Thomas solve: the reference only.

Line n of the backward pass solves the linear BVP

    u - gamma * u'' = rhs(y),   gamma = b_n * d^2,   u(ends) = 0,

by the 3-point stencil at the line's M+1 nodes with physical step h: a
tridiagonal, symmetric positive definite, strictly diagonally dominant
M-matrix system.  ``assemble_line_system`` builds it and ``thomas_solve``
solves it.  The solver factors the same matrices in ``proximal``, which
owns the pass and the lag it cancels; the tests hold it to this reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TridiagonalSystem",
    "assemble_line_system",
    "thomas_solve",
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
