"""Forward recursion for the sweep coefficients a_n, b_n, c_n.

With q = 2 + K*d^2/eps and kap = d^2/eps the recursion is

    a_1 = 1/q,            a_n = 1/(q - a_{n-1}),
    b_1 = a_1,            b_n = a_n*(b_{n-1} + 1),
    c_1 = a_1*g_1*kap,    c_n = a_n*(c_{n-1} + g_n*kap),

where g_n is the line source (see ``proximal`` for the Cartesian one).
a and b depend only on (N, d, eps, K), so a solve computes them once;
only c changes with the anchor.

c is linear in g, so ``c_operator(a)`` builds it as a map once per solve.
The lines are split into blocks of ``C_BLOCK`` rows; within a block,
c = kap * L_b @ g + outer(L_b[:, 0], c at the last row of the block
before), with the lower-triangular product matrix
L_b[i, j] = a_j*...*a_i.  A cycle then costs one matmul per block instead
of a Python step per line.  One dense (N-1)^2 product matrix would do the
same in one call, but its work grows as N^2 per source column, against
32*N for the blocks: on one thread of an Intel Xeon a call on N+1 source
columns takes 41 us dense against 44 us blocked at N = M = 100, 320 against
159 us at 200 and 2.78 against 0.51 ms at 400.
The annulus solve still uses one (``polarsym._BackwardPass``): it builds
its line sources, radial term included, from a dense map applied to only
16 columns per cycle, which beats the blocks up to about 400 lines.
Products that underflow to 0 are harmless.

``ab_recursion`` and the c operator are the only copies of these
recursions in the package: the Cartesian outer loop
applies the operator to a source that also carries its defect correction
(see ``proximal``), and the annulus solvers take a and b from
``ab_recursion`` and c from the operator.

``outer_loop`` runs the outer cycles of both geometries, which advance an
iterate in place: it is the one place that forms and records the updates,
stops a run and names why it stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "COperator",
    "ab_recursion",
    "c_operator",
    "outer_loop",
]


def ab_recursion(K: float, d: float, eps: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """a_n and b_n for n = 1..count; entry k for line k+1.

    The diagonal q = 2 + K*d^2/eps is formed here and nowhere else.
    """
    q = 2.0 + K * d**2 / eps
    a = np.empty(count)
    b = np.empty(count)
    a[0] = 1.0 / q
    b[0] = a[0]
    for k in range(1, count):
        denom = q - a[k - 1]
        if denom <= 0.0:
            # cannot happen for q >= 2 (a_n < 1 < q - 1); kept as a guard
            raise ArithmeticError(f"non-positive sweep denominator at line {k + 1}")
        a[k] = 1.0 / denom
        b[k] = a[k] * (b[k - 1] + 1.0)
    return a, b


# lines per block of the c operator; see the module docstring
C_BLOCK = 32


@dataclass(frozen=True)
class COperator:
    """The c-recursion for one a as a linear map; see ``c_operator``.

    ``blocks[k]`` is the lower-triangular product matrix of lines
    k*C_BLOCK+1 .. (k+1)*C_BLOCK (fewer in the last block).
    """

    blocks: tuple[np.ndarray, ...]

    def __call__(self, g: np.ndarray, kap: float, out: np.ndarray | None = None) -> np.ndarray:
        """c_n for n = 1..size from the line sources g.

        ``g`` is indexed by line number: row n is the source on line n, and
        only rows 1..size are read.  Returns shape (size, g.shape[1]), in
        ``out`` when it is given.
        """
        c = np.empty((sum(len(L) for L in self.blocks), g.shape[1])) if out is None else out
        start = 0
        for L in self.blocks:
            stop = start + len(L)
            block = c[start:stop]
            np.matmul(L, g[start + 1:stop + 1], out=block)
            block *= kap
            if start:
                block += L[:, :1] * c[start - 1]
            start = stop
        return c


def c_operator(a: np.ndarray) -> COperator:
    """Build the c-recursion for a_1..a_len(a) once; apply it to any sources."""
    n_blocks = -(-a.size // C_BLOCK)
    padded = np.zeros((n_blocks, C_BLOCK))
    padded.flat[:a.size] = a
    # L[:, i, j] = a_j*...*a_i, grown one row at a time in every block at once
    L = np.zeros((n_blocks, C_BLOCK, C_BLOCK))
    for i in range(C_BLOCK):
        L[:, i, :i] = L[:, i - 1, :i] * padded[:, i, None]
        L[:, i, i] = padded[:, i]
    last = a.size - (n_blocks - 1) * C_BLOCK
    return COperator(blocks=(*L[:-1], L[-1, :last, :last].copy()))


def outer_loop(cycle, state: np.ndarray, cap: int, converged=None) -> tuple[np.ndarray, str]:
    """Run ``cycle()``, which advances ``state`` in place, at most ``cap`` times.

    A cycle's update is the sup-norm change of ``state``, formed in a copy.
    Returns the updates and the stop: "non-finite" at the first update that
    is not finite, "converged" at the first that ``converged(update)``
    accepts, else "max_iter" after ``cap`` cycles, or "fixed_iters" when no
    test was given, a fixed schedule that never consults one.
    """
    change = np.empty_like(state)
    updates = []
    for _ in range(cap):
        np.copyto(change, state)
        cycle()
        np.subtract(state, change, out=change)
        updates.append(float(np.abs(change, out=change).max()))
        if not math.isfinite(updates[-1]):
            return np.array(updates), "non-finite"
        if converged is not None and converged(updates[-1]):
            return np.array(updates), "converged"
    return np.array(updates), "fixed_iters" if converged is None else "max_iter"
