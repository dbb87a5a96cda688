"""Forward recursion for the sweep coefficients a_n, b_n, c_n.

With q = 2 + K*d^2/eps and kap = d^2/eps the recursion is

    a_1 = 1/q,            a_n = 1/(q - a_{n-1}),
    b_1 = a_1,            b_n = a_n*(b_{n-1} + 1),
    c_1 = a_1*g_1*kap,    c_n = a_n*(c_{n-1} + g_n*kap),

where g_n is the line source (see ``proximal`` for the Cartesian one).
a and b depend only on (N, d, eps, K), so a solve computes them once;
only c changes with the anchor.

c is linear in g, so ``c_operator(a, kap)`` builds it once per solve as
one lower-triangular matrix C, C[i, j] = kap*a_j*...*a_i over the N-1
interior lines, and a caller forms c = C @ g on the rows of lines 1..N-1.
A cycle then costs one matmul instead of a Python step per line.  C takes
8*(N-1)^2 bytes (78 KB at N = 100, 8 MB at 1,000) and a product with P
source columns does about (N-1)^2 * P multiply-adds, so its time grows as
N^3 on a square grid.  Products that underflow to 0 are harmless.

``ab_recursion`` and the c operator are the only copies of these
recursions in the package: the Cartesian outer loop applies C to a
source that also carries its defect correction (see ``proximal``), and the
annulus solvers take a and b from ``ab_recursion`` and c from C.

``outer_loop`` runs the outer cycles of both geometries, which advance an
iterate in place: it is the one place that forms and records the updates,
stops a run and names why it stopped.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ab_recursion",
    "c_operator",
    "outer_loop",
]


def ab_recursion(K: float, d: float, eps: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """a_n and b_n for n = 1..count; entry k for line k+1.

    The diagonal q = 2 + K*d^2/eps is formed here and nowhere else.  It must
    be finite and at least 2 (else ValueError), so every a_n is in (0, 1)
    and every b_n is positive.
    """
    q = 2.0 + K * d**2 / eps
    if not 2.0 <= q < math.inf:  # an overflowing q would give a = b = 0
        raise ValueError(f"need a finite q = 2 + K*d^2/eps >= 2, got {q} (K={K}, eps={eps})")
    a = np.empty(count)
    b = np.empty(count)
    a[0] = 1.0 / q
    b[0] = a[0]
    for k in range(1, count):
        a[k] = 1.0 / (q - a[k - 1])
        b[k] = a[k] * (b[k - 1] + 1.0)
    return a, b


def c_operator(a: np.ndarray, kap: float) -> np.ndarray:
    """The c-recursion for a_1..a_len(a) as one matrix C: c = C @ g[1:len(a)+1].

    C[i, j] = kap*a_j*...*a_i, lower triangular, built row by row once.
    """
    C = np.zeros((a.size, a.size))
    for i in range(a.size):
        C[i, :i] = C[i - 1, :i] * a[i]
        C[i, i] = kap * a[i]
    return C


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
