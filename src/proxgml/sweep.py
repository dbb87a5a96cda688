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

A tested run (the rectangle) is over-relaxed along the cycle's own step
(extrapolation, Varga 1962, ch. 5): a cycle that fails the test and is not
the last allowed one moves the state from its output x + D to x + w*D when
the run is in its dominant mode, that is, when the updates fall by a ratio
r in (RATIO_LOW, 1) = (2/3, 1) that is within RATIO_DRIFT of the previous
cycle's ratio, and D keeps the previous step's direction.  The relaxed map
scales a mode that the plain cycle scales by mu by 1 - w*(1 - mu).  For a
spectrum in [mu_lo, rho] the factor that minimises the largest of these is
w* = 2/(2 - rho - mu_lo), where the two ends are scaled by equal and
opposite amounts; below w* the dominant mode rho stays the slowest.  A
relaxed cycle takes rho from the observed ratio r and goes the share
RELAXATION_SHARE = 0.9 of the way from 1 to w*:

    w = 1 + RELAXATION_SHARE*(2/(2 - r - mu_lo) - 1),

so the run still ends in the plain loop's dominant mode, and the stop
test (update <= tol and FD residual <= K*tol) certifies what it did for
the plain loop.  mu_lo is the caller's ``floor(state)``, a lower bound on
a model of the cycle map's spectrum, 0 without one.  The rectangle's
is a Gershgorin bound on its proximal model (see ``proximal``); the lagged
cycle's own lowest eigenvalue can sit a little below it (0.782 against
0.803 at N = M = 10, f = 1, eps 0.01), and the share 0.9 leaves room for
that.  A fixed w = 1.5 assumed a spectrum reaching down to 0, which it
does not: a finite-difference Jacobian of the cycle map at the root puts
it in [0.196, 0.963], [0.560, 0.961] and [0.855, 0.971] for the
N = M = 20 sin(pi*x)*sin(pi*y) source at K = 50 and eps 0.1/0.01/0.001,
where w* is 2.4, 4.7 and 11.5.  That source takes 198/140/139 cycles
(268/299/431 at w = 1.5), and f = 1 at N = M = 100 178/154/119
(209/183/184).  Without the steady-ratio test, relaxing the swinging
early updates of runs near the divergent sources (f = 160 at N = 6) sent
them non-finite.  The annulus's fixed schedule is never relaxed.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "RATIO_DRIFT",
    "RATIO_LOW",
    "RELAXATION_SHARE",
    "ab_recursion",
    "c_operator",
    "outer_loop",
]

# share of the way from 1 to the optimal factor that a relaxed cycle goes, and
# the band of update ratios that counts as one mode: the lower end and how far
# two successive ratios may differ (see the docstring)
RELAXATION_SHARE = 0.9
RATIO_LOW = 2.0 / 3.0
RATIO_DRIFT = 0.05


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


def outer_loop(cycle, state: np.ndarray, cap: int, converged=None,
               floor=None) -> tuple[np.ndarray, str]:
    """Run ``cycle()``, which advances ``state`` in place, at most ``cap`` times.

    A cycle's update is the sup norm of its own step D = T(x) - x, formed in
    a buffer of its own.  Returns the updates and the stop: "non-finite" at
    the first update that is not finite, "converged" at the first that
    ``converged(update)`` accepts, else "max_iter" after ``cap`` cycles, or
    "fixed_iters" when no test was given, a fixed schedule that never
    consults one.

    With a test, a cycle that fails it and is not the last allowed one moves
    the state on to x + w*D when the updates fall by a steady ratio r
    (``_in_dominant_mode``) and D keeps the previous step's direction
    (vdot > 0), with w = 1 + RELAXATION_SHARE*(2/(2 - r - mu_lo) - 1).
    mu_lo is ``floor(state)`` < 1 at the cycle's output, called only for a
    relaxed cycle, or 0 without ``floor``: a lower bound on the spectrum of
    a model of the cycle map (on the rectangle K*(K + J)^-1, whose gap to
    the lagged cycle RELAXATION_SHARE covers).  A stop always leaves the
    last cycle's own output in the state; a fixed schedule is never relaxed.
    """
    step, previous = np.empty_like(state), np.empty_like(state)
    updates = []
    for k in range(cap):
        np.copyto(step, state)
        cycle()
        np.subtract(state, step, out=step)
        updates.append(float(np.abs(step).max()))
        if not math.isfinite(updates[-1]):
            return np.array(updates), "non-finite"
        if converged is None:
            continue
        if converged(updates[-1]):
            return np.array(updates), "converged"
        if 1 < k < cap - 1 and _in_dominant_mode(*updates[-3:]) and np.vdot(step, previous) > 0.0:
            r = updates[-1] / updates[-2]
            mu_lo = 0.0 if floor is None else floor(state)
            state += RELAXATION_SHARE * (2.0 / (2.0 - r - mu_lo) - 1.0) * step
        step, previous = previous, step
    return np.array(updates), "fixed_iters" if converged is None else "max_iter"


def _in_dominant_mode(u0: float, u1: float, u2: float) -> bool:
    """Whether three successive updates fall by a ratio r = u2/u1 in
    (RATIO_LOW, 1) that is within RATIO_DRIFT of u1/u0.  Written without
    division: u2 < u1 makes u1 positive, and then u0 = 0 fails."""
    return (RATIO_LOW * u1 < u2 < u1
            and abs(u2 * u0 - u1 * u1) <= RATIO_DRIFT * u0 * u1)
