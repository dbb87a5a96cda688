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

A tested run (the rectangle) is accelerated by Polyak's heavy-ball step
with adaptive restart (Polyak 1964; O'Donoghue and Candes 2015).  The
rule arms once four successive update ratios of plain cycles lie in
(2/3, 1), the largest within 2% of the smallest, and the cycle's step D
keeps the previous step's direction.  From then on, a cycle that fails
the test and is not the last allowed one moves the state from its output
x + D to

    x + w*D + beta*(x - x_prev),
    w = 4/(sqrt(L) + sqrt(m))^2,  beta = ((sqrt(L) - sqrt(m))/(sqrt(L) + sqrt(m)))^2,

where x_prev is the previous cycle's input, m = 1 - rho-hat comes from
the window's mean ratio rho-hat and L = (1 - mu_lo)/0.9 from the caller's
``floor(state)`` mu_lo (0 without one), read at the arming cycle's output.
For a mode that the plain cycle scales by mu, lam = 1 - mu, the two-step
map has the roots of z^2 - (1 + beta - w*lam)*z + beta; for lam in [m, L]
both have modulus sqrt(beta), about 1 - 2*sqrt(m/L), where the best single
over-relaxation factor reaches (L - m)/(L + m), about 1 - 2*m/L, and the
map is stable for lam in (0, L + m).  The rectangle's mu_lo is a
Gershgorin bound on its proximal model (see ``proximal``); the lagged
cycle's own lowest eigenvalue can sit a little below it (0.782 against
0.803 at N = M = 10, f = 1, eps 0.01), and the factor 1/0.9 on L covers
that.  At the root of that case, eps 0.1/0.01/0.001, the two-step map has
spectral radius 0.578/0.295/0.111, where the plain cycle has
0.950/0.935/0.921.

The rule drops back to plain cycles, and re-arms on four new plain
ratios, at a cycle whose D turns against the momentum (vdot(D, x - x_prev)
< 0) or whose update exceeds 4 times the smallest since it armed.  An
estimate rho-hat below the true rho leaves the slowest mode a real root
q > sqrt(beta); when four accelerated ratios settle, within 2% of each
other, in (1.05*sqrt(beta), 1), the rule lowers m to that mode's
(1 + beta - q - beta/q)/w = (1 - q)*(1 - beta/q)/w.  Ratios are compared
by products, so an update of 0 fails a test before any ratio is formed.
The stop test (update <= tol and FD residual <= K*tol) is unchanged, the
recorded update is the cycle's own step, and a stop leaves the last
cycle's own output, so what a stop certifies is what it certified for
the plain loop.  A finite-difference Jacobian of the cycle map at the root
puts its spectrum in [0.196, 0.963], [0.560, 0.961] and [0.855, 0.971] for
the N = M = 20 sin(pi*x)*sin(pi*y) source at K = 50 and eps
0.1/0.01/0.001; that source takes 49/63/77 cycles, and f = 1 at
N = M = 100 130/66/60.  The window keeps the rule off the swinging early
updates of runs near the divergent sources (f = 160 at N = 6) and of the
stalled K = 3 run.  The annulus's fixed schedule is never accelerated.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ab_recursion",
    "c_operator",
    "outer_loop",
]

# the heavy-ball rule (see the docstring): it arms once _RATIOS successive
# plain update ratios lie in (_BAND_LOW, 1), the largest within _DRIFT of the
# smallest; it restarts when an update exceeds _GROWTH times the smallest since
# it armed; it lowers m when the accelerated ratio settles above _SETTLE*sqrt(beta);
# and it takes L = (1 - mu_lo)/_FLOOR_SHARE
_RATIOS = 4
_BAND_LOW = 2.0 / 3.0
_DRIFT = 0.02
_GROWTH = 4.0
_SETTLE = 1.05
_FLOOR_SHARE = 0.9


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

    With a test, the heavy-ball rule of the module docstring moves a cycle
    that fails it and is not the last allowed one from its output x + D to
    x + w*D + beta*(x - x_prev) once the rule is armed.  mu_lo is
    ``floor(state)`` < 1 at the arming cycle's output, or 0 without
    ``floor``.  A stop always leaves the last cycle's own output in the
    state; a fixed schedule is never accelerated.
    """
    step, move = np.empty_like(state), np.zeros_like(state)  # D, and x - x_prev
    updates = []
    armed, chain = False, 0  # while unarmed, updates[chain:] have the plain map's ratios
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
        if k == cap - 1:
            break
        along = np.vdot(step, move)
        if armed and (along < 0.0 or updates[-1] > _GROWTH * best):
            armed, chain = False, k  # restart: this cycle is plain
        elif armed:
            best = min(best, updates[-1])
            q = _steady_ratio(updates, since, _SETTLE * math.sqrt(beta))
            if q is not None:  # a root q > sqrt(beta): lower m to its mode's
                w, beta = _heavy_ball((1.0 - q) * (1.0 - beta / q) / w, L)
                since = k
        elif along > 0.0 and (rho := _steady_ratio(updates, chain, _BAND_LOW)) is not None:
            L = (1.0 - (0.0 if floor is None else floor(state))) / _FLOOR_SHARE
            w, beta = _heavy_ball(1.0 - rho, L)
            armed, best, since = True, updates[-1], k
        if armed:
            move *= beta
            move += w * step
            state += move
            state -= step
        else:
            step, move = move, step
    return np.array(updates), "fixed_iters" if converged is None else "max_iter"


def _heavy_ball(m: float, L: float) -> tuple[float, float]:
    """Polyak's step w = 4/(sqrt(L) + sqrt(m))^2 and momentum
    beta = ((sqrt(L) - sqrt(m))/(sqrt(L) + sqrt(m)))^2 for I - J in [m, L]."""
    s, t = math.sqrt(L), math.sqrt(m)
    return 4.0 / (s + t) ** 2, ((s - t) / (s + t)) ** 2


def _steady_ratio(updates: list[float], start: int, low: float) -> float | None:
    """The geometric mean of the last _RATIOS ratios of ``updates[start:]``
    when there are that many, each lies in (low, 1) and the largest is
    within _DRIFT of the smallest, else None.  The band is tested by
    products, so an update of 0 fails it before any ratio is formed."""
    if len(updates) - start <= _RATIOS:
        return None
    u = updates[-_RATIOS - 1:]
    if not all(low * a < b < a for a, b in zip(u, u[1:])):
        return None
    r = [b / a for a, b in zip(u, u[1:])]
    return (u[-1] / u[0]) ** (1.0 / _RATIOS) if max(r) <= (1.0 + _DRIFT) * min(r) else None
