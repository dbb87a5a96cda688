"""Fixed reference kernels that measure how fast the machine runs right now.

On a shared host the speed of one core drifts by tens of percent, and it
swings by up to 1.8x from one half-second to the next.  A kernel timed
before or after a solve samples other instants than the solve itself, so
the benchmark samples the host *during* each timed block: ``Probe`` runs a
short kernel pass on a timer signal, every ``interval`` seconds, while the
block runs.  The block's own time (its wall time minus the passes) is then
scaled by ``reference / mean(passes)``: the result is the time on a machine
that runs one pass in ``reference`` seconds.  The kernels are benchmark code
and never change with the program, so a faster program still reads faster,
while a slow spell slows program and kernel alike.

Interpreted loops, small-object arithmetic and native sparse factorisation
slow down by different amounts in the same spell, so the kernel follows the
work of the block:

- ``cartesian`` and ``setup``: a pure-Python Thomas sweep, the line solves'
  inner loop (module imports are interpreter work too);
- ``oracle``: assembly and sparse LU solve of a 2D Laplacian (``spsolve``);
- ``annulus``: truncated sparse-polynomial arithmetic, the symbolic solve's
  work: small exponent-tuple dicts wrapped in immutable objects, created and
  dropped at a high rate.  The Thomas kernel does not follow these solves.

The set-up child imports this module before it starts its clock, so the
module imports nothing that ``import proxgml`` would load (numpy and scipy
are imported by the sparse kernel when it first runs).
"""

from __future__ import annotations

import signal
from functools import partial
from time import perf_counter


def _tridiagonal(diag: list, off: float, rhs: list) -> list:
    m = len(diag)
    cp = [0.0] * m
    dp = [0.0] * m
    cp[0] = off / diag[0]
    dp[0] = rhs[0] / diag[0]
    for j in range(1, m):
        piv = diag[j] - off * cp[j - 1]
        cp[j] = off / piv
        dp[j] = (rhs[j] - off * dp[j - 1]) / piv
    x = [0.0] * m
    x[-1] = dp[-1]
    for j in range(m - 2, -1, -1):
        x[j] = dp[j] - cp[j] * x[j + 1]
    return x


def _thomas(reps: int) -> None:
    diag = [3.0] * 99
    rhs = [1.0] * 99
    for _ in range(reps):
        rhs = _tridiagonal(diag, -1.0, rhs)


def _sparse_lu(m: int, iters: int) -> None:
    import numpy as np
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    t = sp.diags([np.ones(m - 1), -2.0 * np.ones(m), np.ones(m - 1)], [-1, 0, 1])
    lap = sp.kron(t, sp.identity(m)) + sp.kron(sp.identity(m), t)
    u = np.full(m * m, 0.5)
    for _ in range(iters):
        jac = (lap * -0.1 + sp.diags(3.0 * u**2 + 1.0)).tocsc()
        u = 0.5 + 0.1 * np.tanh(spla.spsolve(jac, np.ones(m * m)))


_CAPS = (3, 1, 1, 0, 0)  # per-variable exponent caps; at most 16 monomials


class _Poly:
    """Immutable map from exponent 5-tuples to coefficients, kept capped."""

    def __init__(self, terms: dict):
        object.__setattr__(self, "terms", {
            e: c for e, c in terms.items()
            if abs(c) >= 1e-300 and all(x <= k for x, k in zip(e, _CAPS))})

    def __setattr__(self, name, value):
        raise AttributeError("_Poly is immutable")


def _padd(p: _Poly, q: _Poly) -> _Poly:
    terms = dict(p.terms)
    for e, c in q.terms.items():
        terms[e] = terms.get(e, 0.0) + c
    return _Poly(terms)


def _pscale(p: _Poly, s: float) -> _Poly:
    return _Poly({e: c * s for e, c in p.terms.items()})


def _pmul(p: _Poly, q: _Poly) -> _Poly:
    terms: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3], e1[4] + e2[4])
            if e[0] <= 3 and e[1] <= 1 and e[2] <= 1 and e[3] <= 0 and e[4] <= 0:
                terms[e] = terms.get(e, 0.0) + c1 * c2
    return _Poly(terms)


def _pdiff(p: _Poly) -> _Poly:
    """Shift one exponent up the variable ladder, product-rule weighted."""
    terms: dict = {}
    for e, c in p.terms.items():
        for i in range(len(e) - 1):
            if e[i] > 0:
                ne = list(e)
                ne[i] -= 1
                ne[i + 1] += 1
                ne = tuple(ne)
                terms[ne] = terms.get(ne, 0.0) + c * e[i]
    return _Poly(terms)


_BASE = _Poly({(a, b, c, 0, 0): 1.0 / (1 + a + 2 * b + 3 * c)
               for a in range(4) for b in range(2) for c in range(2)})


def _polynomial(steps: int) -> None:
    u, v = _BASE, _pscale(_BASE, 0.5)
    for _ in range(steps):
        w = _padd(_padd(_pmul(u, v), _pscale(_pdiff(u), 0.01)), _BASE)
        u, v = _pscale(w, 1.0 / max(abs(c) for c in w.terms.values())), u


class ProbeKind:
    """A short kernel pass, its time on a quiet core of the baseline host, and
    the seconds between passes (about 20 passes' worth)."""

    def __init__(self, kernel, reference: float, interval: float):
        self.kernel, self.reference, self.interval = kernel, reference, interval


_THOMAS = ProbeKind(partial(_thomas, 100), 0.0017, 0.04)

# workload kind (or "setup") -> its probe
PROBES = {
    "cartesian": _THOMAS,
    "setup": _THOMAS,
    "annulus": ProbeKind(partial(_polynomial, 8), 0.0022, 0.04),
    "oracle": ProbeKind(partial(_sparse_lu, 40, 1), 0.005, 0.1),
}


class Probe:
    """Context manager: time short kernel passes on SIGALRM while a block runs.

    Python runs the handler between bytecodes, so during a long native call
    the next pass waits until the call returns.  A block that ended before
    the first signal gets one pass at its end.
    """

    def __init__(self, kind: ProbeKind):
        self.kind = kind
        self.passes: list[float] = []

    def _pass(self, *_) -> None:
        t0 = perf_counter()
        self.kind.kernel()
        self.passes.append(perf_counter() - t0)

    def __enter__(self) -> Probe:
        self.passes = []
        self._old = signal.signal(signal.SIGALRM, self._pass)
        signal.setitimer(signal.ITIMER_REAL, self.kind.interval, self.kind.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.passes:
            self._pass()

    def scale(self) -> float:
        """Factor that turns seconds measured in the block into reference seconds."""
        return self.kind.reference * len(self.passes) / sum(self.passes)
