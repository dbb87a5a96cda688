"""Truncated polynomial algebra over the boundary-data symbols.

The variable ladder is (uf, uf', uf'', uf''', uf'''') -- the outer-circle
boundary value and its first four tangential derivatives.  A truncation
spec caps each exponent and so fixes a dense basis: every monomial within
the caps, in sorted order (the constant first).  A polynomial is its
coefficient vector over that basis; products and derivatives never form
a monomial over a cap, which reproduces the series-truncation semantics
of multiplying then cutting.  The default caps (3, 1, 1, 0, 0) give 16
monomials.  Each spec builds its product table, its derivative matrix
and the text of each monomial (for ``format_terms``) on first use.  M(p),
the matrix of q -> p*q, is one gather from [p, 0] through ``mul_gather``,
and it is the one definition of the product: ``poly_mul(p, q)`` is
M(p) @ q, and the annulus row step (``polarsym._BackwardPass``) runs the
same gather on its own buffers.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncationSpec",
    "DEFAULT_TRUNCATION",
    "BoundaryPolynomial",
    "poly_zero",
    "poly_const",
    "poly_symbol",
    "poly_add",
    "poly_scale",
    "poly_mul",
    "poly_diff",
    "poly_eval",
    "to_json_dict",
    "from_json_dict",
    "format_terms",
]

NVARS = 5
_NAMES = ("uf", "uf'", "uf''", "uf'''", "uf''''")

# canonical form keeps everything except exact underflow junk; printed-digit
# comparisons must not be polluted by epsilon pruning
_DROP_BELOW = 1e-300


def _is_exponent(e) -> bool:
    """A tuple of NVARS non-negative integers; a bool is not an integer here."""
    return isinstance(e, tuple) and len(e) == NVARS and all(
        isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 0 for x in e)


@dataclass(frozen=True)
class TruncationSpec:
    """Per-variable maximum exponents, and the dense basis they define."""

    caps: tuple[int, int, int, int, int] = (3, 1, 1, 0, 0)

    def __post_init__(self):
        # caps follow the exponent rule, so a bool cap is rejected too
        if not _is_exponent(tuple(self.caps)):
            raise ValueError(f"caps must be {NVARS} non-negative integers, got {self.caps}")
        object.__setattr__(self, "caps", tuple(int(c) for c in self.caps))

    @functools.cached_property
    def basis(self) -> dict:
        """Every monomial within the caps, in sorted order -> its coefficient position."""
        return {e: k for k, e in enumerate(itertools.product(*(range(c + 1) for c in self.caps)))}

    @functools.cached_property
    def mul_gather(self) -> np.ndarray:
        """Positions into [p, 0] that gather the B*B entries of M(p), row by row.

        M(p)[k, j] = p[i] for each product (i, j -> k): the monomials at
        positions i and j multiply to the one at k.  Monomials k and j fix
        i, so each (k, j) has at most one product and M(p) needs no
        summation: each entry is one coefficient of p or the trailing zero.
        """
        B = len(self.basis)
        gather = np.full(B * B, B, dtype=np.intp)
        for (e1, i), (e2, j) in itertools.product(self.basis.items(), repeat=2):
            k = self.basis.get(tuple(x + y for x, y in zip(e1, e2)))
            if k is not None:
                gather[k * B + j] = i
        gather.setflags(write=False)
        return gather

    def mul_matrix(self, p: np.ndarray) -> np.ndarray:
        """The matrix M(p) of q -> p*q, truncated to the caps."""
        B = len(self.basis)
        return np.append(p, 0.0)[self.mul_gather].reshape(B, B)

    @functools.cached_property
    def diff_matrix(self) -> np.ndarray:
        """d/dx via the symbol ladder uf -> uf' -> ... -> uf'''' as a matrix.

        Product rule per monomial; the ladder top differentiates to a symbol
        outside the tracked set and is dropped, as are monomials whose
        bumped exponent exceeds its cap.
        """
        D = np.zeros((len(self.basis), len(self.basis)))
        for e, k in self.basis.items():
            for i in range(NVARS - 1):
                bumped = e[:i] + (e[i] - 1, e[i + 1] + 1) + e[i + 2:]
                if e[i] > 0 and bumped in self.basis:
                    D[self.basis[bumped], k] += e[i]
        D.setflags(write=False)
        return D

    @functools.cached_property
    def monomial_text(self) -> tuple[str, ...]:
        """Each basis monomial as ``format_terms`` writes it ("uf^2*uf''"; "" for the constant)."""
        return tuple("*".join(name if k == 1 else f"{name}^{k}" for name, k in zip(_NAMES, e) if k)
                     for e in self.basis)


DEFAULT_TRUNCATION = TruncationSpec()


class BoundaryPolynomial:
    """Truncated real polynomial in the boundary symbols.

    Built from a term map {exponent tuple: coefficient}; a key that is not
    a tuple of five non-negative integers (bools excluded) raises
    ValueError.  Monomials over the caps and coefficients below 1e-300 in
    magnitude are dropped (a NaN or infinite coefficient is kept, so a
    diverged solve shows); stored as the read-only vector ``coeffs`` over
    ``trunc.basis``.  Equality is structural on the term map.  Instances
    are immutable; arithmetic goes through the module-level functions.
    """

    __slots__ = ("coeffs", "trunc")

    def __init__(self, terms: dict | None = None, trunc: TruncationSpec = DEFAULT_TRUNCATION):
        coeffs = np.zeros(len(trunc.basis))
        for e, c in (terms or {}).items():
            if not _is_exponent(e):
                raise ValueError(f"exponent must be {NVARS} non-negative integers, got {e!r}")
            k = trunc.basis.get(e)
            if k is not None and not abs(c) < _DROP_BELOW:  # keeps NaN and inf
                coeffs[k] = c
        self._set(coeffs, trunc)

    @classmethod
    def from_coeffs(cls, coeffs: np.ndarray, trunc: TruncationSpec = DEFAULT_TRUNCATION):
        """Wrap a vector over ``trunc.basis`` without copying; it becomes read-only."""
        if coeffs.shape != (len(trunc.basis),):
            raise ValueError(f"need {len(trunc.basis)} coefficients, got shape {coeffs.shape}")
        return cls.__new__(cls)._set(coeffs, trunc)

    def _set(self, coeffs: np.ndarray, trunc: TruncationSpec):
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "trunc", trunc)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("BoundaryPolynomial is immutable")

    def __reduce__(self):
        return BoundaryPolynomial.from_coeffs, (self.coeffs, self.trunc)

    @property
    def terms(self) -> dict:
        """{exponent tuple: coefficient} of the stored monomials, in basis order."""
        return {e: c for e, c in zip(self.trunc.basis, self.coeffs.tolist())
                if not abs(c) < _DROP_BELOW}

    def __eq__(self, other):
        return (isinstance(other, BoundaryPolynomial) and self.trunc == other.trunc
                and self.terms == other.terms)

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.trunc))

    def coefficient(self, exponents: tuple[int, ...]) -> float:
        return self.terms.get(tuple(exponents), 0.0)

    def __repr__(self):
        return f"BoundaryPolynomial({format_terms(self)!r})"


def poly_zero(trunc: TruncationSpec = DEFAULT_TRUNCATION) -> BoundaryPolynomial:
    return BoundaryPolynomial({}, trunc)


def poly_const(value: float, trunc: TruncationSpec = DEFAULT_TRUNCATION) -> BoundaryPolynomial:
    return BoundaryPolynomial({(0, 0, 0, 0, 0): float(value)}, trunc)


def poly_symbol(index: int, trunc: TruncationSpec = DEFAULT_TRUNCATION) -> BoundaryPolynomial:
    """The bare symbol of ladder position ``index`` (0 = uf, 1 = uf', ...)."""
    e = tuple(1 if i == index else 0 for i in range(NVARS))
    return BoundaryPolynomial({e: 1.0}, trunc)


def _require_same_trunc(p: BoundaryPolynomial, q: BoundaryPolynomial):
    if p.trunc != q.trunc:
        raise ValueError(f"truncation specs differ: {p.trunc} vs {q.trunc}")


def poly_add(p: BoundaryPolynomial, q: BoundaryPolynomial) -> BoundaryPolynomial:
    _require_same_trunc(p, q)
    return BoundaryPolynomial.from_coeffs(p.coeffs + q.coeffs, p.trunc)


def poly_scale(p: BoundaryPolynomial, s: float) -> BoundaryPolynomial:
    return BoundaryPolynomial.from_coeffs(p.coeffs * s, p.trunc)


def poly_mul(p: BoundaryPolynomial, q: BoundaryPolynomial) -> BoundaryPolynomial:
    """Distributive product; monomials exceeding any cap are discarded."""
    _require_same_trunc(p, q)
    return BoundaryPolynomial.from_coeffs(p.trunc.mul_matrix(p.coeffs) @ q.coeffs, p.trunc)


def poly_diff(p: BoundaryPolynomial) -> BoundaryPolynomial:
    """d/dx via the symbol ladder (see ``TruncationSpec.diff_matrix``)."""
    return BoundaryPolynomial.from_coeffs(p.trunc.diff_matrix @ p.coeffs, p.trunc)


def poly_eval(p: BoundaryPolynomial, u_f: float, u_f1: float, u_f2: float) -> float:
    """Numeric value at (uf, uf', uf''); requires caps 0 on uf''' and uf''''."""
    if p.trunc.caps[3] != 0 or p.trunc.caps[4] != 0:
        raise ValueError("poly_eval supports only specs with uf''' and uf'''' capped at 0")
    return sum((c * u_f ** e[0] * u_f1 ** e[1] * u_f2 ** e[2] for e, c in p.terms.items()), 0.0)


def to_json_dict(p: BoundaryPolynomial) -> dict:
    """JSON form: {"terms": [{"exp": [...], "coeff": ...}, ...]}, exp-sorted."""
    return {"terms": [{"exp": list(e), "coeff": c} for e, c in p.terms.items()]}


def from_json_dict(data: dict, trunc: TruncationSpec = DEFAULT_TRUNCATION) -> BoundaryPolynomial:
    """Inverse of ``to_json_dict``; a repeated exponent raises ValueError."""
    terms = {tuple(t["exp"]): float(t["coeff"]) for t in data["terms"]}
    if len(terms) != len(data["terms"]):
        # a later term would overwrite an equal key, e.g. [0, 0, False, 0, 0] after [0, 0, 0, 0, 0]
        raise ValueError("an exponent is repeated in the terms list")
    return BoundaryPolynomial(terms, trunc)


def format_terms(p: BoundaryPolynomial) -> str:
    """Human-readable rendering, constant first then by exponent order, at 6 significant digits."""
    pieces = []
    for monomial, c in zip(p.trunc.monomial_text, p.coeffs.tolist()):
        if abs(c) < _DROP_BELOW:
            continue
        text = " ".join(filter(None, ("%.6g" % c, monomial)))
        if pieces:
            text = "- " + text[1:] if text.startswith("-") else "+ " + text
        pieces.append(text)
    return " ".join(pieces) or "0"
