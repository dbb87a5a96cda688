import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxgml.symalg import (
    DEFAULT_TRUNCATION,
    BoundaryPolynomial,
    TruncationSpec,
    format_terms,
    from_json_dict,
    poly_add,
    poly_const,
    poly_diff,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_symbol,
    poly_zero,
    to_json_dict,
)

UF = poly_symbol(0)
UF1 = poly_symbol(1)
UF2 = poly_symbol(2)


def coeffs_strategy():
    return st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


@st.composite
def polynomials(draw, caps=DEFAULT_TRUNCATION.caps):
    exps = st.tuples(*(st.integers(0, c) for c in caps))
    terms = draw(st.dictionaries(exps, coeffs_strategy(), max_size=6))
    return BoundaryPolynomial(terms, TruncationSpec(caps))


# -- basic examples -----------------------------------------------------------

def test_add_identity_and_cancellation():
    p = poly_add(poly_const(1.0), UF)
    assert poly_add(p, poly_zero()) == p
    two_uf = poly_scale(UF, 2.0)
    assert poly_add(two_uf, poly_scale(UF, -2.0)) == poly_zero()


def test_add_merges_terms():
    p = poly_add(poly_const(1.0), UF)
    q = poly_add(UF, UF2)
    s = poly_add(p, q)
    assert s.coefficient((0, 0, 0, 0, 0)) == 1.0
    assert s.coefficient((1, 0, 0, 0, 0)) == 2.0
    assert s.coefficient((0, 0, 1, 0, 0)) == 1.0


def test_mul_cap_enforcement():
    uf3 = poly_mul(poly_mul(UF, UF), UF)
    assert poly_mul(UF, uf3) == poly_zero()  # exponent 4 > cap 3
    assert poly_mul(UF1, UF1) == poly_zero()  # uf' capped at 1


def test_mul_truncates_quintic_tail():
    # (u - u^3) * u^2 keeps only u^3; the u^5 term dies on the cap
    uf2 = poly_mul(UF, UF)
    p = poly_add(UF, poly_scale(poly_mul(uf2, UF), -1.0))
    prod = poly_mul(p, uf2)
    assert prod == poly_mul(uf2, UF)


def test_diff_ladder_and_caps():
    assert poly_diff(poly_const(3.0)) == poly_zero()
    assert poly_diff(poly_mul(UF, UF)) == poly_scale(poly_mul(UF, UF1), 2.0)
    assert poly_diff(poly_diff(UF)) == UF2
    # uf'' differentiates to uf''' whose cap is 0
    assert poly_diff(UF2) == poly_zero()


def test_eval_examples():
    assert poly_eval(poly_const(1.3247), 7.0, -2.0, 100.0) == pytest.approx(1.3247)
    p = poly_add(UF, poly_scale(UF2, -1.0))
    assert poly_eval(p, 2.0, 0.0, 3.0) == pytest.approx(-1.0)


def test_eval_rejects_live_high_derivatives():
    spec = TruncationSpec((3, 1, 1, 1, 0))
    with pytest.raises(ValueError):
        poly_eval(poly_const(1.0, spec), 0.0, 0.0, 0.0)


def test_spec_rejects_bad_caps():
    # a fractional cap would otherwise construct and fail later, inside basis
    for caps in ((2.5, 1, 1, 0, 0), (3, 1, 1, 0), (3, -1, 1, 0, 0)):
        with pytest.raises(ValueError, match="non-negative integers"):
            TruncationSpec(caps)
    assert len(TruncationSpec((np.int64(3), 1, 1, 0, 0)).basis) == 16


def test_spec_caps_are_normalised_to_a_tuple_of_ints():
    # a list or numpy-integer spec is the same spec as the plain tuple one
    listed = TruncationSpec([3, 1, 1, 0, 0])
    numpy_ints = TruncationSpec(tuple(np.int64(c) for c in (3, 1, 1, 0, 0)))
    for spec in (listed, numpy_ints):
        assert spec == DEFAULT_TRUNCATION
        assert hash(spec) == hash(DEFAULT_TRUNCATION)
        assert type(spec.caps) is tuple and all(type(c) is int for c in spec.caps)
    assert hash(poly_const(1.0, listed)) == hash(poly_const(1.0, DEFAULT_TRUNCATION))
    total = poly_add(poly_const(1.0, listed), poly_const(2.0, DEFAULT_TRUNCATION))
    assert total == poly_const(3.0)


def test_trunc_spec_mismatch_rejected():
    other = poly_const(1.0, TruncationSpec((2, 1, 1, 0, 0)))
    with pytest.raises(ValueError):
        poly_add(poly_const(1.0), other)
    with pytest.raises(ValueError):
        poly_mul(UF, other)


def test_equality_ignores_term_order():
    p = BoundaryPolynomial({(1, 0, 0, 0, 0): 2.0, (0, 0, 1, 0, 0): -1.0})
    q = BoundaryPolynomial({(0, 0, 1, 0, 0): -1.0, (1, 0, 0, 0, 0): 2.0})
    assert p == q and hash(p) == hash(q)


def test_canonical_drops_out_of_cap_terms():
    p = BoundaryPolynomial({(4, 0, 0, 0, 0): 1.0, (1, 0, 0, 0, 0): 2.0})
    assert p.terms == {(1, 0, 0, 0, 0): 2.0}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_are_kept(bad):
    # a diverged solve must not read as the zero polynomial
    p = BoundaryPolynomial({(0, 0, 0, 0, 0): bad, (1, 0, 0, 0, 0): 1e-310})
    assert list(p.terms) == [(0, 0, 0, 0, 0)]
    np.testing.assert_array_equal(p.coefficient((0, 0, 0, 0, 0)), bad)
    assert to_json_dict(p)["terms"][0]["exp"] == [0, 0, 0, 0, 0]
    assert format_terms(p) != "0"
    coeffs = np.zeros(len(DEFAULT_TRUNCATION.basis))
    coeffs[1] = bad
    assert len(BoundaryPolynomial.from_coeffs(coeffs).terms) == 1


def test_json_round_trip_sorted():
    p = poly_add(poly_add(poly_const(0.478), poly_scale(UF, 0.0122)),
                 poly_scale(UF2, 0.00069))
    d = to_json_dict(p)
    exps = [tuple(t["exp"]) for t in d["terms"]]
    assert exps == sorted(exps)
    assert from_json_dict(json.loads(json.dumps(d))) == p


def test_format_terms_readable():
    p = poly_add(poly_const(0.5), poly_scale(poly_mul(poly_mul(UF, UF), UF2), -0.25))
    text = format_terms(p)
    assert text.startswith("0.5")
    assert "uf^2*uf''" in text
    assert format_terms(poly_zero()) == "0"


# -- ring properties ----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_mul_associative_and_distributive(p, q, r):
    left = poly_mul(poly_mul(p, q), r)
    right = poly_mul(p, poly_mul(q, r))
    assert _close(left, right)
    assert _close(poly_mul(p, poly_add(q, r)), poly_add(poly_mul(p, q), poly_mul(p, r)))


@settings(max_examples=200, deadline=None)
@given(polynomials(), polynomials())
def test_mul_commutative(p, q):
    assert _close(poly_mul(p, q), poly_mul(q, p))


@settings(max_examples=200, deadline=None)
@given(polynomials(caps=(1, 0, 0, 0, 0)), polynomials(caps=(1, 0, 0, 0, 0)))
def test_product_rule_inside_caps(p, q):
    # lift cap-interior inputs into the default spec, where both the
    # product (degree <= 2) and its derivative stay representable
    p = BoundaryPolynomial(p.terms, DEFAULT_TRUNCATION)
    q = BoundaryPolynomial(q.terms, DEFAULT_TRUNCATION)
    lhs = poly_diff(poly_mul(p, q))
    rhs = poly_add(poly_mul(poly_diff(p), q), poly_mul(p, poly_diff(q)))
    assert _close(lhs, rhs)


@settings(max_examples=200, deadline=None)
@given(polynomials(caps=(1, 0, 0, 0, 0)), polynomials(caps=(1, 0, 0, 0, 0)),
       coeffs_strategy(), coeffs_strategy(), coeffs_strategy())
def test_eval_is_ring_homomorphism_without_truncation(p, q, x, x1, x2):
    p = BoundaryPolynomial(p.terms, DEFAULT_TRUNCATION)
    q = BoundaryPolynomial(q.terms, DEFAULT_TRUNCATION)
    lhs = poly_eval(poly_mul(p, q), x, x1, x2)
    rhs = poly_eval(p, x, x1, x2) * poly_eval(q, x, x1, x2)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
    assert poly_eval(poly_add(p, q), x, x1, x2) == pytest.approx(
        poly_eval(p, x, x1, x2) + poly_eval(q, x, x1, x2), rel=1e-9, abs=1e-9)


def _close(p, q, tol=1e-9):
    keys = set(p.terms) | set(q.terms)
    return all(
        math.isclose(p.coefficient(k), q.coefficient(k), rel_tol=tol, abs_tol=tol)
        for k in keys
    )


# -- table kernels against term-by-term references ----------------------------

def _brute_mul(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if e in p.trunc.basis:
                out[e] = out.get(e, 0.0) + c1 * c2
    return out


def _brute_diff(p):
    out = {}
    for e, c in p.terms.items():
        for i in range(4):
            bumped = e[:i] + (e[i] - 1, e[i + 1] + 1) + e[i + 2:]
            if e[i] > 0 and bumped in p.trunc.basis:
                out[bumped] = out.get(bumped, 0.0) + c * e[i]
    return out


def _random_terms(rng, spec):
    basis = list(spec.basis)
    picks = rng.choice(len(basis), size=int(rng.integers(0, len(basis) + 1)), replace=False)
    return BoundaryPolynomial({basis[k]: float(rng.uniform(-3.0, 3.0)) for k in picks}, spec)


@pytest.mark.parametrize("caps", [(3, 1, 1, 0, 0), (2, 1, 1, 0, 0), (2, 1, 1, 1, 1)])
def test_table_kernels_match_term_by_term_reference(caps):
    spec = TruncationSpec(caps)
    rng = np.random.default_rng(sum(caps))
    for _ in range(200):
        p, q = _random_terms(rng, spec), _random_terms(rng, spec)
        for got, want in ((poly_mul(p, q), _brute_mul(p, q)), (poly_diff(p), _brute_diff(p))):
            assert set(got.terms) == {e for e, c in want.items() if c != 0.0}
            for e, c in want.items():
                assert got.coefficient(e) == pytest.approx(c, rel=1e-14, abs=1e-14)


def test_coefficient_vector_is_read_only():
    p = poly_add(UF, poly_const(2.0))
    assert p.coeffs.shape == (len(DEFAULT_TRUNCATION.basis),) == (16,)
    with pytest.raises(ValueError):
        p.coeffs[0] = 5.0
    with pytest.raises(AttributeError):
        p.trunc = TruncationSpec((2, 1, 1, 0, 0))


def test_pickle_and_deepcopy_round_trip():
    p = poly_add(poly_mul(UF, UF2), poly_const(-0.5))
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert q == p and not q.coeffs.flags.writeable


@pytest.mark.parametrize("caps", [(3, 1, 1, 0, 0), (2, 1, 1, 0, 0), (2, 1, 1, 1, 1)])
def test_mul_matrix_matches_product_table(caps):
    spec = TruncationSpec(caps)
    rng = np.random.default_rng(11 + sum(caps))
    for _ in range(100):
        p, q = rng.uniform(-2.0, 2.0, size=(2, len(spec.basis)))
        # the product table summed term by term
        i, j, k = spec._products
        want = np.bincount(k, weights=p[i] * q[j], minlength=len(spec.basis))
        np.testing.assert_allclose(spec.mul_matrix(p) @ q, want, rtol=1e-14,
                                   atol=1e-14 * np.max(np.abs(want)))
    # one gathered entry of M(p) per product pair, each at its own position
    i, j, k = spec._products
    B = len(spec.basis)
    assert len(np.unique(k * B + j)) == len(i)
    assert np.count_nonzero(spec.mul_gather < B) == len(i)
    if caps == (3, 1, 1, 0, 0):
        assert len(i) == 90
