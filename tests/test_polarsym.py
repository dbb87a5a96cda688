import numpy as np
import pytest

from proxgml.polarsym import (
    PolarSymbolicConfig,
    _BackwardPass,
    _sweep_rows,
    cross_check_numeric,
    polar_numeric_solve,
    symbolic_solve,
)
from proxgml.sweep import ab_recursion, c_operator
from proxgml.symalg import (
    BoundaryPolynomial,
    TruncationSpec,
    poly_add,
    poly_const,
    poly_diff,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_symbol,
    poly_zero,
)

CONST = (0, 0, 0, 0, 0)
LIN = (1, 0, 0, 0, 0)


def zero_anchors(cfg):
    return [poly_zero(cfg.trunc)] * (cfg.n_lines + 1)


def _rows(polys):
    return np.array([p.coeffs for p in polys])


def _polys(cfg, rows):
    return [BoundaryPolynomial.from_coeffs(row, cfg.trunc) for row in rows]


def symbolic_sweep(cfg, anchors):
    """The solve's sweep on a list of polynomial anchors, lines 0..n_lines.

    Returns scalar arrays a, b (entry k for line k+1) and the list of
    polynomials c (same indexing); f is the constant 1.
    """
    a, b = ab_recursion(cfg.prox_weight, cfg.d, cfg.epsilon, cfg.n_lines - 1)
    return a, b, _polys(cfg, _sweep_rows(cfg, c_operator(a), _rows(anchors)))


def symbolic_backward_pass(cfg, a, b, c, anchors):
    """The solve's explicit backward pass on polynomial lists; lines 0..n_lines."""
    backward = _BackwardPass(cfg, a, b)
    backward.u[1:] = _rows(anchors[1:])  # line 0 is the inner circle, u = 0
    backward(_rows(c))
    return _polys(cfg, backward.u.copy())


def test_config_validation():
    with pytest.raises(ValueError):
        PolarSymbolicConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        PolarSymbolicConfig(epsilon=0.1, iters=0)
    for bad in (
        dict(epsilon=float("nan")),
        dict(epsilon=float("inf")),
        dict(epsilon=0.1, prox_weight=-1000.0),
        dict(epsilon=0.1, prox_weight=float("nan")),
        dict(epsilon=0.1, alpha=float("inf")),
        dict(epsilon=0.1, beta=float("nan")),
    ):
        with pytest.raises(ValueError):
            PolarSymbolicConfig(**bad)
    cfg = PolarSymbolicConfig(epsilon=0.1)
    assert cfg.d == pytest.approx(0.01)
    assert cfg.radius(0) == 1.0 and cfg.radius(100) == 2.0


def test_config_rejects_truncation_without_uf():
    # the outer line is the bare symbol uf, so its exponent must be admitted
    with pytest.raises(ValueError, match="TruncationSpec"):
        PolarSymbolicConfig(epsilon=0.1, trunc=TruncationSpec((0, 1, 1, 0, 0)))
    with pytest.raises(ValueError, match="TruncationSpec"):
        PolarSymbolicConfig(epsilon=0.1, trunc=(3, 1, 1, 0, 0))


def test_sweep_zero_anchors_constant_c():
    cfg = PolarSymbolicConfig(epsilon=0.1, n_lines=10)
    a, b, c = symbolic_sweep(cfg, zero_anchors(cfg))
    for p in c:
        assert set(p.terms) <= {CONST}


def test_sweep_zero_weight_anchor_independent():
    cfg = PolarSymbolicConfig(epsilon=0.1, n_lines=10, prox_weight=0.0)
    anchors = zero_anchors(cfg)
    anchors[3] = poly_const(2.5, cfg.trunc)
    _, _, c0 = symbolic_sweep(cfg, zero_anchors(cfg))
    _, _, c1 = symbolic_sweep(cfg, anchors)
    assert c0 == c1


def test_sweep_base_case_values():
    # K=10, d=0.01, eps=0.01: K d^2/eps = 0.1, a_1 = 1/2.1
    cfg = PolarSymbolicConfig(epsilon=0.01)
    anchors = zero_anchors(cfg)
    anchors[1] = poly_const(0.2, cfg.trunc)
    a, b, c = symbolic_sweep(cfg, anchors)
    assert a[0] == pytest.approx(1.0 / 2.1, rel=1e-15)
    assert b[0] == a[0]
    kap = cfg.d**2 / cfg.epsilon
    assert c[0].coefficient(CONST) == pytest.approx(a[0] * (10.0 * 0.2 + 1.0) * kap)


def test_backward_pass_first_step_hand_unrolled():
    cfg = PolarSymbolicConfig(epsilon=0.1)
    anchors = zero_anchors(cfg)
    a, b, c = symbolic_sweep(cfg, anchors)
    u = symbolic_backward_pass(cfg, a, b, c, anchors)
    m8 = cfg.n_lines
    n = m8 - 1
    kap = cfg.d**2 / cfg.epsilon
    t = cfg.radius(n)
    got = u[n]
    # u_{m8-1} = a uf + b(-uf^3 + uf) kap + c + b d^2 uf''/t^2, no radial term
    assert got.coefficient(LIN) == pytest.approx(a[n - 1] + b[n - 1] * kap, rel=1e-14)
    assert got.coefficient((3, 0, 0, 0, 0)) == pytest.approx(-b[n - 1] * kap, rel=1e-14)
    assert got.coefficient(CONST) == pytest.approx(c[n - 1].coefficient(CONST), rel=1e-14)
    assert got.coefficient((0, 0, 1, 0, 0)) == pytest.approx(
        b[n - 1] * cfg.d**2 / t**2, rel=1e-14)
    assert u[m8] == poly_symbol(0, cfg.trunc)
    assert u[0] == poly_zero(cfg.trunc)


def test_backward_pass_radial_term_uses_anchors():
    cfg = PolarSymbolicConfig(epsilon=0.1, n_lines=4)
    anchors = zero_anchors(cfg)
    anchors[3] = poly_const(1.0, cfg.trunc)
    a, b, c = symbolic_sweep(cfg, zero_anchors(cfg))
    base = symbolic_backward_pass(cfg, a, b, c, zero_anchors(cfg))
    with_anchor = symbolic_backward_pass(cfg, a, b, c, anchors)
    # line 3 gains +b_3*d*(0-1)/t_3, line 2 gains +b_2*d*(1-0)/t_2 plus the
    # propagated change through u_3
    n = 3
    delta3 = with_anchor[3].coefficient(CONST) - base[3].coefficient(CONST)
    assert delta3 == pytest.approx(-b[n - 1] * cfg.d / cfg.radius(n), rel=1e-13)


def _random_anchors(cfg, seed):
    rng = np.random.default_rng(seed)
    basis = list(cfg.trunc.basis)
    return [poly_zero(cfg.trunc)] + [
        BoundaryPolynomial({e: float(rng.uniform(-0.5, 0.5)) for e in basis}, cfg.trunc)
        for _ in range(cfg.n_lines)
    ]


def _max_coeff_diff(ps, qs):
    assert len(ps) == len(qs)
    return max(abs(p.coefficient(e) - q.coefficient(e))
               for p, q in zip(ps, qs) for e in set(p.terms) | set(q.terms))


def _polynomial_c_recursion(cfg, a, anchors):
    # the c-recursion spelled out with the public polynomial functions
    kap = cfg.d**2 / cfg.epsilon
    one = poly_const(1.0, cfg.trunc)
    ref = [poly_scale(poly_add(poly_scale(anchors[1], cfg.prox_weight), one), a[0] * kap)]
    for i in range(2, cfg.n_lines):
        ft = poly_scale(poly_add(poly_scale(anchors[i], cfg.prox_weight), one), kap)
        ref.append(poly_scale(poly_add(ref[-1], ft), a[i - 1]))
    return ref


def _line_by_line_scheme(cfg, a, b, c, anchors):
    # the explicit scheme spelled out with the public polynomial functions
    kap = cfg.d**2 / cfg.epsilon
    ref = [poly_zero(cfg.trunc)] * (cfg.n_lines + 1)
    ref[cfg.n_lines] = poly_symbol(0, cfg.trunc)
    for n in range(cfg.n_lines - 1, 0, -1):
        t, un1 = cfg.radius(n), ref[n + 1]
        cubic = poly_mul(poly_mul(un1, un1), un1)
        reaction = poly_add(poly_scale(cubic, -cfg.alpha), poly_scale(un1, cfg.beta))
        expr = poly_add(poly_scale(un1, a[n - 1]), poly_scale(reaction, b[n - 1] * kap))
        expr = poly_add(expr, c[n - 1])
        expr = poly_add(expr, poly_scale(poly_diff(poly_diff(un1)), b[n - 1] * cfg.d**2 / t**2))
        radial = poly_add(anchors[n + 1], poly_scale(anchors[n], -1.0))
        ref[n] = poly_add(expr, poly_scale(radial, b[n - 1] * cfg.d / t))
    return ref


def test_sweep_matches_polynomial_recursion():
    cfg = PolarSymbolicConfig(epsilon=0.05, n_lines=10)
    anchors = _random_anchors(cfg, 3)
    a, _, c = symbolic_sweep(cfg, anchors)
    assert _max_coeff_diff(c, _polynomial_c_recursion(cfg, a, anchors)) <= 1e-15


# bases of 16, 32 and 48 monomials
ROW_STEP_CAPS = [(3, 1, 1, 0, 0), (3, 1, 1, 1, 0), (2, 1, 1, 1, 1)]


def test_backward_pass_matches_line_by_line_scheme():
    for caps in ROW_STEP_CAPS:
        cfg = PolarSymbolicConfig(epsilon=0.05, n_lines=10, alpha=1.3, beta=0.7,
                                  trunc=TruncationSpec(caps))
        anchors = _random_anchors(cfg, 5)
        a, b, c = symbolic_sweep(cfg, anchors)
        got = symbolic_backward_pass(cfg, a, b, c, anchors)
        ref = _line_by_line_scheme(cfg, a, b, c, anchors)
        assert len(got[1].terms) > 8  # the random anchors fill the basis
        assert _max_coeff_diff(got, ref) <= 1e-15, caps


def test_sweep_and_backward_pass_match_references_over_two_blocks():
    # 39 coefficient rows: the c operator carries across a block boundary
    for caps in ROW_STEP_CAPS:
        cfg = PolarSymbolicConfig(epsilon=0.05, n_lines=40, alpha=1.3, beta=0.7,
                                  trunc=TruncationSpec(caps))
        anchors = _random_anchors(cfg, 6)
        a, b, c = symbolic_sweep(cfg, anchors)
        assert _max_coeff_diff(c, _polynomial_c_recursion(cfg, a, anchors)) <= 1e-15, caps
        got = symbolic_backward_pass(cfg, a, b, c, anchors)
        assert _max_coeff_diff(got, _line_by_line_scheme(cfg, a, b, c, anchors)) <= 1e-15, caps


def test_solve_cycles_match_polynomial_references():
    # the solve reuses one work buffer across cycles: no cycle may see the
    # boundary row, zero slot, unit column or cube slots of the one before
    for caps in ROW_STEP_CAPS:
        cfg = PolarSymbolicConfig(epsilon=0.05, n_lines=12, iters=4, alpha=1.3, beta=0.7,
                                  trunc=TruncationSpec(caps))
        a, b = ab_recursion(cfg.prox_weight, cfg.d, cfg.epsilon, cfg.n_lines - 1)
        ref = zero_anchors(cfg)
        for _ in range(cfg.iters):
            ref = _line_by_line_scheme(cfg, a, b, _polynomial_c_recursion(cfg, a, ref), ref)
        assert _max_coeff_diff(symbolic_solve(cfg), ref) <= 1e-14, caps


def test_solve_loop_does_no_per_row_work(monkeypatch):
    # the row step applies operators built once per solve on buffers the
    # solve owns: no multiplication matrix per row (poly_mul builds one too)
    # and no radius lookup per row
    def forbidden(*args, **kwargs):
        raise AssertionError("TruncationSpec.mul_matrix called in the annulus solve")

    radius_calls = []
    radius = PolarSymbolicConfig.radius

    def counted(cfg, n):
        radius_calls.append(n)
        return radius(cfg, n)

    monkeypatch.setattr(TruncationSpec, "mul_matrix", forbidden)
    monkeypatch.setattr(PolarSymbolicConfig, "radius", counted)
    cfg = PolarSymbolicConfig(epsilon=0.1, n_lines=20, iters=5)
    lines = symbolic_solve(cfg)
    assert len(lines) == cfg.n_lines + 1
    assert len(radius_calls) <= cfg.n_lines


def test_all_caps_respected_every_line(symbolic_lines_eps01):
    cfg, lines = symbolic_lines_eps01
    for p in lines:
        for e in p.terms:
            assert e in cfg.trunc.basis


def test_reference_line_constants_eps_01(symbolic_lines_eps01):
    cfg, lines = symbolic_lines_eps01
    assert lines[50].coefficient(CONST) == pytest.approx(1.1316, abs=2e-3)
    assert lines[50].coefficient(LIN) == pytest.approx(0.1277, abs=5e-4)


def test_reference_line_constants_eps_001(symbolic_lines_eps001):
    cfg, lines = symbolic_lines_eps001
    assert lines[60].coefficient(CONST) == pytest.approx(1.32449, abs=2e-3)
    assert lines[60].coefficient(LIN) == pytest.approx(0.000036, abs=2e-6)
    assert lines[90].coefficient(CONST) == pytest.approx(1.14766, abs=2e-3)
    assert lines[90].coefficient(LIN) == pytest.approx(0.296, abs=5e-3)


def test_extra_cycle_is_a_contraction(symbolic_lines_eps001):
    cfg, lines = symbolic_lines_eps001
    a, b, c = symbolic_sweep(cfg, lines)
    again = symbolic_backward_pass(cfg, a, b, c, lines)
    worst = 0.0
    for p, q in zip(lines[1:-1], again[1:-1]):
        keys = set(p.terms) | set(q.terms)
        for k in keys:
            worst = max(worst, abs(p.coefficient(k) - q.coefficient(k)))
    assert worst < 1e-9


def test_numeric_mirror_zero_boundary_matches_constants(symbolic_lines_eps01):
    cfg, lines = symbolic_lines_eps01
    num = polar_numeric_solve(cfg, np.zeros(16))
    consts = np.array([lines[n].coefficient(CONST) for n in range(1, cfg.n_lines)])
    assert np.max(np.abs(consts - num[1:-1, 0])) <= 2e-2


def test_cross_check_zero_boundary(symbolic_lines_eps01):
    cfg, lines = symbolic_lines_eps01
    z = np.zeros(16)
    report = cross_check_numeric(cfg, z, z, lines)
    assert report.sup_diff <= 2e-2


def test_cross_check_constant_small_boundary(symbolic_lines_eps01):
    cfg, lines = symbolic_lines_eps01
    g = np.full(16, 0.05)
    report = cross_check_numeric(cfg, g, np.zeros(16), lines)
    assert report.sup_diff <= 3e-2


def test_cross_check_sine_boundary(symbolic_lines_eps01):
    cfg, lines = symbolic_lines_eps01
    th = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    report = cross_check_numeric(cfg, 0.1 * np.sin(th), -0.1 * np.sin(th), lines)
    assert report.sup_diff <= 3e-2


def test_mid_annulus_plateau_small_epsilon():
    cfg = PolarSymbolicConfig(epsilon=0.01)
    num = polar_numeric_solve(cfg, np.zeros(8))
    for n in (45, 50, 55, 60):
        assert num[n, 0] == pytest.approx(1.3247, abs=5e-3)


def test_cross_check_rejects_lines_of_another_configuration():
    cfg = PolarSymbolicConfig(epsilon=0.1, n_lines=20, iters=5)
    z = np.zeros(8)
    longer = symbolic_solve(PolarSymbolicConfig(epsilon=0.1, n_lines=40, iters=5))
    with pytest.raises(ValueError, match="21 polynomials"):
        cross_check_numeric(cfg, z, z, longer)
    other = PolarSymbolicConfig(epsilon=0.1, n_lines=20, iters=5,
                                trunc=TruncationSpec((3, 1, 1, 1, 0)))
    with pytest.raises(ValueError, match="21 polynomials"):
        cross_check_numeric(cfg, z, z, symbolic_solve(other))
    assert cross_check_numeric(cfg, z, z, symbolic_solve(cfg)).sup_diff <= 2e-2


BAD_SAMPLES = {"empty": [], "nan": [np.nan, 1.0, 2.0], "inf": [np.inf] * 4,
               "two-dimensional": np.zeros((2, 4))}


@pytest.mark.parametrize("samples", BAD_SAMPLES.values(), ids=BAD_SAMPLES.keys())
def test_boundary_samples_must_be_finite_and_non_empty(samples):
    cfg = PolarSymbolicConfig(epsilon=0.1, n_lines=4, iters=2)
    samples = np.array(samples)
    zeros = np.zeros_like(samples)
    with pytest.raises(ValueError, match="boundary"):
        polar_numeric_solve(cfg, samples)
    with pytest.raises(ValueError, match="boundary"):
        cross_check_numeric(cfg, samples, zeros)
    with pytest.raises(ValueError, match="boundary"):
        cross_check_numeric(cfg, zeros, samples)


def test_diverging_solve_returns_non_finite_lines_without_warning():
    # K = 0 at eps = 1e-4 overflows within 20 cycles; RuntimeWarning fails the suite
    cfg = PolarSymbolicConfig(epsilon=1e-4, n_lines=10, prox_weight=0.0, iters=20)
    lines = symbolic_solve(cfg)
    assert not np.all(np.isfinite(lines[5].coeffs))
    assert lines[5].terms
