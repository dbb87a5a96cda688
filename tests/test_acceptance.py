"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines
as they are produced.
"""

import numpy as np
import pytest

from proxgml.linebvp import TridiagonalSystem, assemble_line_system, thomas_solve
from proxgml.oracle import compare_fields, newton_solve
from proxgml.polarsym import cross_check_numeric, polar_numeric_solve
from proxgml.problem import LineGrid
import proxgml.proximal as proximal
from proxgml.proximal import proximal_iterate
from proxgml.sweep import ab_recursion
from proxgml.symalg import (
    DEFAULT_TRUNCATION,
    BoundaryPolynomial,
    poly_add,
    poly_diff,
    poly_eval,
    poly_mul,
)

from conftest import UNIT_SQUARE, square_problem

CONST = (0, 0, 0, 0, 0)
LIN = (1, 0, 0, 0, 0)

REFERENCE_CONSTANTS = {
    0.1: {10: 0.4780, 20: 0.7919, 30: 0.9823, 40: 1.0888, 50: 1.1316,
          60: 1.1104, 70: 1.0050, 80: 0.7838, 90: 0.4359},
    0.01: {10: 1.0057, 20: 1.2512, 30: 1.3078, 40: 1.3208, 50: 1.3238,
           60: 1.32449, 70: 1.32425, 80: 1.31561, 90: 1.14766},
}


def _report(num, name, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _cubic_root_oracle():
    # 10 Newton steps on u^3 - u - 1 = 0 from u = 1.5
    u = 1.5
    for _ in range(10):
        u -= (u**3 - u - 1.0) / (3.0 * u**2 - 1.0)
    return u


def test_criterion_01_plateau(reference_runs_n100):
    grid, runs = reference_runs_n100
    _, report = runs[0.001]
    center = report.solution.values[50, 50]
    root = _cubic_root_oracle()
    ok = report.converged and abs(center - root) <= 5e-3
    _report(1, "small-epsilon plateau", ok,
            f"center={center:.6f} root={root:.6f} |diff|={abs(center - root):.2e}")


def _layer_width(report, grid):
    line = report.solution.values[:, grid.m_nodes // 2]
    center = report.solution.values[grid.n_lines // 2, grid.m_nodes // 2]
    idx = int(np.argmax(line > 0.9 * center))
    return idx * grid.d


def test_criterion_02_epsilon_sweep(reference_runs_n100):
    grid, runs = reference_runs_n100
    centers = []
    widths = []
    for eps in (0.1, 0.01, 0.001):
        _, report = runs[eps]
        centers.append(report.solution.values[50, 50])
        widths.append(_layer_width(report, grid))
    increasing = centers[0] < centers[1] < centers[2] <= 1.3247 + 5e-3
    shrinking = widths[0] > widths[1] > widths[2]
    ok = increasing and shrinking
    _report(2, "epsilon sweep monotonicity", ok,
            f"centers={['%.4f' % c for c in centers]} widths={widths}")


def test_criterion_03_proximal_consistency(reference_runs_n100, run_eps01_n20):
    grid, runs = reference_runs_n100
    tol = 1e-8
    cases = [(eps, spec, rep) for eps, (spec, rep) in runs.items()]
    spec20, _, rep20 = run_eps01_n20
    cases.append(("0.1/N20", spec20, rep20))
    worst = max(
        rep.residual_sup - (spec.prox_weight * tol + 1e-10)
        for _, spec, rep in cases
    )
    unconverged = [name for name, _, rep in cases if not rep.converged]
    ok = not unconverged and worst <= 0.0
    _report(3, "fixed-point residual bound", ok,
            f"worst excess over K*tol+1e-10 is {worst:.3e} "
            f"(residuals {[f'{r.residual_sup:.2e}' for _, _, r in cases]}, "
            f"unconverged {unconverged})")


def test_criterion_04_oracle_equivalence(run_eps01_n20):
    spec, grid, report = run_eps01_n20
    full = newton_solve(spec, grid, tol=1e-10)
    sup, l2 = compare_fields(report.solution, full.solution)
    ok = sup <= 1e-2 and l2 <= 5e-3
    _report(4, "full-grid oracle equivalence", ok,
            f"sup_diff={sup:.3e} (<=1e-2), l2_diff={l2:.3e} (<=5e-3)")


def _check_lines(num, name, lines, eps):
    expected = REFERENCE_CONSTANTS[eps]
    errs = {n: abs(lines[n].coefficient(CONST) - v) for n, v in expected.items()}
    ok = all(e <= 2e-3 for e in errs.values())
    uf90 = lines[90].coefficient(LIN)
    uf90_target = 0.296 if eps == 0.01 else 0.9077
    ok = ok and abs(uf90 - uf90_target) <= 5e-3
    _report(num, name, ok,
            f"max const err={max(errs.values()):.2e} "
            f"uf coeff line 90={uf90:.4f} (target {uf90_target})")


def test_criterion_05_symbolic_eps_001(symbolic_lines_eps001):
    cfg, lines = symbolic_lines_eps001
    _check_lines(5, "annulus lines, eps=0.01", lines, 0.01)


def test_criterion_06_symbolic_eps_01(symbolic_lines_eps01):
    cfg, lines = symbolic_lines_eps01
    _check_lines(6, "annulus lines, eps=0.1", lines, 0.1)


def test_criterion_07_symbolic_numeric_cross_validation(symbolic_lines_eps01):
    cfg, _ = symbolic_lines_eps01
    z = np.zeros(16)
    report = cross_check_numeric(cfg, z, z)
    ok = report.sup_diff <= 2e-2
    _report(7, "symbolic vs numeric annulus", ok,
            f"sup_diff={report.sup_diff:.3e} (<=2e-2)")


def _random_poly(rng, caps=DEFAULT_TRUNCATION.caps):
    terms = {}
    for _ in range(int(rng.integers(0, 7))):
        e = tuple(int(rng.integers(0, c + 1)) for c in caps)
        terms[e] = float(rng.uniform(-5.0, 5.0))
    return BoundaryPolynomial(terms, DEFAULT_TRUNCATION)


def _coeffs_close(p, q, tol=1e-9):
    keys = set(p.terms) | set(q.terms)
    return all(abs(p.coefficient(k) - q.coefficient(k)) <= tol * (1.0 + abs(p.coefficient(k)))
               for k in keys)


def test_criterion_08_algebra_properties():
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(1000):
        p, q, r = (_random_poly(rng) for _ in range(3))
        if not _coeffs_close(poly_mul(poly_mul(p, q), r), poly_mul(p, poly_mul(q, r))):
            failures += 1
        if not _coeffs_close(poly_mul(p, q), poly_mul(q, p)):
            failures += 1
        if not _coeffs_close(poly_mul(p, poly_add(q, r)),
                             poly_add(poly_mul(p, q), poly_mul(p, r))):
            failures += 1
    for _ in range(500):
        p = _random_poly(rng, caps=(1, 0, 0, 0, 0))
        q = _random_poly(rng, caps=(1, 0, 0, 0, 0))
        lhs = poly_diff(poly_mul(p, q))
        rhs = poly_add(poly_mul(poly_diff(p), q), poly_mul(p, poly_diff(q)))
        if not _coeffs_close(lhs, rhs):
            failures += 1
    for _ in range(500):
        p = _random_poly(rng, caps=(1, 0, 0, 0, 0))
        q = _random_poly(rng, caps=(1, 0, 0, 0, 0))
        x, x1, x2 = rng.uniform(-2.0, 2.0, size=3)
        lhs = poly_eval(poly_mul(p, q), x, x1, x2)
        rhs = poly_eval(p, x, x1, x2) * poly_eval(q, x, x1, x2)
        if abs(lhs - rhs) > 1e-9 * (1.0 + abs(rhs)):
            failures += 1
    ok = failures == 0
    _report(8, "truncated algebra properties", ok, f"failures={failures} of 2000 checks")


def test_criterion_09_line_bvp_convergence():
    b_n, d = 0.8, 0.25
    gamma = b_n * d * d
    errors = []
    for M in (25, 50, 100, 200):
        y = np.arange(1, M) / M
        rhs = (1.0 + gamma * np.pi**2) * np.sin(np.pi * y)
        sys = assemble_line_system(b_n, d, 1.0 / M, rhs)
        sol = thomas_solve(sys)
        errors.append(np.max(np.abs(sol - np.sin(np.pi * y))))
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    order_ok = all(3.5 <= r <= 4.5 for r in ratios)

    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 51))
        sub = rng.normal(size=m - 1)
        sup_band = rng.normal(size=m - 1)
        dom = np.abs(np.concatenate([[0], sub])) + np.abs(np.concatenate([sup_band, [0]]))
        diag = (dom + rng.uniform(0.5, 2.0, size=m)) * rng.choice([-1.0, 1.0], size=m)
        sys = TridiagonalSystem(sub=sub, diag=diag, sup=sup_band, rhs=rng.normal(size=m))
        A = np.diag(diag) + np.diag(sub, -1) + np.diag(sup_band, 1)
        dense = np.linalg.solve(A, sys.rhs)
        rel = np.max(np.abs(thomas_solve(sys) - dense)) / max(1.0, np.max(np.abs(dense)))
        worst = max(worst, rel)
    solver_ok = worst <= 1e-12
    ok = order_ok and solver_ok
    _report(9, "line-BVP convergence and solver", ok,
            f"ratios={['%.2f' % r for r in ratios]} worst_rel_vs_dense={worst:.2e}")


def test_criterion_10_sweep_coefficient_properties(monkeypatch):
    rng = np.random.default_rng(7)
    mono_ok = True
    for _ in range(20):
        K = float(rng.uniform(0.0, 300.0))
        eps = float(10.0 ** rng.uniform(-3, 0))
        N = int(rng.integers(5, 150))
        spec = square_problem(eps, K=K)
        grid = LineGrid(UNIT_SQUARE, N, 3)
        a, b = ab_recursion(K, grid.d, eps, N - 1)
        q = 2.0 + K * grid.d**2 / eps
        a_star = (q - np.sqrt(q * q - 4.0)) / 2.0
        diffs = np.diff(a)
        # strict increase until double-precision saturation at a*
        strict = np.all((diffs > 0.0) | ((diffs == 0.0) & (np.abs(a[1:] - a_star) <= 1e-12)))
        if not (strict and np.all(a < a_star + 1e-12)):
            mono_ok = False

    # a and b do not depend on the anchor: a solve forms them once, before
    # its first cycle forms an anchor's scheme terms
    events = []

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(proximal, "ab_recursion", logged("ab", proximal.ab_recursion))
    monkeypatch.setattr(proximal, "_scheme_terms", logged("anchor", proximal._scheme_terms))
    spec, grid = square_problem(0.1, K=50.0), LineGrid(UNIT_SQUARE, 30, 10)
    report = proximal_iterate(spec, grid, max_iter=20)
    once_ok = (report.outer_iterations == 20 and events.count("ab") == 1
               and events[0] == "ab" and events.count("anchor") >= 20)
    ok = mono_ok and once_ok
    _report(10, "sweep coefficient properties", ok,
            f"monotone/bounded={mono_ok} a,b formed once before any anchor={once_ok}")
