"""The benchmark's workloads: fixed inputs and one solve per call.

Every library call goes through the public ``proxgml`` API and is looked up
at call time, so the tracer's wrappers see it.  Inputs do not depend on the
seed; the seed only shuffles the order of the cases in each round.
"""

from __future__ import annotations

from dataclasses import dataclass

import proxgml
import proxgml.cli
import proxgml.symalg

PROX_WEIGHT = 50.0
TOL = 1e-8
EPS_CARTESIAN = (0.1, 0.01, 0.001)
EPS_ANNULUS = (0.1, 0.01)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cartesian" (proximal_iterate), "oracle" (newton_solve) or "annulus"
    eps: tuple
    n: int = 0  # N = M for the grid kinds
    source: str = "const:1"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cartesian-n100", "cartesian", EPS_CARTESIAN, 100),
        Workload("cartesian-n20-expr", "cartesian", EPS_CARTESIAN, 20, "sin(pi*x)*sin(pi*y)"),
        Workload("annulus", "annulus", EPS_ANNULUS),
        Workload("oracle", "oracle", EPS_CARTESIAN, 100),
    )
}


@dataclass(frozen=True)
class Case:
    eps: float
    problem: tuple  # (spec, grid) or (PolarSymbolicConfig,)


@dataclass(frozen=True)
class Outcome:
    """What one solve returned, in the form the checks read."""

    values: object  # (N+1, M+1) field, or the line polynomials on the annulus
    converged: bool
    iterations: int  # outer iterations, or the Newton iterations the report gives


def _zero(x):
    return 0.0


def _one(x):
    return 1.0


def build_cases(w: Workload) -> list[Case]:
    """Everything a user builds before solving: grid, spec or config, source."""
    if w.kind == "annulus":
        return [Case(eps, (proxgml.PolarSymbolicConfig(epsilon=eps),)) for eps in w.eps]
    domain = proxgml.CartesianDomain(a=0.0, b=1.0, y1=_zero, y2=_one)
    grid = proxgml.build_cartesian_grid(domain, w.n, w.n)
    f = proxgml.cli.parse_source(w.source)
    return [
        Case(eps, (proxgml.ProblemSpec(epsilon=eps, alpha=1.0, beta=1.0, source=f,
                                       prox_weight=PROX_WEIGHT, domain=domain), grid))
        for eps in w.eps
    ]


def solve(w: Workload, case: Case, tracer=None) -> Outcome:
    """One solve: the call a user makes, plus the line export on the annulus."""
    if w.kind == "cartesian":
        r = proxgml.proximal_iterate(*case.problem, tol=TOL)
        return Outcome(r.solution.values, r.converged, r.outer_iterations)
    if w.kind == "oracle":
        r = proxgml.newton_solve(*case.problem)
        return Outcome(r.solution.values, True, r.iterations)
    cfg = case.problem[0]
    lines = proxgml.symbolic_solve(cfg)
    if tracer is None:
        _export(cfg, lines)
    else:
        with tracer.span("polarsym.export"):
            _export(cfg, lines)
    return Outcome(lines, True, cfg.iters)


def _export(cfg, lines) -> list:
    # what `proxgml --mode polar-symbolic --out-expr` writes for every line
    sym = proxgml.symalg
    return [(sym.to_json_dict(lines[n]), sym.format_terms(lines[n])) for n in range(1, cfg.n_lines)]
