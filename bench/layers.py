"""Per-layer metrics from a traced run.

Layers are the proxgml modules.  Times and call counts are per solve:
totals over the traced solves divided by their number.  Counts that belong
to one case (outer iterations, Newton restarts, ...) are per solve of that
case and carry the case's eps in their name.  A layer a workload does not
use reads 0.
"""

from __future__ import annotations

from workloads import EPS_CARTESIAN

# span name -> (module, attribute) that the tracer wraps
TARGETS = {
    "problem.source_values": ("proxgml.problem", "source_values"),
    "sweep.forward_sweep": ("proxgml.sweep", "forward_sweep"),
    "sweep.refresh_c": ("proxgml.sweep", "refresh_c"),
    "linebvp.solve_line": ("proxgml.linebvp", "solve_line"),
    "linebvp.thomas_solve": ("proxgml.linebvp", "thomas_solve"),
    "linebvp.assemble_line_system": ("proxgml.linebvp", "assemble_line_system"),
    "proximal.proximal_iterate": ("proxgml.proximal", "proximal_iterate"),
    "proximal.backward_pass": ("proxgml.proximal", "backward_pass"),
    "proximal.residual_norm": ("proxgml.proximal", "residual_norm"),
    "proximal.error_estimate": ("proxgml.proximal", "error_estimate"),
    "symalg.poly_mul": ("proxgml.symalg", "poly_mul"),
    "symalg.poly_diff": ("proxgml.symalg", "poly_diff"),
    "symalg.poly_add": ("proxgml.symalg", "poly_add"),
    "symalg.poly_scale": ("proxgml.symalg", "poly_scale"),
    "polarsym.symbolic_solve": ("proxgml.polarsym", "symbolic_solve"),
    "polarsym.symbolic_sweep": ("proxgml.polarsym", "symbolic_sweep"),
    "polarsym.symbolic_backward_pass": ("proxgml.polarsym", "symbolic_backward_pass"),
    "polarsym.polar_numeric_solve": ("proxgml.polarsym", "polar_numeric_solve"),
    "oracle.newton_solve": ("proxgml.oracle", "newton_solve"),
    "oracle.spsolve": ("scipy.sparse.linalg", "spsolve"),
}

POLY_OPS = ("mul", "diff", "add", "scale")


class KeptRatio:
    """poly_mul: monomials in the product / monomial products formed (|p|*|q|)."""

    def __init__(self):
        self.kept = 0
        self.formed = 0

    def __call__(self, args, result):
        try:
            self.formed += len(args[0].terms) * len(args[1].terms)
            self.kept += len(result.terms)
        except (AttributeError, IndexError, TypeError):
            pass  # a polynomial without a term map: the ratio reads 0

    @property
    def value(self) -> float:
        return self.kept / self.formed if self.formed else 0.0


def _eps_tag(eps: float) -> str:
    return f"eps{eps:g}"


# name -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "problem.source_values.calls": "count",
    "problem.source_values.s": "s",
    "sweep.calls": "count",
    "sweep.self_s": "s",
    "linebvp.solve_line.calls": "count",
    "linebvp.solve_line.self_s": "s",
    "linebvp.thomas_solve.s": "s",
    "linebvp.assemble_line_system.s": "s",
    "linebvp.us_per_line": "us",
    **{f"proximal.outer_iters.{_eps_tag(e)}": "count" for e in EPS_CARTESIAN},
    "proximal.ms_per_iter": "ms",
    "proximal.backward_pass.self_s": "s",
    "proximal.diagnostics_s": "s",
    **{f"symalg.poly_{op}.{k}": u for op in POLY_OPS for k, u in (("calls", "count"), ("s", "s"))},
    "symalg.poly_mul.kept_ratio": "ratio",
    "polarsym.symbolic_sweep.s": "s",
    "polarsym.backward.self_s": "s",
    "polarsym.export_s": "s",
    "polarsym.numeric_twin_s": "s",
    "oracle.newton_solve.s": "s",
    "oracle.spsolve.s": "s",
    "oracle.assembly_linesearch_s": "s",
    **{f"oracle.{k}.{_eps_tag(e)}": "count"
       for k in ("linear_solves", "restarts", "reported_iters") for e in EPS_CARTESIAN},
    "trace.overhead_s": "s",
    "trace.spans_per_solve": "count",
}


def _case_mean(records, kind_ok, value) -> dict[float, float]:
    by_eps: dict[float, list[float]] = {}
    for r in records:
        if kind_ok(r):
            by_eps.setdefault(r.eps, []).append(value(r))
    return {e: sum(v) / len(v) for e, v in by_eps.items()}


def per_layer_metrics(tracer, records, kind, kept, overhead_s, spans_in_solves) -> dict[str, float]:
    """``records``: every solve of the run, traced or not (see run.Solve)."""
    traced = [r for r in records if r.traced]
    n = len(traced)
    calls, tot, slf = tracer.calls, tracer.total_s, tracer.self_s

    def per_solve(table, *names):
        return sum(table.get(x, 0) for x in names) / n

    m = {
        "problem.source_values.calls": per_solve(calls, "problem.source_values"),
        "problem.source_values.s": per_solve(tot, "problem.source_values"),
        "sweep.calls": per_solve(calls, "sweep.forward_sweep", "sweep.refresh_c"),
        "sweep.self_s": per_solve(slf, "sweep.forward_sweep", "sweep.refresh_c"),
        "linebvp.solve_line.calls": per_solve(calls, "linebvp.solve_line"),
        "linebvp.solve_line.self_s": per_solve(slf, "linebvp.solve_line"),
        "linebvp.thomas_solve.s": per_solve(tot, "linebvp.thomas_solve"),
        "linebvp.assemble_line_system.s": per_solve(tot, "linebvp.assemble_line_system"),
        "linebvp.us_per_line": (tot["linebvp.solve_line"] / calls["linebvp.solve_line"] * 1e6
                                if calls.get("linebvp.solve_line") else 0.0),
        "proximal.backward_pass.self_s": per_solve(slf, "proximal.backward_pass"),
        "proximal.diagnostics_s": per_solve(tot, "proximal.residual_norm", "proximal.error_estimate"),
        "symalg.poly_mul.kept_ratio": kept.value,
        "polarsym.symbolic_sweep.s": per_solve(tot, "polarsym.symbolic_sweep"),
        "polarsym.backward.self_s": per_solve(slf, "polarsym.symbolic_backward_pass"),
        "polarsym.export_s": per_solve(tot, "polarsym.export"),
        "polarsym.numeric_twin_s": (tot["polarsym.polar_numeric_solve"]
                                    / calls["polarsym.polar_numeric_solve"]
                                    if calls.get("polarsym.polar_numeric_solve") else 0.0),
        "oracle.newton_solve.s": per_solve(tracer.outer_s, "oracle.newton_solve"),
        "oracle.spsolve.s": per_solve(tot, "oracle.spsolve"),
        "oracle.assembly_linesearch_s": per_solve(slf, "oracle.newton_solve"),
        "trace.overhead_s": overhead_s,
        "trace.spans_per_solve": spans_in_solves / n,
    }
    for op in POLY_OPS:
        m[f"symalg.poly_{op}.calls"] = per_solve(calls, f"symalg.poly_{op}")
        m[f"symalg.poly_{op}.s"] = per_solve(tot, f"symalg.poly_{op}")

    ok = [r for r in records if r.outcome is not None]
    prox = [r for r in ok if kind == "cartesian" and not r.traced]
    iters = sum(r.outcome.iterations for r in prox)
    m["proximal.ms_per_iter"] = sum(r.seconds for r in prox) / iters * 1e3 if iters else 0.0
    outer = _case_mean(ok, lambda r: kind == "cartesian", lambda r: r.outcome.iterations)
    reported = _case_mean(ok, lambda r: kind == "oracle", lambda r: r.outcome.iterations)
    solves = _case_mean(traced, lambda r: True, lambda r: r.calls.get("oracle.spsolve", 0))
    restarts = _case_mean(traced, lambda r: True, lambda r: r.nested.get("oracle.newton_solve", 0))
    for e in EPS_CARTESIAN:
        tag = _eps_tag(e)
        m[f"proximal.outer_iters.{tag}"] = outer.get(e, 0.0)
        m[f"oracle.reported_iters.{tag}"] = reported.get(e, 0.0)
        m[f"oracle.linear_solves.{tag}"] = solves.get(e, 0.0)
        m[f"oracle.restarts.{tag}"] = restarts.get(e, 0.0)
    if set(m) != set(METRICS):
        raise RuntimeError(f"per-layer metric table out of step: {set(m) ^ set(METRICS)}")
    return m
