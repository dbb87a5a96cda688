"""Command-line entry point.

Modes:
  cartesian       proximal line solve on a rectangle, field CSV out
  polar-symbolic  annulus symbolic solve, line polynomials as JSON
  oracle          full-grid damped-Newton solve, field CSV out
  compare         cartesian solve vs oracle on the same grid, JSON report
                  (a NaN or infinite number in it is written as null)

Each mode reads some of the flags and writes one kind of file; a flag
that it does not read, output flags included, is an invalid flag.  Exit
codes: 0 success, 2 invalid flags, 3 solver non-convergence or a
non-finite result, 4 I/O.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import json
import math
import sys

import numpy as np

from .oracle import NewtonDivergenceError, compare_fields, newton_solve
from .polarsym import PolarSymbolicConfig, polar_iterate
from .problem import CartesianDomain, FieldSolution, LineGrid, ProblemSpec, check_tolerance
from .proximal import proximal_iterate
from .symalg import format_terms, to_json_dict

__all__ = ["EXIT_OK", "EXIT_USAGE", "EXIT_NO_CONVERGENCE", "EXIT_IO", "main", "parse_source",
           "write_field_csv"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4

# the functions a source expression may call, by name
_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
# the source of a run without --f; no library call has a default source
_SOURCE = "const:1"
_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Add, ast.Sub, ast.Mult, ast.Div,
    ast.Pow, ast.USub, ast.UAdd, ast.Constant, ast.Name, ast.Call, ast.Load,
)


def parse_source(text: str):
    """Build f(x, y) from a small arithmetic expression; 'const:<v>' is the expression <v>.

    Expressions may use x, y, pi, + - * / ** and sin/cos/exp, each function
    called on exactly one argument; any other element, or an expression
    nested too deeply to parse or compile, raises ValueError.  Numbers are
    floats, so no expression can build a huge integer.  The values are
    judged where the library samples them (``problem.source_values``).
    """
    if text.startswith("const:"):
        text = text[len("const:"):].strip()
    try:
        tree = ast.parse(text, mode="eval")
        callees = set()  # ast.walk visits a call before the name it calls
        for node in ast.walk(tree):
            if not isinstance(node, _ALLOWED_NODES):
                raise ValueError(f"unsupported element in source expression: {ast.dump(node)}")
            if isinstance(node, ast.Constant):
                # floats keep every power O(1): an int tower like 9**9**9 would not
                if type(node.value) not in (int, float):
                    raise ValueError(f"unsupported constant {node.value!r} in source expression")
                node.value = float(node.value)
            if (isinstance(node, ast.Name) and node.id not in ("x", "y", "pi")
                    and node not in callees):
                raise ValueError(f"name {node.id!r} is not x, y, pi or a called function")
            if isinstance(node, ast.Call):
                if not (isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS
                        and len(node.args) == 1):
                    raise ValueError(f"only one-argument {', '.join(_FUNCTIONS)} calls are allowed")
                callees.add(node.func)
        code = compile(tree, "<source>", "eval")
    except RecursionError:
        raise ValueError("source expression is nested too deeply") from None
    env = {**_FUNCTIONS, "pi": math.pi}
    return lambda x, y: eval(code, {"__builtins__": {}}, dict(env, x=x, y=y))


def write_field_csv(path: str, grid, field: FieldSolution):
    """One "x,y,u" row per node, line by line, every value to 17 significant digits."""
    x = np.repeat(grid.abscissae, grid.m_nodes + 1)
    np.savetxt(path, np.column_stack([x, grid.ordinates.ravel(), field.values.ravel()]),
               fmt="%.17g", delimiter=",", header="x,y,u", comments="")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="proxgml",
        description="Proximal generalized method of lines for Ginzburg-Landau-type problems",
    )
    p.add_argument("--mode", required=True, choices=list(_MODES))
    p.add_argument("--eps", type=float, default=0.1, help="diffusion coefficient")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--K", type=float, default=None, help="proximal weight (default: "
                   f"{ProblemSpec.prox_weight:g}, or the schedule's "
                   f"{PolarSymbolicConfig.prox_weight:g} on the annulus)")
    p.add_argument("--N", type=int, default=100, help="number of line intervals")
    p.add_argument("--M", type=int, default=None,
                   help="transverse intervals per line (default: N)")
    p.add_argument("--f", default=None, help="source term, const:<v> or expression in x,y "
                   f"(default {_SOURCE})")
    solver = inspect.signature(proximal_iterate).parameters  # the defaults the solver owns
    p.add_argument("--tol", type=float, default=None, help=f"default {solver['tol'].default:g}")
    p.add_argument("--max-iter", type=int, default=None,
                   help=f"default {solver['max_iter'].default}")
    p.add_argument("--iters", type=int, default=None, help="annulus: run this many outer "
                   "iterations, no convergence test; a non-finite update still stops the run "
                   f"early (default {PolarSymbolicConfig.iters})")
    p.add_argument("--out-field", default=None, help="field CSV path")
    p.add_argument("--out-expr", default=None, help="line-polynomial JSON path")
    p.add_argument("--out-report", default=None, help="comparison report JSON path")
    return p


def _given(args, **flags) -> dict:
    """The given ones of ``flags`` (keyword=flag) as keywords; the library keeps the rest."""
    return {kw: getattr(args, f) for kw, f in flags.items() if getattr(args, f) is not None}


def _cartesian_setup(args):
    domain = CartesianDomain(a=0.0, b=1.0, y1=lambda x: 0.0, y2=lambda x: 1.0)
    spec = ProblemSpec(
        epsilon=args.eps, alpha=args.alpha, beta=args.beta, domain=domain,
        source=parse_source(args.f if args.f is not None else _SOURCE),
        **_given(args, prox_weight="K"),
    )
    M = args.M if args.M is not None else args.N
    return spec, LineGrid(domain, args.N, M)


def _run_cartesian(args) -> int:
    spec, grid = _cartesian_setup(args)
    report = proximal_iterate(spec, grid, **_given(args, tol="tol", max_iter="max_iter"))
    center = report.solution.values[grid.n_lines // 2, grid.m_nodes // 2]
    print(
        f"cartesian: iterations={report.outer_iterations} "
        f"converged={report.converged} stop={report.stop_reason} "
        f"update={report.update_history[-1]:.3e} "
        f"residual={report.residual_sup:.3e} center={center:.6g}"
    )
    if args.out_field and report.stop_reason != "non-finite":
        write_field_csv(args.out_field, grid, report.solution)
    return _exit_code(report.stop_reason)


def _exit_code(stop_reason: str) -> int:
    """Exit 3 when a run stopped on a non-finite update or at max_iter, else 0."""
    return EXIT_NO_CONVERGENCE if stop_reason in ("non-finite", "max_iter") else EXIT_OK


def _run_polar_symbolic(args) -> int:
    cfg = PolarSymbolicConfig(epsilon=args.eps, n_lines=args.N, alpha=args.alpha,
                              beta=args.beta, **_given(args, prox_weight="K", iters="iters"))
    report = polar_iterate(cfg)
    lines = report.lines
    mid = cfg.n_lines // 2
    print(
        f"polar-symbolic: lines={cfg.n_lines - 1} iters={len(report.update_history)} "
        f"stop={report.stop_reason} update={report.update_history[-1]:.3e} "
        f"mid-line constant={lines[mid].coefficient((0, 0, 0, 0, 0)):.5f}"
    )
    rc = _exit_code(report.stop_reason)
    if args.out_expr and rc == EXIT_OK:
        payload = {
            "epsilon": cfg.epsilon,
            "prox_weight": cfg.prox_weight,
            "n_lines": cfg.n_lines,
            "iters": cfg.iters,
            "lines": [
                {
                    "line": n,
                    "radius": cfg.radius(n),
                    "text": format_terms(lines[n]),
                    **to_json_dict(lines[n]),
                }
                for n in range(1, cfg.n_lines)
            ],
        }
        with open(args.out_expr, "w") as fh:
            json.dump(payload, fh, indent=1)
    return rc


def _oracle_solve(args, spec, grid):
    """The oracle stops at --tol, at 1e-10 at the loosest, in both modes; else at its default."""
    if args.tol is None:
        return newton_solve(spec, grid)
    check_tolerance(args.tol)
    return newton_solve(spec, grid, tol=min(args.tol, 1e-10))


def _run_oracle(args) -> int:
    spec, grid = _cartesian_setup(args)
    report = _oracle_solve(args, spec, grid)
    center = report.solution.values[grid.n_lines // 2, grid.m_nodes // 2]
    print(
        f"oracle: newton_iterations={report.iterations} "
        f"coarse_iterations={report.coarse_iterations} "
        f"residual={report.residual_sup:.3e} center={center:.6g}"
    )
    if args.out_field:
        write_field_csv(args.out_field, grid, report.solution)
    return EXIT_OK


def _json_float(x: float) -> float | None:
    """x, or None (JSON null) when it is NaN or infinite, which JSON cannot hold."""
    return x if math.isfinite(x) else None


def _run_compare(args) -> int:
    spec, grid = _cartesian_setup(args)
    gml = proximal_iterate(spec, grid, **_given(args, tol="tol", max_iter="max_iter"))
    full = _oracle_solve(args, spec, grid)
    sup, l2 = compare_fields(gml.solution, full.solution)
    print(
        f"compare: gml_iterations={gml.outer_iterations} converged={gml.converged} "
        f"stop={gml.stop_reason} "
        f"sup_diff={sup:.3e} l2_diff={l2:.3e}"
    )
    if args.out_report:
        payload = {
            "sup_diff": _json_float(sup),
            "l2_diff": _json_float(l2),
            "gml_iterations": gml.outer_iterations,
            "gml_converged": gml.converged,
            "gml_stop_reason": gml.stop_reason,
            "gml_residual_sup": _json_float(gml.residual_sup),
            "newton_iterations": full.iterations,
            "newton_coarse_iterations": full.coarse_iterations,
            "newton_residual_sup": _json_float(full.residual_sup),
        }
        with open(args.out_report, "w") as fh:
            json.dump(payload, fh, indent=1, allow_nan=False)
    return _exit_code(gml.stop_reason)


# each mode's runner and the flags it reads beyond --eps, --alpha, --beta and
# --N, which every mode reads; these default to None, so a given flag can be
# told from an absent one
_MODES = {
    "cartesian": (_run_cartesian, {"K", "M", "f", "tol", "max_iter", "out_field"}),
    "polar-symbolic": (_run_polar_symbolic, {"K", "iters", "out_expr"}),
    "oracle": (_run_oracle, {"M", "f", "tol", "out_field"}),
    "compare": (_run_compare, {"K", "M", "f", "tol", "max_iter", "out_report"}),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        run, reads = _MODES[args.mode]
        unread = set().union(*(flags for _, flags in _MODES.values())) - reads
        for flag, value in vars(args).items():  # in the parser's order
            if flag in unread and value is not None:
                verb = "written" if flag.startswith("out_") else "read"
                raise ValueError(f"--{flag.replace('_', '-')} is not {verb} by --mode {args.mode}")
        return run(args)
    except (ValueError, SyntaxError) as exc:
        print(f"proxgml: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NewtonDivergenceError as exc:
        print(f"proxgml: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:
        print(f"proxgml: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
