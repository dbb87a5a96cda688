"""Command-line entry point.

Modes:
  cartesian       proximal line solve on a rectangle, field CSV out
  polar-symbolic  annulus symbolic solve, line polynomials as JSON
  oracle          full-grid damped-Newton solve, field CSV out
  compare         cartesian solve vs oracle on the same grid, JSON report
                  (a NaN or infinite number in it is written as null)

Exit codes: 0 success, 2 invalid flags, 3 solver non-convergence or a
non-finite result, 4 I/O.  ``main`` states how a mode's flags and its file
are handled.
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
# the oracle's own stop, read from newton_solve: the loosest --tol it runs at
_NEWTON_TOL = inspect.signature(newton_solve).parameters["tol"].default
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
    p.add_argument("--tol", type=float, default=None, help=f"default {solver['tol'].default:g}; "
                   f"the oracle's default {_NEWTON_TOL:g} is also the loosest it runs at")
    p.add_argument("--max-iter", type=int, default=None,
                   help=f"default {solver['max_iter'].default}")
    p.add_argument("--iters", type=int, default=None, help="annulus: run this many outer "
                   "iterations, no convergence test; a non-finite update still stops the run "
                   f"early (default {PolarSymbolicConfig.iters})")
    p.add_argument("--out", default=None, metavar="PATH", help="the file the mode writes: "
                   "the field CSV (cartesian, oracle), the line polynomials (polar-symbolic) "
                   "or the report (compare)")
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


def _run_cartesian(args) -> tuple[int, object]:
    spec, grid = _cartesian_setup(args)
    report = proximal_iterate(spec, grid, **_given(args, tol="tol", max_iter="max_iter"))
    center = report.solution.values[grid.n_lines // 2, grid.m_nodes // 2]
    print(
        f"cartesian: iterations={report.outer_iterations} "
        f"converged={report.converged} stop={report.stop_reason} "
        f"update={report.update_history[-1]:.3e} "
        f"residual={report.residual_sup:.3e} center={center:.6g}"
    )
    product = None if report.stop_reason == "non-finite" else (grid, report.solution)
    return _exit_code(report.stop_reason), product


def _exit_code(stop_reason: str) -> int:
    """Exit 3 when a run stopped on a non-finite update or at max_iter, else 0."""
    return EXIT_NO_CONVERGENCE if stop_reason in ("non-finite", "max_iter") else EXIT_OK


def _run_polar_symbolic(args) -> tuple[int, object]:
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
    if rc != EXIT_OK:
        return rc, None
    return rc, {
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


def _oracle_solve(args, spec, grid):
    """The oracle stops at --tol, never looser than its own default, in both modes."""
    if args.tol is None:
        return newton_solve(spec, grid)
    check_tolerance(args.tol)
    return newton_solve(spec, grid, tol=min(args.tol, _NEWTON_TOL))


def _run_oracle(args) -> tuple[int, object]:
    spec, grid = _cartesian_setup(args)
    report = _oracle_solve(args, spec, grid)
    center = report.solution.values[grid.n_lines // 2, grid.m_nodes // 2]
    print(
        f"oracle: newton_iterations={report.iterations} "
        f"coarse_iterations={report.coarse_iterations} "
        f"residual={report.residual_sup:.3e} center={center:.6g}"
    )
    return EXIT_OK, (grid, report.solution)


def _json_float(x: float) -> float | None:
    """x, or None (JSON null) when it is NaN or infinite, which JSON cannot hold."""
    return x if math.isfinite(x) else None


def _run_compare(args) -> tuple[int, object]:
    spec, grid = _cartesian_setup(args)
    gml = proximal_iterate(spec, grid, **_given(args, tol="tol", max_iter="max_iter"))
    full = _oracle_solve(args, spec, grid)
    sup, l2 = compare_fields(gml.solution, full.solution)
    print(
        f"compare: gml_iterations={gml.outer_iterations} converged={gml.converged} "
        f"stop={gml.stop_reason} "
        f"sup_diff={sup:.3e} l2_diff={l2:.3e}"
    )
    return _exit_code(gml.stop_reason), {
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


def _write(path: str, product) -> None:
    """Write a run's product: a (grid, field) pair as the field CSV, a dict as strict JSON."""
    if isinstance(product, dict):
        with open(path, "w") as fh:
            json.dump(product, fh, indent=1, allow_nan=False)
    else:
        write_field_csv(path, *product)


# each mode's runner and the flags it reads beyond --eps, --alpha, --beta, --N
# and --out, which every mode reads; these default to None, so a given flag can
# be told from an absent one
_MODES = {
    "cartesian": (_run_cartesian, {"K", "M", "f", "tol", "max_iter"}),
    "polar-symbolic": (_run_polar_symbolic, {"K", "iters"}),
    "oracle": (_run_oracle, {"M", "f", "tol"}),
    "compare": (_run_compare, {"K", "M", "f", "tol", "max_iter"}),
}


def main(argv=None) -> int:
    """Run one mode and return its exit code.

    A flag the mode does not read is an invalid flag.  The mode's runner
    returns its exit code and its product (None when it writes none), and
    ``main`` writes the product to the one file ``--out`` names, after the
    run; an empty or unwritable path exits 4."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        run, reads = _MODES[args.mode]
        unread = set().union(*(flags for _, flags in _MODES.values())) - reads
        for flag, value in vars(args).items():  # in the parser's order
            if flag in unread and value is not None:
                raise ValueError(f"--{flag.replace('_', '-')} is not read by --mode {args.mode}")
        rc, product = run(args)
        if args.out is not None and product is not None:
            _write(args.out, product)
        return rc
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
