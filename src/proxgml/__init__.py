"""Proximal generalized method of lines for Ginzburg-Landau-type problems."""

from .problem import (
    CartesianDomain,
    ProblemSpec,
    LineGrid,
    FieldSolution,
    build_cartesian_grid,
)
from .linebvp import TridiagonalSystem, assemble_line_system, thomas_solve
from .proximal import SolveReport, backward_pass, proximal_iterate, residual_norm
from .symalg import (
    TruncationSpec,
    DEFAULT_TRUNCATION,
    BoundaryPolynomial,
    poly_add,
    poly_mul,
    poly_diff,
    poly_eval,
)
from .polarsym import (
    PolarSymbolicConfig,
    symbolic_solve,
    polar_numeric_solve,
    cross_check_numeric,
)
from .oracle import NewtonReport, newton_solve, compare_fields

__all__ = [
    "CartesianDomain", "ProblemSpec", "LineGrid", "FieldSolution", "build_cartesian_grid",
    "TridiagonalSystem", "assemble_line_system", "thomas_solve", "SolveReport", "backward_pass",
    "proximal_iterate", "residual_norm", "TruncationSpec", "DEFAULT_TRUNCATION",
    "BoundaryPolynomial", "poly_add", "poly_mul", "poly_diff", "poly_eval", "PolarSymbolicConfig",
    "symbolic_solve", "polar_numeric_solve", "cross_check_numeric", "NewtonReport", "newton_solve",
    "compare_fields",
]

__version__ = "0.1.0"
