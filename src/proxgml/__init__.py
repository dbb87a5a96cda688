"""Proximal generalized method of lines for Ginzburg-Landau-type problems."""

from .problem import (
    CartesianDomain,
    PolarDomain,
    ProblemSpec,
    LineGrid,
    FieldSolution,
    build_cartesian_grid,
    transverse_step,
)
from .sweep import SweepCoefficients, forward_sweep
from .linebvp import TridiagonalSystem, assemble_line_system, thomas_solve, solve_line
from .proximal import (
    SolveReport,
    backward_pass,
    proximal_iterate,
    residual_norm,
    error_estimate,
)
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
    symbolic_sweep,
    symbolic_backward_pass,
    symbolic_solve,
    polar_numeric_solve,
    cross_check_numeric,
)
from .oracle import NewtonReport, newton_solve, compare_fields

__version__ = "0.1.0"
