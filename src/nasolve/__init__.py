"""Solvers and diagnostics for square nonlinear systems f(x) = 0 whose
Jacobian may be singular at the root: depth-1 Anderson-accelerated Newton
with gamma-safeguarding, comparator methods, benchmark problems, and a
benchmark harness."""

from .core import (
    IterationRecord,
    NonlinearProblem,
    SolveOutcome,
    SolverConfig,
    validate_problem,
)
from .diagnostics import (
    DiagnosticsReport,
    PairKind,
    PairLabel,
    diagnose_run,
    estimate_rate,
    estimate_root_order,
    theta_gain,
)
from .linalg import (
    DenseJacobian,
    IdentityMinusLowRankJacobian,
    JacobianMatrix,
    SingularMatrix,
    UpperBidiagonalJacobian,
    lstsq_gamma,
)
from .problems import (
    HEquationSpec,
    MultipolySpec,
    ProblemUnavailable,
    REGISTRY_NAMES,
    fd_jacobian_check,
    h_equation,
    multipoly,
    registry_entry,
    with_ground_truth,
)
from .solvers import MethodId, SafeguardDecision, anderson_combine, gamma_safeguard, solve
from .harness import (
    ExperimentSpec,
    RunReport,
    compare_table,
    emit_report,
    run_experiment,
    run_registry,
    write_summary,
)

from types import ModuleType as _Module

__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _Module)]
__version__ = "0.1.0"
