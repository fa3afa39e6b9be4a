"""Domain types shared by every module: problems, configs, traces, outcomes."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .linalg import JacobianMatrix

ResidualFn = Callable[[np.ndarray], np.ndarray]
JacobianFn = Callable[[np.ndarray], JacobianMatrix]

# step kinds recorded in iteration traces
STEP_KINDS = (
    "newton",
    "anderson",
    "anderson_linesearch",
    "lm",
    "lm_linesearch",
    "projected_gradient",
)

# why a solve stopped, recorded in SolveOutcome.status
STATUSES = (
    "converged",
    "max_iters",
    "singular_jacobian",
    "nonfinite",
)


@dataclass(frozen=True)
class NonlinearProblem:
    """Square system f(x) = 0 with an analytic Jacobian.

    Instances are immutable after construction and safe to share across
    concurrent solves, which edit no process-global state (no warnings
    filter).  ``known_root``/``null_basis``/``root_order`` are optional
    ground truth for diagnostics; ``bounds`` is a box constraint used only
    by the projected Levenberg-Marquardt comparator.
    """

    name: str
    dim: int
    residual: ResidualFn
    jacobian: JacobianFn
    start: np.ndarray
    known_root: np.ndarray | None = None
    null_basis: np.ndarray | None = None  # (dim, m) with orthonormal columns
    root_order: int | None = None
    bounds: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "start", np.asarray(self.start, dtype=float))
        if self.known_root is not None:
            object.__setattr__(self, "known_root", np.asarray(self.known_root, dtype=float))
        if self.null_basis is not None:
            basis = np.asarray(self.null_basis, dtype=float)
            if basis.ndim == 1:
                basis = basis[:, None]
            object.__setattr__(self, "null_basis", basis)
        if self.bounds is not None:
            lo, hi = self.bounds
            object.__setattr__(
                self,
                "bounds",
                (np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)),
            )


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule and safeguard parameter.

    Defaults follow the benchmark protocol: stop when ||f|| < 1e-8 or after
    50 iterations.  The line-search constants are fixed in nasolve.solvers.
    """

    tol: float = 1e-8
    max_iters: int = 50
    r: float = 0.9

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"safeguard parameter r must lie in (0,1), got {self.r}")


@dataclass
class IterationRecord:
    """One step of a solve: residual entering step k plus the step taken from it.

    ``res_norm`` is ||f(x_k)||, ``step_norm`` is ||w_{k+1}||, and the gamma /
    lambda / theta fields describe the extrapolation applied at this step
    (gamma_used = lam * gamma_raw; theta = 1 for plain Newton steps).
    """

    k: int
    res_norm: float
    step_norm: float
    gamma_raw: float
    lam: float
    gamma_used: float
    theta: float
    step_kind: str
    ls_evals: int = 0


# Ground truth at iterate x_k of a solve: null = B^T (x_k - x*), range_norm =
# ||P_R (x_k - x*)||, update = B^T w_k for the Newton update solved for at x_{k-1},
# gamma = raw lstsq gamma of (w_k, w_{k-1}); None at x_0, after proj_lm, if degenerate.
IterateError = namedtuple("IterateError", "null range_norm update gamma")


@dataclass
class SolveOutcome:
    """Result of a solve.  ``trace`` always holds per-step scalars; the full
    iterate list is retained only when requested (large-n histories are big).

    ``status`` is one of STATUSES and says why the run stopped; ``f_evals``
    counts the residual evaluations the run made, start point included.
    ``converged`` and ``iterations`` derive from ``status`` and ``trace``.
    The residual history of a run is ``[r.res_norm for r in trace] + [final_res]``.
    ``errors``: one IterateError per iterate if the problem has ground truth.
    """

    final_res: float
    x: np.ndarray
    status: str
    f_evals: int
    trace: list[IterationRecord] = field(default_factory=list)
    iterate_history: list[np.ndarray] | None = None
    errors: list[IterateError] | None = None
    wall_time: float = 0.0

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def iterations(self) -> int:
        return len(self.trace)


def validate_problem(p: NonlinearProblem) -> list[str]:
    """Check the problem invariants; returns one message per violation.

    Diagnostic only: an empty list means the residual vanishes at the known
    root, the null basis is orthonormal and annihilated by the Jacobian at
    the root, and the start point respects the bounds.
    """
    violations: list[str] = []
    if p.known_root is not None:
        root = p.known_root
        rnorm = float(np.linalg.norm(p.residual(root)))
        thresh = 1e-10 * (1.0 + float(np.linalg.norm(root)))
        if not rnorm <= thresh:
            violations.append(
                f"residual at known_root: ||f(x*)|| = {rnorm:.3e} exceeds {thresh:.3e}"
            )
        if p.null_basis is not None:
            basis = p.null_basis
            gram_err = float(np.abs(basis.T @ basis - np.eye(basis.shape[1])).max())
            if not gram_err <= 1e-12:
                violations.append(
                    f"null_basis not orthonormal: max |B^T B - I| = {gram_err:.3e} exceeds 1e-12"
                )
            jac = p.jacobian(root)
            scale = max(1.0, jac.max_abs())
            for j in range(basis.shape[1]):
                jb = float(np.linalg.norm(jac.matvec(basis[:, j])))
                if not jb <= 1e-8 * scale:
                    violations.append(
                        f"null_basis column {j} not annihilated: ||J(x*) b|| = {jb:.3e} "
                        f"exceeds {1e-8 * scale:.3e}"
                    )
    if p.bounds is not None:
        lo, hi = p.bounds
        if np.any(p.start < lo) or np.any(p.start > hi):
            violations.append(
                f"start outside bounds: start = {p.start}, bounds = [{lo}, {hi}]"
            )
        if np.any(lo > hi):
            violations.append(f"empty box: lower {lo} exceeds upper {hi}")
    return violations
