"""Domain types shared by every module: problems, configs, traces, outcomes."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable

import numpy as np

from .linalg import JacobianMatrix, norm2

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


def check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is an integer >= least: numpy's
    integers count, bool does not."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"need an integer {name}, got {value!r}")
    if value < least:
        raise ValueError(f"need {name} >= {least}, got {value}")


def _read_only(a, order: str = "K") -> np.ndarray:
    """``a`` as a read-only float array: kept as it is if it already is one,
    else a read-only view of np.asarray(a, dtype=float, order=order), which
    copies only to convert or to reorder."""
    a = np.asarray(a, dtype=float, order=order)
    if a.flags.writeable:
        a = a.view()
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class NonlinearProblem:
    """Square system f(x) = 0 with an analytic Jacobian.

    Instances are immutable after construction and safe to share across
    concurrent solves, which edit no process-global state (no warnings
    filter).  ``known_root``/``null_basis`` are optional ground truth for
    diagnostics; ``bounds`` is a box constraint used only by the projected
    Levenberg-Marquardt comparator.  ``start`` is 1-D, possibly empty, and
    ``dim`` is ``len(start)``.

    The arrays ``start``, ``known_root``, ``null_basis`` and both ``bounds``
    are read-only.  A read-only float array is kept as it is, so
    ``dataclasses.replace`` keeps the same objects; any other is held as a
    read-only view of ``np.asarray(a, dtype=float)``, which copies no float
    array, so a caller that later writes into an array it passed still
    changes the problem.  ``null_basis`` is held in C order, which copies a
    Fortran-ordered basis of several columns.
    """

    name: str
    residual: ResidualFn
    jacobian: JacobianFn
    start: np.ndarray
    known_root: np.ndarray | None = None
    null_basis: np.ndarray | None = None  # (dim, m) with orthonormal columns
    bounds: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "start", _read_only(self.start))
        if self.known_root is not None:
            object.__setattr__(self, "known_root", _read_only(self.known_root))
        if self.null_basis is not None:
            # C order: iterate_error's blocked B c then has the whole product's bits
            object.__setattr__(self, "null_basis", _read_only(self.null_basis, order="C"))
        if self.start.ndim != 1:
            raise ValueError(f"need a 1-D start, got shape {self.start.shape}")
        dim, root, basis = self.dim, self.known_root, self.null_basis
        if root is not None and root.shape != (dim,):
            raise ValueError(f"need known_root of shape ({dim},), got {root.shape}")
        if basis is not None and (basis.ndim != 2 or len(basis) != dim or basis.shape[1] < 1):
            raise ValueError(f"need null_basis of shape ({dim}, m) with m >= 1, got {basis.shape}")
        if self.bounds is not None:
            lo, hi = (_read_only(b) for b in self.bounds)
            if lo.shape != (dim,) or hi.shape != (dim,):
                raise ValueError(f"need bounds of shape ({dim},), got {lo.shape} and {hi.shape}")
            object.__setattr__(self, "bounds", (lo, hi))

    @property
    def dim(self) -> int:
        return len(self.start)


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
        check_count("max_iters", self.max_iters, 1)
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"safeguard parameter r must lie in (0,1), got {self.r}")


@dataclass(kw_only=True)
class IterationRecord:
    """One step of a solve: residual entering step k plus the step taken from it.

    ``res_norm`` is ||f(x_k)||, ``step_norm`` is ||w_{k+1}||, and the gamma /
    lambda / theta fields describe the extrapolation applied at this step
    (gamma_used = lam * gamma_raw); their defaults are a step with none, as
    Newton and Levenberg-Marquardt steps are.  ``gamma_raw`` is nonzero only
    where the step took a least-squares gamma: a safeguard Newton fallback
    keeps it, with lam = 1 and gamma_used = 0.  The fields are keyword-only,
    and in order they are the history-file columns (``lam`` is ``lambda``).
    """

    k: int
    res_norm: float
    step_norm: float
    gamma_raw: float = 0.0
    lam: float = 1.0
    gamma_used: float = 0.0
    theta: float = 1.0
    step_kind: str
    ls_evals: int = 0


# Ground truth at iterate x_k of a solve: null = B^T (x_k - x*), range_norm =
# ||P_R (x_k - x*)||, update = B^T w_k for the Newton update solved for at x_{k-1},
# gamma = raw lstsq gamma of (w_k, w_{k-1}); None at x_0, x_1, after proj_lm, if degenerate.
IterateError = namedtuple("IterateError", "null range_norm update gamma")


@dataclass
class SolveOutcome:
    """Result of a solve.  ``trace`` always holds per-step scalars; the full
    iterate list is retained only when requested (large-n histories are big),
    and holds the iterates themselves: ``iterate_history[-1] is x``, and
    ``iterate_history[0]`` is the problem's read-only ``start``, or for
    ``proj_lm`` its projection onto the box.

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
    the root, and the start point respects the bounds.  Annihilation is
    ||J(x*) b_j|| <= 1e-8, a fixed tolerance like the orthonormality check's:
    scaling it by max(1, max|J(x*)|) costs an O(n^2 r) scan on the H-equation
    and changes no verdict where max|J(x*)| <= 1, as on multipoly's J(0) and
    the H-equation's root Jacobian; elsewhere the fixed test is stricter.
    """
    violations: list[str] = []
    if p.known_root is not None:
        root = p.known_root
        rnorm = norm2(p.residual(root))
        thresh = 1e-10 * (1.0 + norm2(root))
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
            for j in range(basis.shape[1]):
                jb = norm2(jac.matvec(basis[:, j]))
                if not jb <= 1e-8:
                    violations.append(
                        f"null_basis column {j} not annihilated: ||J(x*) b|| = {jb:.3e} exceeds 1.000e-08"
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
