"""Solvers: Newton, depth-1 Newton-Anderson with optional gamma-safeguarding
and Armijo line search, and a projected Levenberg-Marquardt comparator.

The Newton-Anderson iteration computes the Newton update w_{k+1}, the
extrapolation coefficient gamma minimizing ||w_{k+1} - g (w_{k+1} - w_k)||,
and combines

    x_{k+1} = x_k + w_{k+1} - gamma * (x_k - x_{k-1} + w_{k+1} - w_k).

Safeguarding rescales gamma by lam in (0,1] so |lam*g| / |1 - lam*g| stays
below beta = r ||w_{k+1}|| / ||w_k||, which keeps iterates inside the region
where the Jacobian is invertible when the root is singular.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg.lapack

from .core import IterationRecord, NonlinearProblem, SolveOutcome, SolverConfig
from .diagnostics import error_recorder, theta_gain
from .linalg import SingularMatrix, lstsq_gamma


class MethodId(str, Enum):
    """The compared methods."""

    newton = "newton"
    n_anderson = "n_anderson"
    gamma_n_anderson = "gamma_n_anderson"
    armijo_n_anderson = "armijo_n_anderson"
    gamma_armijo_n_anderson = "gamma_armijo_n_anderson"
    proj_lm = "proj_lm"

    def __str__(self):
        return self.value


@dataclass
class SafeguardDecision:
    """Outcome of the gamma-safeguard: either take a plain Newton step, or
    scale gamma by ``lam`` (1.0 when no scaling was needed)."""

    lam: float
    took_newton_step: bool
    beta: float


def anderson_combine(x_k, x_km1, w_next, w_prev, gamma: float) -> np.ndarray:
    """Depth-1 Anderson recombination of the two most recent iterates/updates."""
    return x_k + w_next - gamma * (x_k - x_km1 + w_next - w_prev)


def gamma_safeguard(
    gamma: float, w_next_norm: float, w_prev_norm: float, r: float
) -> SafeguardDecision:
    """Decide how to rescale gamma before combining.

    Case law: gamma == 0 or gamma >= 1 means take a plain Newton step.
    Otherwise, when |gamma| / |1-gamma| exceeds beta = r*w_next_norm/w_prev_norm,
    lam is chosen so that |lam*gamma| / |1 - lam*gamma| == beta:
    lam = beta/(gamma(1+beta)) for gamma > 0, beta/(gamma(beta-1)) for gamma < 0.
    A scaled lam is then lowered ulp by ulp until the ratio it gives in floating
    point is at most beta + 1e-12: near gamma = 1 the rounding of lam * gamma
    moves the ratio by about beta^2 ulp.
    """
    beta = r * w_next_norm / w_prev_norm
    if gamma == 0.0 or gamma >= 1.0:
        return SafeguardDecision(lam=1.0, took_newton_step=True, beta=beta)
    lam = 1.0
    if abs(gamma) / abs(1.0 - gamma) > beta:
        if gamma > 0.0:
            cand = beta / (gamma * (1.0 + beta))
            if cand < 1.0:
                lam = cand
        else:
            cand = beta / (gamma * (beta - 1.0))
            if 0.0 <= cand < 1.0:
                lam = cand
        while lam < 1.0 and abs(lam * gamma) / abs(1.0 - lam * gamma) > beta + 1e-12:
            lam = math.nextafter(lam, 0.0)
    return SafeguardDecision(lam=lam, took_newton_step=False, beta=beta)


# Armijo constants on the merit g(x) = ||f(x)||^2.  A Newton-Anderson step at
# k >= 1, or an LM candidate, that fails to cut ||f|| by LS_TRIGGER starts a
# search; a trial is accepted when it decreases g by at least LS_DAMPING times
# the linear prediction.  The Newton-Anderson search starts at LS_STEP0 and
# shrinks by LS_SHRINK per trial.
LS_TRIGGER = 0.99
LS_DAMPING = 1e-4
LS_STEP0 = 0.5
LS_SHRINK = 0.3


def _backtrack(residual, trial_at, bound, step0: float, shrink: float, trials: int):
    """Backtracking on g = ||f||^2 over the steps s = step0 * shrink^j,
    j = 0..trials-1; returns (x, f(x), evals).

    ``trial_at(s)`` is the trial point of step s and ``bound(s, trial)`` the
    largest merit it may have to be accepted.  The first trial within its
    bound is returned.  When every trial fails, the one of least merit is
    returned, a later trial winning ties, so a search whose merit keeps
    falling proceeds from its deepest trial.
    """
    s = step0
    best = None
    for j in range(trials):
        trial = trial_at(s)
        f_trial = residual(trial)
        g_trial = float(f_trial @ f_trial)
        if g_trial <= bound(s, trial):
            return trial, f_trial, j + 1
        if best is None or g_trial <= best[2]:
            best = (trial, f_trial, g_trial)
        s *= shrink
    return best[0], best[1], trials


def _stop_status(res: float, tol: float) -> str | None:
    if res < tol:
        return "converged"
    if not math.isfinite(res):
        return "nonfinite"
    return None


def _drive(p: NonlinearProblem, cfg: SolverConfig, start, step, keep_history) -> SolveOutcome:
    """The iteration every method shares, from ``start`` until a status in
    core.STATUSES applies.

    ``step(k, x, fx, res, residual)`` returns the IterationRecord of step k,
    the accepted iterate with its residual, and the Newton update it solved
    for at x (None if it solved for none); it evaluates f only through
    ``residual``, which counts the calls into ``SolveOutcome.f_evals``.  A
    SingularMatrix raised by a step ends the run before that step is recorded.
    """
    t0 = time.perf_counter()
    f_evals = 0

    def residual(v):
        nonlocal f_evals
        f_evals += 1
        return p.residual(v)

    x = start.copy()
    fx = residual(x)
    res = float(np.linalg.norm(fx))
    trace: list[IterationRecord] = []
    history = [x.copy()] if keep_history else None
    truth = p.known_root is not None and p.null_basis is not None
    errors, record = error_recorder(p, x) if truth else (None, None)
    status = _stop_status(res, cfg.tol)
    if status is None:
        status = "max_iters"
        for k in range(cfg.max_iters):
            try:
                rec, x, fx, w = step(k, x, fx, res, residual)
            except SingularMatrix:
                status = "singular_jacobian"
                break
            trace.append(rec)
            res = float(np.linalg.norm(fx))
            if history is not None:
                history.append(x.copy())
            if record is not None:
                record(x, w)
            stop = _stop_status(res, cfg.tol)
            if stop is not None:
                status = stop
                break
    return SolveOutcome(
        final_res=res,
        x=x,
        status=status,
        f_evals=f_evals,
        trace=trace,
        iterate_history=history,
        errors=errors,
        wall_time=time.perf_counter() - t0,
    )


def _newton_anderson_step(p: NonlinearProblem, cfg: SolverConfig, anderson, safeguard, linesearch):
    """Step function of depth-1 Newton-Anderson for _drive, as described in
    newton_anderson_solve.  Without ``anderson`` every step is plain Newton,
    x_{k+1} = x_k + w_{k+1}, and no extrapolation coefficient is computed."""
    x_prev: np.ndarray | None = None
    w_prev: np.ndarray | None = None
    w_prev_norm = 0.0

    def step(k, x, fx, res, residual):
        nonlocal x_prev, w_prev, w_prev_norm
        jac = p.jacobian(x)
        w = jac.solve(-fx)
        w_norm = float(np.linalg.norm(w))

        gamma_raw, lam, gamma_used, theta, kind = 0.0, 1.0, 0.0, 1.0, "newton"
        if anderson and k > 0:
            gamma_raw = lstsq_gamma(w, w_prev)
            if gamma_raw is None:
                gamma_raw = 0.0  # stagnated direction: plain Newton step
            elif safeguard:
                dec = gamma_safeguard(gamma_raw, w_norm, w_prev_norm, cfg.r)
                if not dec.took_newton_step:
                    lam = dec.lam
                    gamma_used = lam * gamma_raw
                    kind = "anderson"
            else:
                gamma_used = gamma_raw
                kind = "anderson"

        if kind == "anderson":
            x_new = anderson_combine(x, x_prev, w, w_prev, gamma_used)
            theta = theta_gain(w, w_prev, gamma_used)
        else:
            x_new = x + w

        f_new = residual(x_new)
        ls_evals = 0
        # the search direction needs the (x_{k-1}, w_k) history, so the
        # mandatory first Newton step is never line-searched
        if linesearch and k > 0 and float(np.linalg.norm(f_new)) > LS_TRIGGER * res:
            d = w - gamma_used * (x - x_prev + w - w_prev) if kind == "anderson" else w
            g0 = float(fx @ fx)
            slope = 2.0 * float(fx @ jac.matvec(d))  # g'(x)^T d
            x_new, f_new, ls_evals = _backtrack(
                residual,
                lambda s: x + s * d,
                lambda s, trial: g0 + LS_DAMPING * s * slope,
                LS_STEP0, LS_SHRINK, 31,
            )
            if kind == "anderson":
                kind = "anderson_linesearch"

        x_prev, w_prev, w_prev_norm = x, w, w_norm
        rec = IterationRecord(
            k=k, res_norm=res, step_norm=w_norm,
            gamma_raw=gamma_raw, lam=lam, gamma_used=gamma_used, theta=theta,
            step_kind=kind, ls_evals=ls_evals,
        )
        return rec, x_new, f_new, w

    return step


MU_FLOOR = 1e-16  # keeps the regularized normal equations positive definite
# far from the root the step must stay near Gauss-Newton or large residuals
# over-damp it into stagnation; full ||f||^2 damping returns via the retry
# ladder when conditioning requires it
MU_SCALE = 1e-8


def _projected_lm_step(p: NonlinearProblem, project):
    """Step function of projected Levenberg-Marquardt for _drive.

    Each step solves (J^T J + mu I) d = -J^T f with mu proportional to
    ||f||^2 and projects the candidate onto the box.  When the regularized
    normal equations are still numerically singular the solve retries with
    full ||f||^2 damping.  The candidate is accepted as an LM step when it
    cuts ||f|| by LS_TRIGGER; otherwise an Armijo search with the classical
    halving schedule runs along the projected direction, and if that direction
    is not a descent direction a projected gradient step is taken instead.
    """

    def step(k, x, fx, res, residual):
        jac = p.jacobian(x).to_dense()
        jtf = jac.T @ fx
        grad = 2.0 * jtf
        normal = jac.T @ jac
        rhs = -jtf
        g0 = res * res
        # the subproblem matrix is positive definite for mu > 0, so factor by
        # Cholesky and bump the damping if conditioning defeats it numerically
        d = None
        for mu in (max(MU_SCALE * res * res, MU_FLOOR), res * res, 1.0):
            a = normal.copy(order="F")  # Fortran order: dpotrf factors it in place
            a.flat[:: p.dim + 1] += mu
            c, info = scipy.linalg.lapack.dpotrf(a, clean=0, overwrite_a=1)
            if info < 0:
                raise ValueError(f"dpotrf rejected argument {-info}")
            if info == 0:  # info > 0: a leading minor is not positive definite
                d, info = scipy.linalg.lapack.dpotrs(c, rhs)
                if info < 0:
                    raise ValueError(f"dpotrs rejected argument {-info}")
                break

        ls_evals = 0
        kind = "projected_gradient"
        if d is not None:
            cand = project(x + d)
            f_cand = residual(cand)
            if float(np.linalg.norm(f_cand)) <= LS_TRIGGER * res:
                kind = "lm"
                x_new, f_new = cand, f_cand
            else:
                direction = cand - x  # feasible direction: the box is convex
                slope = float(grad @ direction)
                if slope < 0.0:
                    kind = "lm_linesearch"
                    x_new, f_new, ls_evals = _backtrack(
                        residual,
                        lambda s: x + s * direction,
                        lambda s, trial: g0 + LS_DAMPING * s * slope,
                        0.5, 0.5, 30,
                    )
        if kind == "projected_gradient":
            # backtracked step along the projected steepest-descent arc
            x_new, f_new, ls_evals = _backtrack(
                residual,
                lambda t: project(x - t * grad),
                lambda t, trial: g0 + LS_DAMPING * float(grad @ (trial - x)),
                1.0, 0.5, 60,
            )

        rec = IterationRecord(
            k=k, res_norm=res, step_norm=float(np.linalg.norm(x_new - x)),
            gamma_raw=0.0, lam=1.0, gamma_used=0.0, theta=1.0,
            step_kind=kind, ls_evals=ls_evals,
        )
        return rec, x_new, f_new, None

    return step


def newton_solve(
    p: NonlinearProblem, cfg: SolverConfig, keep_history: bool = False
) -> SolveOutcome:
    """Plain Newton iteration x_{k+1} = x_k + w_{k+1} until ||f|| < tol.

    A singular Jacobian, a non-finite residual or the iteration cap yields a
    normal non-converged outcome, with its reason in ``status``, rather than
    an error.
    """
    step = _newton_anderson_step(p, cfg, False, False, False)
    return _drive(p, cfg, p.start, step, keep_history)


def newton_anderson_solve(
    p: NonlinearProblem,
    cfg: SolverConfig,
    safeguard: bool = False,
    linesearch: bool = False,
    keep_history: bool = False,
) -> SolveOutcome:
    """Depth-1 Newton-Anderson; the first step is always plain Newton.

    With ``safeguard`` the extrapolation coefficient is rescaled per
    gamma_safeguard; degenerate steps (w_{k+1} == w_k) fall back to Newton.
    With ``linesearch`` a step at k >= 1 that fails to reduce the residual by
    LS_TRIGGER is replaced by an Armijo search along the combined direction;
    a search that exhausts its trials proceeds from its trial of least merit.
    """
    step = _newton_anderson_step(p, cfg, True, safeguard, linesearch)
    return _drive(p, cfg, p.start, step, keep_history)


def projected_lm_solve(
    p: NonlinearProblem, cfg: SolverConfig, keep_history: bool = False
) -> SolveOutcome:
    """Projected Levenberg-Marquardt with line-search and projected-gradient
    fallbacks, for problems with (optional) box constraints; the start is
    projected onto the box."""
    lo, hi = p.bounds if p.bounds is not None else (-np.inf, np.inf)

    def project(v):
        return np.clip(v, lo, hi)

    return _drive(p, cfg, project(p.start), _projected_lm_step(p, project), keep_history)


def solve(
    p: NonlinearProblem,
    method: MethodId,
    cfg: SolverConfig | None = None,
    keep_history: bool = False,
) -> SolveOutcome:
    """Dispatch a solve by method id."""
    cfg = cfg or SolverConfig()
    method = MethodId(method)
    if method is MethodId.newton:
        return newton_solve(p, cfg, keep_history)
    if method is MethodId.proj_lm:
        return projected_lm_solve(p, cfg, keep_history)
    safeguard = method in (MethodId.gamma_n_anderson, MethodId.gamma_armijo_n_anderson)
    linesearch = method in (MethodId.armijo_n_anderson, MethodId.gamma_armijo_n_anderson)
    return newton_anderson_solve(p, cfg, safeguard, linesearch, keep_history)
