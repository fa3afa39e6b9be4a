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

import itertools
import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import IterationRecord, NonlinearProblem, SolveOutcome, SolverConfig, iterate_error
from .linalg import SingularMatrix, damped_normal_solve, lstsq_gamma, norm2, theta_gain


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


# the Newton-Anderson variants that gamma-safeguard, and those that line-search
SAFEGUARD_METHODS = (MethodId.gamma_n_anderson, MethodId.gamma_armijo_n_anderson)
LINESEARCH_METHODS = (MethodId.armijo_n_anderson, MethodId.gamma_armijo_n_anderson)


@dataclass
class SafeguardDecision:
    """Outcome of the gamma-safeguard: either take a plain Newton step, or
    scale gamma by ``lam`` (1.0 when no scaling was needed)."""

    lam: float
    took_newton_step: bool


def anderson_combine(x_k, x_km1, w_next, w_prev, gamma: float, scratch=None) -> np.ndarray:
    """Depth-1 Anderson recombination of the two most recent iterates/updates,
    x_k + w_next - gamma * (x_k - x_km1 + w_next - w_prev) in that order.

    Two n-length buffers: the result, and the second temporary, formed in
    ``scratch`` when the caller passes an n-array it may overwrite.
    """
    t = np.subtract(x_k, x_km1, out=scratch)
    t += w_next
    t -= w_prev
    t *= gamma
    x_new = x_k + w_next
    x_new -= t
    return x_new


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
        return SafeguardDecision(lam=1.0, took_newton_step=True)
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
    return SafeguardDecision(lam=lam, took_newton_step=False)


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


def _armijo(residual, x, d, g0: float, slope: float, step0: float, shrink: float, trials: int):
    """_backtrack along x + s d under the Armijo bound g0 + LS_DAMPING s slope,
    where g0 = g(x) and slope = g'(x)^T d."""
    return _backtrack(
        residual,
        lambda s: x + s * d,
        lambda s, trial: g0 + LS_DAMPING * s * slope,
        step0, shrink, trials,
    )


def _stop_status(res: float, tol: float, at_cap: bool) -> str | None:
    if res < tol:
        return "converged"
    if not math.isfinite(res):
        return "nonfinite"
    return "max_iters" if at_cap else None


def _drive(p: NonlinearProblem, cfg: SolverConfig, start, step, keep_history) -> SolveOutcome:
    """The iteration every method shares, from x_0 = ``start`` itself, not a
    copy, until a status in core.STATUSES applies: pass k = 0..max_iters takes
    ||f(x_k)|| and asks _stop_status, the one stop test, which names the cap
    at k == max_iters.

    _drive alone holds the iteration's memory; a step keeps none between
    calls.  ``step(k, x, fx, res, residual, x_prev, w_prev, prev)`` is given
    x_k, f(x_k), ||f(x_k)||, the counted residual, x_{k-1}, the Newton update
    w_k solved for at x_{k-1} (None if that step solved for none) and the
    IterationRecord of step k - 1, whose ``step_norm`` is ||w_k||; the last
    three are None at k = 0.  It returns the IterationRecord of step k, the
    accepted iterate x_{k+1}, a new array that nothing writes into, with its
    residual, and the Newton update w_{k+1} it solved for at x_k, or None.
    It evaluates f only through ``residual``, which counts the calls into
    ``SolveOutcome.f_evals``.  A SingularMatrix raised by a step ends the run
    before that step is recorded.  With ground truth, ``SolveOutcome.errors``
    holds the iterate_error of x_0 and of each step's iterate, given its
    update, the one before and gamma_raw.
    """
    t0 = time.perf_counter()
    calls = itertools.count()

    def residual(v):
        next(calls)
        return p.residual(v)

    x = start
    fx = residual(x)
    trace: list[IterationRecord] = []
    history = [x] if keep_history else None
    truth = p.known_root is not None and p.null_basis is not None
    errors = [iterate_error(p, x)] if truth else None
    x_prev = w_prev = prev = None
    for k in range(cfg.max_iters + 1):
        res = norm2(fx)
        status = _stop_status(res, cfg.tol, at_cap=k == cfg.max_iters)
        if status is not None:
            break
        try:
            rec, x_new, fx, w = step(k, x, fx, res, residual, x_prev, w_prev, prev)
        except SingularMatrix:
            status = "singular_jacobian"
            break
        trace.append(rec)
        if history is not None:
            history.append(x_new)
        if errors is not None:
            errors.append(iterate_error(p, x_new, w, w_prev, rec.gamma_raw))
        x_prev, x, w_prev, prev = x, x_new, w, rec
    return SolveOutcome(
        final_res=res,
        x=x,
        status=status,
        f_evals=next(calls),  # n after n residual calls
        trace=trace,
        iterate_history=history,
        errors=errors,
        wall_time=time.perf_counter() - t0,
    )


def _newton_anderson_step(p: NonlinearProblem, cfg: SolverConfig, method: MethodId):
    """Step function for _drive of ``method``, Newton or one of the
    Newton-Anderson methods, as described in solve.  For Newton every step is
    x_{k+1} = x_k + w_{k+1}, and no extrapolation coefficient is computed."""
    anderson = method is not MethodId.newton
    safeguard = method in SAFEGUARD_METHODS
    linesearch = method in LINESEARCH_METHODS

    def step(k, x, fx, res, residual, x_prev, w_prev, prev):
        jac = p.jacobian(x)
        # J^{-1}(-f) without forming -f: rounding to nearest is odd in the
        # sign, so negating J^{-1} f gives its bits, but for the sign of an
        # exactly zero entry (a - a is +0 for either sign of a)
        w = jac.solve(fx)
        np.negative(w, out=w)
        w_norm = norm2(w)

        gamma_raw, lam, gamma_used, theta, kind = 0.0, 1.0, 0.0, 1.0, "newton"
        if anderson and k > 0:
            dw = w - w_prev  # the step's one difference vector, later its scratch
            gamma_raw = lstsq_gamma(w, w_prev, dw, w_norm, prev.step_norm)
            if gamma_raw is None:
                gamma_raw = 0.0  # stagnated direction: plain Newton step
            elif safeguard:
                dec = gamma_safeguard(gamma_raw, w_norm, prev.step_norm, cfg.r)
                if not dec.took_newton_step:
                    lam = dec.lam
                    gamma_used = lam * gamma_raw
                    kind = "anderson"
            else:
                gamma_used = gamma_raw
                kind = "anderson"

        if kind == "anderson":
            theta = theta_gain(w, w_prev, gamma_used, dw, w_norm)
            x_new = anderson_combine(x, x_prev, w, w_prev, gamma_used, dw)
        else:
            x_new = x + w
        dw = None  # freed before the residual forms its n-vector

        f_new = residual(x_new)
        ls_evals = 0
        # the search direction needs the (x_{k-1}, w_k) history, so the
        # mandatory first Newton step is never line-searched
        if linesearch and k > 0 and norm2(f_new) > LS_TRIGGER * res:
            d = w - gamma_used * (x - x_prev + w - w_prev) if kind == "anderson" else w
            g0 = float(fx @ fx)
            slope = 2.0 * float(fx @ jac.matvec(d))  # g'(x)^T d
            x_new, f_new, ls_evals = _armijo(residual, x, d, g0, slope, LS_STEP0, LS_SHRINK, 31)
            if kind == "anderson":
                kind = "anderson_linesearch"

        rec = IterationRecord(
            k=k, res_norm=res, step_norm=w_norm,
            gamma_raw=gamma_raw, lam=lam, gamma_used=gamma_used, theta=theta,
            step_kind=kind, ls_evals=ls_evals,
        )
        return rec, x_new, f_new, w

    return step


# damping ladder: MU_SCALE ||f||^2 (at least MU_FLOOR), then ||f||^2, then 1;
# far from the root the first rung must stay near Gauss-Newton, or large
# residuals over-damp the step into stagnation
MU_FLOOR = 1e-16
MU_SCALE = 1e-8


def _projected_lm_step(p: NonlinearProblem, project):
    """Step function of projected Levenberg-Marquardt for _drive.

    Each step takes d from linalg.damped_normal_solve, (J^T J + mu I) d =
    -J^T f at the first rung of the damping ladder that factors, and projects
    the candidate x + d onto the box.  The candidate is accepted as an LM step
    when it cuts ||f|| by LS_TRIGGER; otherwise an Armijo search with the
    classical halving schedule runs along the projected direction.  If no
    rung factors, or that direction is not a descent direction, a projected
    gradient step is taken instead.
    """

    def step(k, x, fx, res, residual, *_):  # reads no earlier step
        g0 = float(fx @ fx)
        jtf, d = damped_normal_solve(p.jacobian(x), fx, (max(MU_SCALE * g0, MU_FLOOR), g0, 1.0))
        grad = 2.0 * jtf
        kind, ls_evals = "projected_gradient", 0
        if d is not None:
            cand = project(x + d)
            f_cand = residual(cand)
            if norm2(f_cand) <= LS_TRIGGER * res:
                kind = "lm"
                x_new, f_new = cand, f_cand
            else:
                direction = cand - x  # feasible direction: the box is convex
                slope = float(grad @ direction)
                if slope < 0.0:
                    kind = "lm_linesearch"
                    x_new, f_new, ls_evals = _armijo(residual, x, direction, g0, slope, 0.5, 0.5, 30)
        if kind == "projected_gradient":
            # backtracked step along the projected steepest-descent arc
            x_new, f_new, ls_evals = _backtrack(
                residual,
                lambda t: project(x - t * grad),
                lambda t, trial: g0 + LS_DAMPING * float(grad @ (trial - x)),
                1.0, 0.5, 60,
            )
        rec = IterationRecord(k=k, res_norm=res, step_norm=norm2(x_new - x),
                              step_kind=kind, ls_evals=ls_evals)
        return rec, x_new, f_new, None

    return step


def solve(
    p: NonlinearProblem,
    method: MethodId,
    cfg: SolverConfig | None = None,
    keep_history: bool = False,
) -> SolveOutcome:
    """Solve ``p`` from ``p.start`` by ``method``, a MethodId or its value,
    until ||f|| < ``cfg.tol`` (``cfg`` defaults to SolverConfig()).

    - ``newton``: plain Newton, x_{k+1} = x_k + w_{k+1}.
    - The Newton-Anderson methods: depth-1 Newton-Anderson, whose first step
      is always plain Newton.  Those in SAFEGUARD_METHODS rescale the
      extrapolation coefficient per gamma_safeguard.  A degenerate step
      (w_{k+1} == w_k, so gamma is undefined) falls back to Newton.  Those in
      LINESEARCH_METHODS replace a step at k >= 1 that fails to reduce the
      residual by LS_TRIGGER with an Armijo search along the combined
      direction; a search that exhausts its trials proceeds from its trial
      of least merit.
    - ``proj_lm``: projected Levenberg-Marquardt with line-search and
      projected-gradient fallbacks, for problems with (optional) box
      constraints; the start is projected onto the box.

    A singular Jacobian, a non-finite residual or the iteration cap yields a
    normal non-converged outcome, with its reason in ``status``, rather than
    an error.  With ``keep_history`` the outcome keeps every iterate, ``x`` last.

    No solve copies or writes into the problem's arrays, which are read-only.
    The Newton-Anderson methods start from ``p.start`` itself: it is
    ``iterate_history[0]``, and the ``x`` of a run that takes no step.
    ``proj_lm`` starts from its own projection of it onto the box.  A caller
    that writes into an array it passed to the problem changes the problem,
    and so the start of a later solve.
    """
    cfg = cfg or SolverConfig()
    method = MethodId(method)
    if method is not MethodId.proj_lm:
        return _drive(p, cfg, p.start, _newton_anderson_step(p, cfg, method), keep_history)
    lo, hi = p.bounds if p.bounds is not None else (-np.inf, np.inf)

    def project(v):
        return np.clip(v, lo, hi)

    return _drive(p, cfg, project(p.start), _projected_lm_step(p, project), keep_history)
