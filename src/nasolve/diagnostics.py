"""Runtime diagnostics for problems with a known root and null-space basis.

A solve of such a problem records ``iterate_error`` per iterate: the null
coordinates and range norm of its error, the null coordinates of the Newton
update that led to it, and the step's gamma; ``diagnose_run`` reads that
record.  The curvature term of the pair-type classification is replaced by
the second-derivative-free proxy P_N(e + w) - (1/2) P_N e, which is accurate
to second order in the error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import IterateError, NonlinearProblem, SolveOutcome
from .linalg import BAND_BLOCK, lstsq_gamma, norm2

COMPAT_C = 2.0  # step k is compatible if ||P_N e_{k+1}|| <= COMPAT_C * theta_{k+1} * ||w_{k+1}||
RHO_DOM = 3.0  # a term dominates another when it is larger by this factor
NOISE_FLOOR = 1e-13  # relative to 1 + ||x*||; smaller null components stay out of the rate fit


class MissingGroundTruth(Exception):
    """Known root and/or null basis required but absent from the problem."""


class ZeroStep(Exception):
    """The Newton update vanished; the gain is undefined (already converged)."""


class PairKind(str, Enum):
    N_pair = "N_pair"
    R_pair = "R_pair"
    NR_pair = "NR_pair"
    RN_pair = "RN_pair"
    undominated = "undominated"


@dataclass
class PairLabel:
    kind: PairKind
    strong: bool


def theta_gain(w_next: np.ndarray, w_prev: np.ndarray, gamma_used: float,
               d: np.ndarray | None = None, w_next_norm: float | None = None) -> float:
    """Optimization gain ||w_next - gamma*(w_next - w_prev)|| / ||w_next||.

    A caller that holds d = w_next - w_prev and ||w_next|| passes them, and
    the numerator is formed in d's buffer, which it overwrites; else both
    are computed here, to the same bits.
    """
    if w_next_norm is None:
        w_next = np.asarray(w_next, dtype=float)
        w_next_norm = norm2(w_next)
    if w_next_norm == 0.0:
        raise ZeroStep("||w_next|| = 0")
    if d is None:
        d = w_next - np.asarray(w_prev)
    d *= gamma_used
    return norm2(np.subtract(w_next, d, out=d)) / w_next_norm


_PAIR_KINDS = {("N", "N"): PairKind.N_pair, ("R", "R"): PairKind.R_pair,
               ("N", "R"): PairKind.NR_pair, ("R", "N"): PairKind.RN_pair}


def _pair_label(c_k, d_k, c_km1, d_km1, gamma: float | None) -> PairLabel:
    """Classify the iterate pair (k, k - 1) by which error-expansion term dominates.

    Per index i, in null coordinates c_i = B^T e_i and d_i = B^T w_{i+1}, the
    competing terms are (1/2) P_N e_i and the curvature proxy
    P_N(e_i + w_{i+1}) - (1/2) P_N e_i; one must exceed the other by the
    factor RHO_DOM to count as dominant.  The strong flag checks whether the
    recombined dominant terms dominate the rest by the same factor.
    ``gamma`` is None for degenerate updates."""
    terms = [(0.5 * c, c + d - 0.5 * c) for c, d in ((c_k, d_k), (c_km1, d_km1))]
    labels = []
    for t_null, t_curv in terms:
        t_n, t_r = norm2(t_null), norm2(t_curv)
        if t_n == 0.0 and t_r == 0.0:
            labels.append(None)
        elif t_n >= RHO_DOM * t_r:
            labels.append("N")
        else:
            labels.append("R" if t_r >= RHO_DOM * t_n else None)
    kind = _PAIR_KINDS.get(tuple(labels), PairKind.undominated)
    if kind is PairKind.undominated or gamma is None:
        return PairLabel(kind=kind, strong=False)
    # weights 1 - gamma at k and gamma at k - 1; terms[i][True] is the curvature term
    (a_k, a_km1), (l_k, l_km1) = (1.0 - gamma, gamma), labels
    combined = a_k * terms[0][l_k == "R"] + a_km1 * terms[1][l_km1 == "R"]
    rest = a_k * terms[0][l_k == "N"] + a_km1 * terms[1][l_km1 == "N"]
    strong = norm2(combined) >= RHO_DOM * norm2(rest)
    return PairLabel(kind=kind, strong=strong)


def estimate_rate(norms) -> float | None:
    """Geometric-mean contraction ratio of an ordered tail of norms.

    Leading/trailing non-positive entries are trimmed; None when fewer than
    four usable entries remain or one inside the tail is non-positive.  The
    geometric mean of successive ratios telescopes to (last/first)^(1/(m-1)).
    """
    vals = [float(v) for v in norms]
    while vals and not (np.isfinite(vals[0]) and vals[0] > 0.0):
        vals.pop(0)
    while vals and not (np.isfinite(vals[-1]) and vals[-1] > 0.0):
        vals.pop()
    if len(vals) < 4 or any(not (np.isfinite(v) and v > 0.0) for v in vals):
        return None
    m = len(vals)
    return float((vals[-1] / vals[0]) ** (1.0 / (m - 1)))


def estimate_root_order(rho: float) -> float | None:
    """Invert the null-component Newton contraction rho = d/(d+1); None for
    rho outside (0, 1), where no root order fits."""
    return rho / (1.0 - rho) if 0.0 < rho < 1.0 else None


@dataclass
class StepDiagnostics:
    k: int
    sigma: float
    pn_norm: float
    pr_norm: float
    theta: float
    pair: PairLabel | None
    compatible: bool


@dataclass
class DiagnosticsReport:
    """Per-step analysis quantities plus tail rate / root-order estimates."""

    steps: list[StepDiagnostics]
    rate: float | None
    root_order: float | None


def diagnose_run(p: NonlinearProblem, outcome: SolveOutcome) -> DiagnosticsReport:
    """Build the diagnostics report from ``outcome.errors``.

    Needs ground truth (p's, and an outcome solved on a problem with it) but
    no iterate history, and makes no residual, Jacobian or linear-solve call.
    proj_lm steps get no pair label.  Null components below NOISE_FLOOR are
    left out of the rate fit; the estimates are None on a short tail.
    """
    if p.known_root is None or p.null_basis is None:
        raise MissingGroundTruth(f"{p.name}: known_root and null_basis required")
    errs = outcome.errors
    if errs is None:
        raise MissingGroundTruth(f"{p.name}: outcome solved without known_root and null_basis")

    pn = [norm2(it.null) for it in errs]
    steps = []
    for rec, prev, now, new in zip(outcome.trace, [None] + errs, errs, errs[1:]):
        k = rec.k
        pair = None
        if prev is not None and new.update is not None and now.update is not None:
            pair = _pair_label(now.null, new.update, prev.null, now.update, new.gamma)
        sigma = float("inf") if pn[k] == 0.0 else now.range_norm / pn[k]
        steps.append(StepDiagnostics(
            k=k, sigma=sigma, pn_norm=pn[k], pr_norm=now.range_norm, theta=rec.theta, pair=pair,
            compatible=pn[k + 1] <= COMPAT_C * rec.theta * rec.step_norm,
        ))

    scale = NOISE_FLOOR * (1.0 + norm2(p.known_root))
    tail = [v for v in pn if v > scale]
    rate = estimate_rate(tail[-12:])
    order = None if rate is None else estimate_root_order(rate)
    return DiagnosticsReport(steps=steps, rate=rate, root_order=order)


def iterate_error(p: NonlinearProblem, x: np.ndarray, w: np.ndarray | None = None,
                  w_prev: np.ndarray | None = None, gamma_raw: float = 0.0) -> IterateError:
    """The IterateError of iterate x of a solve of p, reached by the step that
    solved for the Newton update w after w_prev (None where there is none).
    gamma is None without both updates; else it is the step's gamma_raw if
    nonzero, as it is where the step took one, and lstsq_gamma(w, w_prev) if 0."""
    basis = p.null_basis
    e = x - p.known_root
    c = basis.T @ e
    # e -= P_N e = B c, over blocks of BAND_BLOCK rows, so that e is the one
    # n-vector formed.  Each row of B c has the bits the whole product gives
    # it, because NonlinearProblem holds the basis in C order; over a
    # Fortran-ordered one of several columns they may differ in the last bit.
    # np.dot: for a one-column basis ``basis @ c`` takes about six times as
    # long at n = 10^5, same bits
    for lo in range(0, len(e), BAND_BLOCK):
        e[lo:lo + BAND_BLOCK] -= np.dot(basis[lo:lo + BAND_BLOCK], c)
    gamma = None if w is None or w_prev is None else (gamma_raw or lstsq_gamma(w, w_prev))
    d = None if w is None else basis.T @ w
    return IterateError(c, norm2(e), d, gamma)
