"""Runtime diagnostics for problems with a known root and null-space basis.

Everything here works from quantities a solver already has (iterates and
Newton updates); in particular the curvature term entering the pair-type
classification is replaced by the second-derivative-free proxy
P_N(e + w) - (1/2) P_N e, which is accurate to second order in the error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import IterateError, IterationRecord, NonlinearProblem, SolveOutcome
from .linalg import DegenerateSteps, lstsq_gamma


class MissingGroundTruth(Exception):
    """Known root and/or null basis required but absent from the problem."""


class ZeroStep(Exception):
    """The Newton update vanished; the gain is undefined (already converged)."""


class InsufficientTail(Exception):
    """Too few usable entries to estimate a contraction rate."""


class OutOfRange(Exception):
    """Contraction ratio outside (0,1); no root order can be inferred."""


@dataclass
class ErrorSplit:
    """Error e = x - x* split into null and range components.

    sigma = ||pr|| / ||pn|| measures the angle to the null space; it is the
    infinity sentinel when the null component vanishes.
    """

    e: np.ndarray
    pn: np.ndarray
    pr: np.ndarray
    sigma: float


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


@dataclass
class NuRatio:
    nu: float


def _require_truth(p: NonlinearProblem):
    if p.known_root is None or p.null_basis is None:
        raise MissingGroundTruth(f"{p.name}: known_root and null_basis required")


def _null_split(basis: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Null coordinates c = B^T v and P_N v = B c (np.dot: for a one-column
    basis ``basis @ c`` takes about six times as long at n = 10^5, same bits)."""
    c = basis.T @ v
    return c, np.dot(basis, c)


def _sigma(pr_norm: float, pn_norm: float) -> float:
    return float("inf") if pn_norm == 0.0 else pr_norm / pn_norm


def split_error(x: np.ndarray, p: NonlinearProblem) -> ErrorSplit:
    """Orthogonal split of x - x* into null and range components."""
    _require_truth(p)
    e = np.asarray(x, dtype=float) - p.known_root
    _, pn = _null_split(p.null_basis, e)
    pr = e - pn
    sigma = _sigma(float(np.linalg.norm(pr)), float(np.linalg.norm(pn)))
    return ErrorSplit(e=e, pn=pn, pr=pr, sigma=sigma)


def theta_gain(w_next: np.ndarray, w_prev: np.ndarray, gamma_used: float) -> float:
    """Optimization gain ||w_next - gamma*(w_next - w_prev)|| / ||w_next||."""
    w_next = np.asarray(w_next, dtype=float)
    nw = float(np.linalg.norm(w_next))
    if nw == 0.0:
        raise ZeroStep("||w_next|| = 0")
    return float(np.linalg.norm(w_next - gamma_used * (w_next - np.asarray(w_prev)))) / nw


def nu_ratio(gamma_used: float, a: float, b: float) -> NuRatio:
    """min/max balance of the two safeguard products |1-g| a and |g| b."""
    p1 = abs(1.0 - gamma_used) * a
    p2 = abs(gamma_used) * b
    lo, hi = min(p1, p2), max(p1, p2)
    if lo == 0.0:
        return NuRatio(nu=0.0)
    return NuRatio(nu=lo / hi)


def _raw_gamma(w_next: np.ndarray, w_prev: np.ndarray) -> float | None:  # None if degenerate
    try:
        return lstsq_gamma(w_next, w_prev)
    except DegenerateSteps:
        return None


_PAIR_KINDS = {("N", "N"): PairKind.N_pair, ("R", "R"): PairKind.R_pair,
               ("N", "R"): PairKind.NR_pair, ("R", "N"): PairKind.RN_pair}


def _pair_label(c_k, d_k, c_km1, d_km1, gamma: float | None, rho_dom: float) -> PairLabel:
    """The pair and strong-flag rules of classify_pair in null coordinates
    c_i = B^T e_i, d_i = B^T w_{i+1}; ``gamma`` is None for degenerate updates."""
    # per index: the null term (1/2) P_N e_i and the curvature proxy
    terms = [(0.5 * c, c + d - 0.5 * c) for c, d in ((c_k, d_k), (c_km1, d_km1))]
    labels = []
    for t_null, t_curv in terms:
        t_n, t_r = float(np.linalg.norm(t_null)), float(np.linalg.norm(t_curv))
        if t_n == 0.0 and t_r == 0.0:
            labels.append(None)
        elif t_n >= rho_dom * t_r:
            labels.append("N")
        else:
            labels.append("R" if t_r >= rho_dom * t_n else None)
    kind = _PAIR_KINDS.get(tuple(labels), PairKind.undominated)
    if kind is PairKind.undominated or gamma is None:
        return PairLabel(kind=kind, strong=False)
    # weights 1 - gamma at k and gamma at k - 1; terms[i][True] is the curvature term
    (a_k, a_km1), (l_k, l_km1) = (1.0 - gamma, gamma), labels
    combined = a_k * terms[0][l_k == "R"] + a_km1 * terms[1][l_km1 == "R"]
    rest = a_k * terms[0][l_k == "N"] + a_km1 * terms[1][l_km1 == "N"]
    strong = float(np.linalg.norm(combined)) >= rho_dom * float(np.linalg.norm(rest))
    return PairLabel(kind=kind, strong=strong)


def _compatible(pn_norm_next: float, rec: IterationRecord, C: float) -> bool:
    """The compatibility rule ||P_N e_{k+1}|| <= C * theta_{k+1} * ||w_{k+1}||."""
    return pn_norm_next <= C * rec.theta * rec.step_norm


def classify_pair(
    split_k: ErrorSplit, split_km1: ErrorSplit, w_next: np.ndarray, w_k: np.ndarray,
    p: NonlinearProblem, rho_dom: float = 3.0,
) -> PairLabel:
    """Classify the iterate pair by which error-expansion term dominates.

    Per index i, the competing terms are (1/2)||P_N e_i|| and the proxy
    ||P_N(e_i + w_{i+1}) - (1/2) P_N e_i|| for the curvature contribution;
    one side must exceed the other by the factor rho_dom to count as
    dominant.  The strong flag checks whether the corresponding recombined
    sum dominates the remaining expansion terms by the same factor.
    """
    _require_truth(p)
    b_t = p.null_basis.T
    gamma = _raw_gamma(w_next, w_k)
    return _pair_label(b_t @ split_k.e, b_t @ w_next, b_t @ split_km1.e, b_t @ w_k, gamma, rho_dom)


def compatibility_monitor(
    trace: list[IterationRecord], splits: list[ErrorSplit], C: float = 2.0
) -> list[bool]:
    """Flag steps where ||P_N e_{k+1}|| <= C * theta_{k+1} * ||w_{k+1}||.

    ``splits`` must hold one entry per iterate (len(trace) + 1 of them).
    """
    return [_compatible(float(np.linalg.norm(splits[rec.k + 1].pn)), rec, C) for rec in trace]


def estimate_rate(norms) -> float:
    """Geometric-mean contraction ratio of an ordered tail of norms.

    Leading/trailing non-positive entries are trimmed; at least four usable
    entries are required.  The geometric mean of successive ratios
    telescopes to (last/first)^(1/(m-1)).
    """
    vals = [float(v) for v in norms]
    while vals and not (np.isfinite(vals[0]) and vals[0] > 0.0):
        vals.pop(0)
    while vals and not (np.isfinite(vals[-1]) and vals[-1] > 0.0):
        vals.pop()
    if any(not (np.isfinite(v) and v > 0.0) for v in vals):
        raise InsufficientTail("non-positive entry inside the tail")
    if len(vals) < 4:
        raise InsufficientTail(f"need >= 4 usable entries, got {len(vals)}")
    m = len(vals)
    return float((vals[-1] / vals[0]) ** (1.0 / (m - 1)))


def estimate_root_order(rho: float) -> float:
    """Invert the null-component Newton contraction rho = d/(d+1)."""
    if not 0.0 < rho < 1.0:
        raise OutOfRange(f"need rho in (0,1), got {rho}")
    return rho / (1.0 - rho)


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


def diagnose_run(
    p: NonlinearProblem, outcome: SolveOutcome, C: float = 2.0, rho_dom: float = 3.0,
    noise_floor: float = 1e-13,
) -> DiagnosticsReport:
    """Build the diagnostics report from ``outcome.errors``.

    Needs ground truth (p's, and an outcome solved on a problem with it) but
    no iterate history, and makes no residual, Jacobian or linear-solve call.
    proj_lm steps get no pair label.  Null components below the noise floor
    are left out of the rate fit; the estimates are None on a short tail.
    """
    _require_truth(p)
    errs = outcome.errors
    if errs is None:
        raise MissingGroundTruth(f"{p.name}: outcome solved without known_root and null_basis")

    pn = [float(np.linalg.norm(it.null)) for it in errs]
    steps = []
    for rec, prev, now, new in zip(outcome.trace, [None] + errs, errs, errs[1:]):
        k = rec.k
        pair = None
        if prev is not None and new.update is not None and now.update is not None:
            pair = _pair_label(now.null, new.update, prev.null, now.update, new.gamma, rho_dom)
        steps.append(StepDiagnostics(
            k=k, sigma=_sigma(now.range_norm, pn[k]), pn_norm=pn[k], pr_norm=now.range_norm,
            theta=rec.theta, pair=pair, compatible=_compatible(pn[k + 1], rec, C),
        ))

    scale = noise_floor * (1.0 + float(np.linalg.norm(p.known_root)))
    tail = [v for v in pn if v > scale]
    rate = order = None
    try:
        rate = estimate_rate(tail[-12:])
        order = estimate_root_order(rate)
    except (InsufficientTail, OutOfRange):
        pass
    return DiagnosticsReport(steps=steps, rate=rate, root_order=order)


def error_recorder(p: NonlinearProblem, x0: np.ndarray):
    """(errors, record) for a solve of p from x0: ``record(x, w)`` appends to
    ``errors`` the IterateError of iterate x, which the Newton update w led to
    (None if none did), and keeps a reference to w, not a copy, for the next gamma."""
    root, basis, errors, last = p.known_root, p.null_basis, [], [None]

    def record(x: np.ndarray, w: np.ndarray | None) -> None:
        e = x - root
        c, pn = _null_split(basis, e)
        e -= pn
        gamma = None if w is None or last[0] is None else _raw_gamma(w, last[0])
        d = None if w is None else basis.T @ w
        errors.append(IterateError(c, float(np.linalg.norm(e)), d, gamma))
        last[0] = w

    record(x0, None)
    return errors, record
