"""Benchmark problem constructors and the small-scale problem registry.

The two scaleable problems are the Chandrasekhar H-equation discretized by
the composite midpoint rule (singular Jacobian at the bifurcation parameter
omega = 1) and a chained multivariate polynomial whose zero root has
adjustable order k-1.  The registry holds the small (n <= 8) literature
problems; entries whose source definitions have not been transcribed raise
ProblemUnavailable so a harness can skip and report them instead of running
a fabricated system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import NonlinearProblem, SolverConfig, check_count
from .linalg import (
    BAND_BLOCK,
    EPS,
    DenseJacobian,
    IdentityMinusLowRankJacobian,
    UpperBidiagonalJacobian,
    null_direction,
)
from .solvers import MethodId, solve

GROUND_TRUTH_TOL = 1e-13  # residual tolerance of the solve with_ground_truth takes as the root


class ProblemUnavailable(Exception):
    """Registry entry exists by name but its source system is not transcribed."""


@dataclass(frozen=True)
class HEquationSpec:
    n: int = 500
    omega: float = 1.0

    def __post_init__(self):
        check_count("n", self.n, 1)
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"need omega in [0,1], got {self.omega}")


@dataclass(frozen=True)
class MultipolySpec:
    n: int = 10_000
    k: int = 2

    def __post_init__(self):
        check_count("n", self.n, 2)
        check_count("k", self.k, 2)


KERNEL_TAU = 0.2  # the Taylor block is at most tau against 1/x >= 1/2: its rounding stays ulps
KERNEL_DEGREE = 13  # the first dropped Taylor term, tau^15 2^14 / 15!, is below 1e-18 on x <= 2


def _nodes(n: int) -> np.ndarray:  # the H-equation's midpoint nodes mu_i = (i - 1/2)/n
    return (np.arange(1, n + 1) - 0.5) / n


def _kernel_factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n x r factor E and symmetric r x r core M with mu_i (E M E^T)_ij =
    mu_i / (mu_i + mu_j) at the midpoint nodes.

    The trapezoid rule with step h on 1/x = int exp(s - x e^s) ds over
    s in [ln(eps/2), ln(60 n)] (Braess & Hackbusch's exponential sum for 1/x)
    gives nodes t_q = e^(s_q) and 1/x ~ sum_q h t_q e^(-x t_q).  The nodes with
    t_q > KERNEL_TAU stay as columns E_jq = exp(-t_q mu_j), M_qq = h t_q.
    The others, where e^(-x t_q) is nearly flat on x = mu_i + mu_j <= 2, are
    replaced by the degree-KERNEL_DEGREE Taylor polynomial of their own sum,
    sum_m c_m x^m with c_m = (-1)^m / m! sum_q h t_q^(m+1); expanding x^m
    binomially makes it V P V^T with V_jl = mu_j^l and
    P_ll' = c_(l+l') C(l+l', l), so E gains the columns V and M the block P.
    That is r = 68 at n = 2000 (14 polynomial columns in place of 141 nodes),
    growing like ln n, and each entry is within 2e-15 of the kernel, relative.
    """
    mu = _nodes(n)
    # h = 0.45 leaves a kernel error of 5.6e-9, and then Newton at omega = 1
    # no longer converges to the tolerance; the tests pin the error
    h = 0.25
    t = np.exp(np.arange(np.log(EPS / 2.0), np.log(60.0 * n) + h, h))
    small, t = t[t <= KERNEL_TAU], t[t > KERNEL_TAU]
    deg = KERNEL_DEGREE
    q = t.size
    m = np.zeros((q + deg + 1, q + deg + 1))
    m[range(q), range(q)] = h * t
    for k in range(deg + 1):
        c = (-1) ** k / math.factorial(k) * float(np.sum(h * small ** (k + 1)))
        for l in range(k + 1):
            m[q + l, q + k - l] = c * math.comb(k, l)
    # filled in place: at n = 10^5 an hstack would hold a second n x r array
    e = np.empty((n, q + deg + 1))
    np.multiply.outer(-mu, t, out=e[:, :q])
    np.exp(e[:, :q], out=e[:, :q])
    np.power(mu[:, None], np.arange(deg + 1), out=e[:, q:])
    return e, m


def h_equation(spec: HEquationSpec) -> NonlinearProblem:
    """Discrete Chandrasekhar H-equation with parameter omega.

    Midpoint nodes mu_i = (i - 1/2)/n; the residual is
    F_i(x) = x_i - (1 - (omega/2n) sum_j mu_i x_j / (mu_i + mu_j))^(-1).
    The node kernel mu_i / (mu_i + mu_j) is held as diag(mu) E M E^T
    (``_kernel_factors``: exponential-sum columns for the trapezoid nodes
    t_q > KERNEL_TAU, one Taylor block for the rest), so a problem holds
    n r + r^2 doubles with r = 68 at n = 2000, growing like ln n, the
    residual costs O(n r), and the Jacobian I - diag(w) E M E^T with
    w = (omega/2n) mu (1 - s)^(-2) is an ``IdentityMinusLowRankJacobian``,
    solved through an r x r matrix.  The recommended start is the vector of
    ones.  For omega = 1 the Jacobian at the solution has a one-dimensional
    (numerical) null space; use ``with_ground_truth`` to attach it.
    """
    n, omega = spec.n, spec.omega
    cmu = omega / (2.0 * n) * _nodes(n)
    e, m = _kernel_factors(n)

    def kernel_sum(x):  # s_i = (omega/2n) sum_j mu_i x_j / (mu_i + mu_j)
        return cmu * (e @ (m @ (e.T @ x)))

    def residual(x):
        return x - 1.0 / (1.0 - kernel_sum(x))

    def jacobian(x):
        return IdentityMinusLowRankJacobian(cmu * (1.0 - kernel_sum(x)) ** -2, e, m)

    return NonlinearProblem(
        name=f"heq_n{n}_w{omega:g}",
        residual=residual,
        jacobian=jacobian,
        start=np.ones(n),
    )


def _int_power(x: np.ndarray, e: int, out: np.ndarray | None = None) -> np.ndarray:
    """x**e for an integer e >= 1, into ``out`` (a new array when None),
    without libm's negative-base pow.

    e = 2 is ``np.square`` (the bits of ``x ** 2``); for e >= 3 the power is
    taken of |x| and, for odd e, the sign of x is copied back.  Infinities,
    NaNs and signed zeros come out as ``x ** e`` gives them; a finite result
    can differ from it by 1 ulp.

    Entries with |x| < 2^(-1076/e), zeros included, whose power rounds to +0,
    are set to 0 without ``pow``: on 10^5 such entries numpy's vector ``pow``
    took 2.1-15 ms against 0.6 ms on normal values (2-core AVX-512 Xeon,
    numpy 2.4.6), and two thirds of the entries multipoly's Newton solves
    raise at n = 10^5 are zeros.  A block with no such entry, as in multipoly's Anderson
    solves, skips the mask after one ``min``: ``pow`` under a mask ran about
    20% slower than without.  Just below 2^(-1075/e), ``pow`` still gives
    the least subnormal for e = 3 and 6.
    """
    if e == 1:
        return np.positive(x, out=out)  # a copy
    if e == 2:
        return np.square(x, out=out)
    y = np.abs(x, out=out)
    tiny = 2.0 ** (-1076.0 / e)
    if y.min(initial=np.inf) < tiny:
        small = y < tiny
        np.copyto(y, 0.0, where=small)
        np.power(y, e, out=y, where=~small)
    else:
        np.power(y, e, out=y)
    if e % 2:
        np.copysign(y, x, out=y)
    return y


def multipoly(spec: MultipolySpec) -> NonlinearProblem:
    """Chained polynomial f_i = x_i^2 + x_i - x_{i+1}^k, f_n = x_n^k.

    The zero vector is a root of order k-1 with null space spanned by e_n.
    The Jacobian is upper bidiagonal: diag 2x_i+1 for i < n, last diagonal
    entry k x_n^{k-1}, and superdiag -k x_{i+1}^{k-1}, so each linear solve
    costs O(n).  Start point: x_n = 0.9 and x_j = 0.3 elsewhere.

    Powers go through ``_int_power`` (|x|^e, then the sign for odd e).
    Anderson extrapolation pushes iterates below zero, and numpy's ``x ** k``
    leaves its vector ``pow`` for a scalar path on negative entries: on
    10^6 entries it took about 4 ms when they were positive and 130 ms when
    they were negative, against 4-7 ms for ``_int_power`` (2-core Xeon).
    The residual allocates one n-length array per call, the one it returns,
    and the Jacobian one 2 x n LAPACK band, which its solve takes as it is.
    """
    n, k = spec.n, spec.k

    # Residual and Jacobian run over blocks of BAND_BLOCK rows, with the
    # power taken into one buffer that stays in cache: over whole rows of
    # n = 10^5 the residual took 0.7-1.3 ms, in blocks 0.14-0.66 ms (k = 2, 3,
    # 7; 2-core Xeon).
    def residual(x):
        f = np.empty(n)
        buf = np.empty(min(BAND_BLOCK, n - 1))
        for lo in range(0, n - 1, BAND_BLOCK):
            hi = min(lo + BAND_BLOCK, n - 1)
            fs = np.square(x[lo:hi], out=f[lo:hi])
            fs += x[lo:hi]
            fs -= _int_power(x[lo + 1:hi + 1], k, out=buf[:hi - lo])
        _int_power(x[-1:], k, out=f[-1:])
        return f

    def jacobian(x):
        # LAPACK's upper band: row 0 holds -k x_j^(k-1), the superdiagonal
        # from column 1 on (column 0 is never read), row 1 the diagonal.
        # Only the last operation of a block writes the band's strided rows:
        # numpy's power and abs writing a strided row ran up to twice as slow.
        band = np.empty((2, n), order="F")
        buf = np.empty(min(BAND_BLOCK, n))
        for lo in range(0, n, BAND_BLOCK):
            hi = lo + BAND_BLOCK
            xs = x[lo:hi]
            t = buf[:len(xs)]
            np.multiply(_int_power(xs, k - 1, out=t), -k, out=band[0, lo:hi])
            np.add(np.multiply(xs, 2.0, out=t), 1.0, out=band[1, lo:hi])
        band[1, -1] = -band[0, -1]
        return UpperBidiagonalJacobian(band)

    start = np.full(n, 0.3)
    start[-1] = 0.9
    basis = np.zeros((n, 1))
    basis[-1, 0] = 1.0
    return NonlinearProblem(
        name=f"multipoly_k{k}_n{n}",
        residual=residual,
        jacobian=jacobian,
        start=start,
        known_root=np.zeros(n),
        null_basis=basis,
    )


def with_ground_truth(p: NonlinearProblem) -> NonlinearProblem:
    """Attach a numerically computed root and null direction to a problem.

    The root is a safeguarded Newton-Anderson solve to ||f|| < GROUND_TRUTH_TOL;
    the null direction is the right singular vector of the Jacobian there
    with smallest singular value, ``linalg.null_direction``: one LAPACK
    ``dsyevr`` over J^T J, formed in place of J, the one n x n array.  For
    problems that are only nearly singular at finite resolution the
    annihilation check in validate_problem reflects that honestly.
    """
    cfg = SolverConfig(tol=GROUND_TRUTH_TOL, max_iters=400)
    out = solve(p, MethodId.gamma_n_anderson, cfg)
    if not out.converged:
        raise RuntimeError(f"ground-truth solve failed on {p.name}: ||f|| = {out.final_res:.3e}")
    return replace(p, known_root=out.x, null_basis=null_direction(p.jacobian(out.x)))


def fd_jacobian_check(p: NonlinearProblem, x: np.ndarray) -> float:
    """Max relative discrepancy between the analytic Jacobian and central
    finite differences with per-column step h_j = eps^(1/3) (1 + |x_j|)."""
    x = np.asarray(x, dtype=float)
    analytic = p.jacobian(x).to_dense()
    fd = np.empty_like(analytic)
    h0 = EPS ** (1.0 / 3.0)
    for j in range(p.dim):
        h = h0 * (1.0 + abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        fd[:, j] = (p.residual(xp) - p.residual(xm)) / (2.0 * h)
    return float(np.max(np.abs(analytic - fd) / (1.0 + np.abs(analytic))))


# ---------------------------------------------------------------------------
# small-scale registry
# ---------------------------------------------------------------------------
# The n <= 8 formulas run on Python floats (``x.tolist()``): numpy scalar
# arithmetic gives the same bits at several times the cost per operation.
# Each power is still numpy's scalar power, ``float(x[i] ** e)``, libm's pow:
# Python's float ``**`` raises OverflowError where numpy's returns inf, and a
# diverging iterate must end ``nonfinite``; ``x * x`` is not pow's square to
# the ulp.  exp, sin and cos stay numpy's for their bits too.


def _boxed(name, residual_rows, jacobian_rows, lo, hi) -> NonlinearProblem:
    """A registry problem on the box [lo, hi], started at its lower corner,
    whose residual and Jacobian are made from the rows its formulas return."""

    def residual(x):
        return np.array(residual_rows(x))

    def jacobian(x):
        return DenseJacobian(jacobian_rows(x))

    return NonlinearProblem(name, residual, jacobian, start=lo, bounds=(lo, hi))


def _himmelbau(name: str) -> NonlinearProblem:
    # stationarity system of Himmelblau's function; box [-5,5]^2
    def residual(x):
        x1, x2 = x.tolist()
        x1_3, x2_2, x1_2, x2_3 = (float(x[0] ** 3), float(x[1] ** 2),
                                  float(x[0] ** 2), float(x[1] ** 3))
        return [
            4.0 * x1_3 + 4.0 * x1 * x2 + 2.0 * x2_2 - 42.0 * x1 - 14.0,
            2.0 * x1_2 + 4.0 * x1 * x2 + 4.0 * x2_3 - 26.0 * x2 - 22.0,
        ]

    def jacobian(x):
        x1, x2 = x.tolist()
        x1_2, x2_2 = float(x[0] ** 2), float(x[1] ** 2)
        return [
            [12.0 * x1_2 + 4.0 * x2 - 42.0, 4.0 * x1 + 4.0 * x2],
            [4.0 * x1 + 4.0 * x2, 12.0 * x2_2 + 4.0 * x1 - 26.0],
        ]

    lo = np.array([-5.0, -5.0])
    hi = np.array([5.0, 5.0])
    return _boxed(name, residual, jacobian, lo, hi)


def _eq_combustion(name: str) -> NonlinearProblem:
    # propane-in-air equilibrium combustion system (reduced form), n = 5
    R = 10.0
    R5 = 0.193
    R6 = 4.10622e-4
    R7 = 5.45177e-4
    R8 = 4.4975e-7
    R9 = 3.40735e-5
    R10 = 9.615e-7

    def residual(x):
        x1, x2, x3, x4, x5 = x.tolist()
        x2_2, x3_2, x4_2 = float(x[1] ** 2), float(x[2] ** 2), float(x[3] ** 2)
        return [
            x1 * x2 + x1 - 3.0 * x5,
            2.0 * x1 * x2 + x1 + 2.0 * R10 * x2_2 + x2 * x3_2
            + R7 * x2 * x3 + R9 * x2 * x4 + R8 * x2 - R * x5,
            2.0 * x2 * x3_2 + R7 * x2 * x3 + 2.0 * R5 * x3_2 + R6 * x3 - 8.0 * x5,
            R9 * x2 * x4 + 2.0 * x4_2 - 4.0 * R * x5,
            x1 * x2 + x1 + R10 * x2_2 + x2 * x3_2 + R7 * x2 * x3
            + R9 * x2 * x4 + R8 * x2 + R5 * x3_2 + R6 * x3 + x4_2 - 1.0,
        ]

    def jacobian(x):
        x1, x2, x3, x4, x5 = x.tolist()
        x3_2 = float(x[2] ** 2)
        return [
            [x2 + 1.0, x1, 0.0, 0.0, -3.0],
            [2.0 * x2 + 1.0, 2.0 * x1 + 4.0 * R10 * x2 + x3_2 + R7 * x3 + R9 * x4 + R8,
             2.0 * x2 * x3 + R7 * x2, R9 * x2, -R],
            [0.0, 2.0 * x3_2 + R7 * x3, 4.0 * x2 * x3 + R7 * x2 + 4.0 * R5 * x3 + R6,
             0.0, -8.0],
            [0.0, R9 * x4, 0.0, R9 * x2 + 4.0 * x4, -4.0 * R],
            [x2 + 1.0, x1 + 2.0 * R10 * x2 + x3_2 + R7 * x3 + R9 * x4 + R8,
             2.0 * x2 * x3 + R7 * x2 + 2.0 * R5 * x3 + R6, R9 * x2 + 2.0 * x4, 0.0],
        ]

    lo = np.full(5, 1e-4)
    hi = np.full(5, 100.0)
    return _boxed(name, residual, jacobian, lo, hi)


def _bullard_biegler(name: str) -> NonlinearProblem:
    def residual(x):
        x1, x2 = x.tolist()
        return [1.0e4 * x1 * x2 - 1.0, np.exp(-x1) + np.exp(-x2) - 1.001]

    def jacobian(x):
        x1, x2 = x.tolist()
        return [[1.0e4 * x2, 1.0e4 * x1], [-np.exp(-x1), -np.exp(-x2)]]

    lo = np.array([5.49e-6, 2.196e-3])
    hi = np.array([4.553, 18.21])
    return _boxed(name, residual, jacobian, lo, hi)


def _ferraris_tronconi(name: str) -> NonlinearProblem:
    a = 1.0 - 0.25 / np.pi

    def residual(x):
        x1, x2 = x.tolist()
        return [
            0.5 * np.sin(x1 * x2) - 0.25 * x2 / np.pi - 0.5 * x1,
            a * (np.exp(2.0 * x1) - np.e) + np.e * x2 / np.pi - 2.0 * np.e * x1,
        ]

    def jacobian(x):
        x1, x2 = x.tolist()
        c = 0.5 * np.cos(x1 * x2)
        return [
            [c * x2 - 0.5, c * x1 - 0.25 / np.pi],
            [2.0 * a * np.exp(2.0 * x1) - 2.0 * np.e, np.e / np.pi],
        ]

    lo = np.array([0.25, 1.5])
    hi = np.array([1.0, 2.0 * np.pi])
    return _boxed(name, residual, jacobian, lo, hi)


def _browns_almost_linear(name: str) -> NonlinearProblem:
    n = 5
    linear = np.ones((n, n))  # rows 1..n-1 of J: ones plus the identity
    linear[:-1, :-1] += np.eye(n - 1)

    def residual(x):
        xs = x.tolist()
        s = xs[0]
        for v in xs[1:]:
            s += v  # left to right: np.sum's order below eight entries
        return [v + s - (n + 1.0) for v in xs[:-1]] + [math.prod(xs) - 1.0]

    def jacobian(x):
        xs = x.tolist()
        jm = linear.copy()
        jm[-1] = [math.prod(xs[:j] + xs[j + 1:]) for j in range(n)]
        return jm

    lo = np.full(n, -2.0)
    hi = np.full(n, 2.0)
    return _boxed(name, residual, jacobian, lo, hi)


def _robot_kinematics(name: str) -> NonlinearProblem:
    def residual(x):
        x1, x2, x3, x4, x5, x6, x7, x8 = x.tolist()
        s1, s2, s3, s4, s5, s6, s7, s8 = [float(v ** 2) for v in x]
        return [
            0.004731 * x1 * x3 - 0.3578 * x2 * x3 - 0.1238 * x1 + x7
            - 0.001637 * x2 - 0.9338 * x4 - 0.3571,
            0.2238 * x1 * x3 + 0.7623 * x2 * x3 + 0.2638 * x1 - x7
            - 0.07745 * x2 - 0.6734 * x4 - 0.6022,
            x6 * x8 + 0.3578 * x1 + 0.004731 * x2,
            -0.7623 * x1 + 0.2238 * x2 + 0.3461,
            s1 + s2 - 1.0,
            s3 + s4 - 1.0,
            s5 + s6 - 1.0,
            s7 + s8 - 1.0,
        ]

    def jacobian(x):
        x1, x2, x3, x4, x5, x6, x7, x8 = x.tolist()
        return [
            [0.004731 * x3 - 0.1238, -0.3578 * x3 - 0.001637,
             0.004731 * x1 - 0.3578 * x2, -0.9338, 0.0, 0.0, 1.0, 0.0],
            [0.2238 * x3 + 0.2638, 0.7623 * x3 - 0.07745,
             0.2238 * x1 + 0.7623 * x2, -0.6734, 0.0, 0.0, -1.0, 0.0],
            [0.3578, 0.004731, 0.0, 0.0, 0.0, x8, 0.0, x6],
            [-0.7623, 0.2238, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [2.0 * x1, 2.0 * x2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 2.0 * x3, 2.0 * x4, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 2.0 * x5, 2.0 * x6, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0 * x7, 2.0 * x8],
        ]

    lo = np.full(8, -1.0)
    hi = np.full(8, 1.0)
    return _boxed(name, residual, jacobian, lo, hi)


# each builder is called with its key, the only place its name is written
_TRANSCRIBED = {
    "Himmelbau": _himmelbau,
    "Eq-Combustion": _eq_combustion,
    "Bullard-Biegler": _bullard_biegler,
    "Ferraris-Tronconi": _ferraris_tronconi,
    "Brown's Al. Lin.": _browns_almost_linear,
    "Robot Kin. Sys.": _robot_kinematics,
}

# Entries whose defining systems live in sources we have not transcribed.
# They are registered by name so a harness can report them as skipped.
_UNTRANSCRIBED = (
    "Decker1",
    "Decker2",
    "Ojika1",
    "Ojika2",
    "Pollock1",
    "Dayton10",
    "Hueso1",
    "Hueso6",
)

REGISTRY_NAMES = tuple(_TRANSCRIBED) + _UNTRANSCRIBED


def registry_entry(name: str) -> NonlinearProblem:
    """Build one registry problem by name; raises ProblemUnavailable for
    entries pending transcription and KeyError for unknown names."""
    if name in _TRANSCRIBED:
        return _TRANSCRIBED[name](name)
    if name in _UNTRANSCRIBED:
        raise ProblemUnavailable(f"{name}: source definition not transcribed")
    raise KeyError(f"unknown registry problem {name!r}")
