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

from dataclasses import dataclass, replace

import numpy as np

from .core import NonlinearProblem, SolverConfig
from .linalg import EPS, DenseJacobian, UpperBidiagonalJacobian
from .solvers import newton_anderson_solve

GROUND_TRUTH_TOL = 1e-13  # residual tolerance of the solve with_ground_truth takes as the root


class ProblemUnavailable(Exception):
    """Registry entry exists by name but its source system is not transcribed."""


@dataclass(frozen=True)
class HEquationSpec:
    n: int = 500
    omega: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"need omega in [0,1], got {self.omega}")


@dataclass(frozen=True)
class MultipolySpec:
    n: int = 10_000
    k: int = 2

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.k < 2:
            raise ValueError(f"need k >= 2, got {self.k}")


def h_equation(spec: HEquationSpec) -> NonlinearProblem:
    """Discrete Chandrasekhar H-equation with parameter omega.

    Midpoint nodes mu_i = (i - 1/2)/n; the residual is
    F_i(x) = x_i - (1 - (omega/2n) sum_j mu_i x_j / (mu_i + mu_j))^(-1)
    with a dense analytic Jacobian.  The node kernel mu_i / (mu_i + mu_j) is
    built once, so a problem holds n^2 doubles.  The recommended start is the
    vector of ones.  For omega = 1 the Jacobian at the solution has a
    one-dimensional (numerical) null space; use ``with_ground_truth`` to
    attach it.
    """
    n, omega = spec.n, spec.omega
    mu = (np.arange(1, n + 1) - 0.5) / n
    coef = omega / (2.0 * n)
    kernel = np.add.outer(mu, mu)  # the one n x n array a problem keeps
    np.divide(mu[:, None], kernel, out=kernel)

    def residual(x):
        s = coef * (kernel @ x)
        return x - 1.0 / (1.0 - s)

    def jacobian(x):
        s = coef * (kernel @ x)
        w = (1.0 - s) ** -2
        jm = w[:, None] * kernel
        jm *= -coef
        jm[np.diag_indices(n)] += 1.0
        return DenseJacobian(jm)

    return NonlinearProblem(
        name=f"heq_n{n}_w{omega:g}",
        dim=n,
        residual=residual,
        jacobian=jacobian,
        start=np.ones(n),
    )


def multipoly(spec: MultipolySpec) -> NonlinearProblem:
    """Chained polynomial f_i = x_i^2 + x_i - x_{i+1}^k, f_n = x_n^k.

    The zero vector is a root of order k-1 with null space spanned by e_n.
    The Jacobian is upper bidiagonal: diag 2x_i+1 for i < n, last diagonal
    entry k x_n^{k-1}, and superdiag -k x_{i+1}^{k-1}, so each linear solve
    costs O(n).  Start point: x_n = 0.9 and x_j = 0.3 elsewhere.
    """
    n, k = spec.n, spec.k

    def residual(x):
        f = np.empty(n)
        f[:-1] = x[:-1] ** 2 + x[:-1] - x[1:] ** k
        f[-1] = x[-1] ** k
        return f

    def jacobian(x):
        diag = 2.0 * x + 1.0
        diag[-1] = k * x[-1] ** (k - 1)
        superdiag = -k * x[1:] ** (k - 1)
        return UpperBidiagonalJacobian(diag, superdiag)

    start = np.full(n, 0.3)
    start[-1] = 0.9
    basis = np.zeros((n, 1))
    basis[-1, 0] = 1.0
    return NonlinearProblem(
        name=f"multipoly_k{k}_n{n}",
        dim=n,
        residual=residual,
        jacobian=jacobian,
        start=start,
        known_root=np.zeros(n),
        null_basis=basis,
        root_order=k - 1,
    )


def with_ground_truth(p: NonlinearProblem) -> NonlinearProblem:
    """Attach a numerically computed root and null direction to a problem.

    The root is a safeguarded Newton-Anderson solve to ||f|| < GROUND_TRUTH_TOL;
    the null direction is the right singular vector of the Jacobian there
    with smallest singular value.  For problems that are only
    nearly singular at finite resolution the annihilation check in
    validate_problem reflects that honestly.
    """
    cfg = SolverConfig(tol=GROUND_TRUTH_TOL, max_iters=400)
    out = newton_anderson_solve(p, cfg, safeguard=True)
    if not out.converged:
        raise RuntimeError(f"ground-truth solve failed on {p.name}: ||f|| = {out.final_res:.3e}")
    root = out.x
    dense = p.jacobian(root).to_dense()
    _, _, vt = np.linalg.svd(dense)
    basis = vt[-1][:, None]
    return replace(p, known_root=root, null_basis=basis)


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


def _himmelbau() -> NonlinearProblem:
    # stationarity system of Himmelblau's function; box [-5,5]^2
    def residual(x):
        x1, x2 = x
        return np.array(
            [
                4.0 * x1**3 + 4.0 * x1 * x2 + 2.0 * x2**2 - 42.0 * x1 - 14.0,
                2.0 * x1**2 + 4.0 * x1 * x2 + 4.0 * x2**3 - 26.0 * x2 - 22.0,
            ]
        )

    def jacobian(x):
        x1, x2 = x
        return DenseJacobian(
            np.array(
                [
                    [12.0 * x1**2 + 4.0 * x2 - 42.0, 4.0 * x1 + 4.0 * x2],
                    [4.0 * x1 + 4.0 * x2, 12.0 * x2**2 + 4.0 * x1 - 26.0],
                ]
            )
        )

    lo = np.array([-5.0, -5.0])
    hi = np.array([5.0, 5.0])
    return NonlinearProblem(
        name="Himmelbau", dim=2, residual=residual, jacobian=jacobian,
        start=lo.copy(), bounds=(lo, hi),
    )


def _eq_combustion() -> NonlinearProblem:
    # propane-in-air equilibrium combustion system (reduced form), n = 5
    R = 10.0
    R5 = 0.193
    R6 = 4.10622e-4
    R7 = 5.45177e-4
    R8 = 4.4975e-7
    R9 = 3.40735e-5
    R10 = 9.615e-7

    def residual(x):
        x1, x2, x3, x4, x5 = x
        return np.array(
            [
                x1 * x2 + x1 - 3.0 * x5,
                2.0 * x1 * x2 + x1 + 2.0 * R10 * x2**2 + x2 * x3**2
                + R7 * x2 * x3 + R9 * x2 * x4 + R8 * x2 - R * x5,
                2.0 * x2 * x3**2 + R7 * x2 * x3 + 2.0 * R5 * x3**2 + R6 * x3 - 8.0 * x5,
                R9 * x2 * x4 + 2.0 * x4**2 - 4.0 * R * x5,
                x1 * x2 + x1 + R10 * x2**2 + x2 * x3**2 + R7 * x2 * x3
                + R9 * x2 * x4 + R8 * x2 + R5 * x3**2 + R6 * x3 + x4**2 - 1.0,
            ]
        )

    def jacobian(x):
        x1, x2, x3, x4, x5 = x
        return DenseJacobian(
            np.array(
                [
                    [x2 + 1.0, x1, 0.0, 0.0, -3.0],
                    [
                        2.0 * x2 + 1.0,
                        2.0 * x1 + 4.0 * R10 * x2 + x3**2 + R7 * x3 + R9 * x4 + R8,
                        2.0 * x2 * x3 + R7 * x2,
                        R9 * x2,
                        -R,
                    ],
                    [
                        0.0,
                        2.0 * x3**2 + R7 * x3,
                        4.0 * x2 * x3 + R7 * x2 + 4.0 * R5 * x3 + R6,
                        0.0,
                        -8.0,
                    ],
                    [0.0, R9 * x4, 0.0, R9 * x2 + 4.0 * x4, -4.0 * R],
                    [
                        x2 + 1.0,
                        x1 + 2.0 * R10 * x2 + x3**2 + R7 * x3 + R9 * x4 + R8,
                        2.0 * x2 * x3 + R7 * x2 + 2.0 * R5 * x3 + R6,
                        R9 * x2 + 2.0 * x4,
                        0.0,
                    ],
                ]
            )
        )

    lo = np.full(5, 1e-4)
    hi = np.full(5, 100.0)
    return NonlinearProblem(
        name="Eq-Combustion", dim=5, residual=residual, jacobian=jacobian,
        start=lo.copy(), bounds=(lo, hi),
    )


def _bullard_biegler() -> NonlinearProblem:
    def residual(x):
        x1, x2 = x
        return np.array(
            [1.0e4 * x1 * x2 - 1.0, np.exp(-x1) + np.exp(-x2) - 1.001]
        )

    def jacobian(x):
        x1, x2 = x
        return DenseJacobian(
            np.array([[1.0e4 * x2, 1.0e4 * x1], [-np.exp(-x1), -np.exp(-x2)]])
        )

    lo = np.array([5.49e-6, 2.196e-3])
    hi = np.array([4.553, 18.21])
    return NonlinearProblem(
        name="Bullard-Biegler", dim=2, residual=residual, jacobian=jacobian,
        start=lo.copy(), bounds=(lo, hi),
    )


def _ferraris_tronconi() -> NonlinearProblem:
    a = 1.0 - 0.25 / np.pi

    def residual(x):
        x1, x2 = x
        return np.array(
            [
                0.5 * np.sin(x1 * x2) - 0.25 * x2 / np.pi - 0.5 * x1,
                a * (np.exp(2.0 * x1) - np.e) + np.e * x2 / np.pi - 2.0 * np.e * x1,
            ]
        )

    def jacobian(x):
        x1, x2 = x
        c = 0.5 * np.cos(x1 * x2)
        return DenseJacobian(
            np.array(
                [
                    [c * x2 - 0.5, c * x1 - 0.25 / np.pi],
                    [2.0 * a * np.exp(2.0 * x1) - 2.0 * np.e, np.e / np.pi],
                ]
            )
        )

    lo = np.array([0.25, 1.5])
    hi = np.array([1.0, 2.0 * np.pi])
    return NonlinearProblem(
        name="Ferraris-Tronconi", dim=2, residual=residual, jacobian=jacobian,
        start=lo.copy(), bounds=(lo, hi),
    )


def _browns_almost_linear() -> NonlinearProblem:
    n = 5

    def residual(x):
        f = np.empty(n)
        s = float(np.sum(x))
        f[:-1] = x[:-1] + s - (n + 1.0)
        f[-1] = float(np.prod(x)) - 1.0
        return f

    def jacobian(x):
        jm = np.ones((n, n))
        jm[:-1, :-1] += np.eye(n - 1)
        for j in range(n):
            jm[-1, j] = np.prod(np.delete(x, j))
        return DenseJacobian(jm)

    lo = np.full(n, -2.0)
    hi = np.full(n, 2.0)
    return NonlinearProblem(
        name="Brown's Al. Lin.", dim=n, residual=residual, jacobian=jacobian,
        start=lo.copy(), bounds=(lo, hi),
    )


def _robot_kinematics() -> NonlinearProblem:
    def residual(x):
        x1, x2, x3, x4, x5, x6, x7, x8 = x
        return np.array(
            [
                0.004731 * x1 * x3 - 0.3578 * x2 * x3 - 0.1238 * x1 + x7
                - 0.001637 * x2 - 0.9338 * x4 - 0.3571,
                0.2238 * x1 * x3 + 0.7623 * x2 * x3 + 0.2638 * x1 - x7
                - 0.07745 * x2 - 0.6734 * x4 - 0.6022,
                x6 * x8 + 0.3578 * x1 + 0.004731 * x2,
                -0.7623 * x1 + 0.2238 * x2 + 0.3461,
                x1**2 + x2**2 - 1.0,
                x3**2 + x4**2 - 1.0,
                x5**2 + x6**2 - 1.0,
                x7**2 + x8**2 - 1.0,
            ]
        )

    def jacobian(x):
        x1, x2, x3, x4, x5, x6, x7, x8 = x
        jm = np.zeros((8, 8))
        jm[0] = [
            0.004731 * x3 - 0.1238, -0.3578 * x3 - 0.001637,
            0.004731 * x1 - 0.3578 * x2, -0.9338, 0.0, 0.0, 1.0, 0.0,
        ]
        jm[1] = [
            0.2238 * x3 + 0.2638, 0.7623 * x3 - 0.07745,
            0.2238 * x1 + 0.7623 * x2, -0.6734, 0.0, 0.0, -1.0, 0.0,
        ]
        jm[2] = [0.3578, 0.004731, 0.0, 0.0, 0.0, x8, 0.0, x6]
        jm[3] = [-0.7623, 0.2238, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        jm[4] = [2.0 * x1, 2.0 * x2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        jm[5] = [0.0, 0.0, 2.0 * x3, 2.0 * x4, 0.0, 0.0, 0.0, 0.0]
        jm[6] = [0.0, 0.0, 0.0, 0.0, 2.0 * x5, 2.0 * x6, 0.0, 0.0]
        jm[7] = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0 * x7, 2.0 * x8]
        return DenseJacobian(jm)

    lo = np.full(8, -1.0)
    hi = np.full(8, 1.0)
    return NonlinearProblem(
        name="Robot Kin. Sys.", dim=8, residual=residual, jacobian=jacobian,
        start=lo.copy(), bounds=(lo, hi),
    )


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
        return _TRANSCRIBED[name]()
    if name in _UNTRANSCRIBED:
        raise ProblemUnavailable(f"{name}: source definition not transcribed")
    raise KeyError(f"unknown registry problem {name!r}")


def registry() -> list[NonlinearProblem]:
    """All transcribed small-scale benchmark problems."""
    return [build() for build in _TRANSCRIBED.values()]
