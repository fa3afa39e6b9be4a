from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nasolve.core import NonlinearProblem, SolverConfig
from nasolve.linalg import DenseJacobian, SingularMatrix
from nasolve.problems import HEquationSpec, MultipolySpec, h_equation, multipoly, registry_entry
from nasolve.solvers import (
    LS_DAMPING,
    LS_SHRINK,
    MethodId,
    _backtrack,
    anderson_combine,
    gamma_safeguard,
    newton_anderson_solve,
    newton_solve,
    projected_lm_solve,
    solve,
)


def newton_step(p, x):
    # the Newton update w solving f'(x) w = -f(x), and f(x)
    res = p.residual(x)
    return p.jacobian(x).solve(-res), res


def square_problem():
    return NonlinearProblem(
        name="square",
        dim=1,
        residual=lambda x: np.array([x[0] ** 2]),
        jacobian=lambda x: DenseJacobian(np.array([[2.0 * x[0]]])),
        start=np.array([1.0]),
    )


def linear_problem(a):
    a = np.asarray(a, dtype=float)
    n = len(a)
    return NonlinearProblem(
        name="linear",
        dim=n,
        residual=lambda x: x - a,
        jacobian=lambda x: DenseJacobian(np.eye(n)),
        start=np.zeros(n),
    )


class TestNewtonStep:
    def test_scalar_square(self):
        w, res = newton_step(square_problem(), np.array([1.0]))
        assert w[0] == pytest.approx(-0.5)
        assert res[0] == pytest.approx(1.0)

    def test_singular_at_zero(self):
        with pytest.raises(SingularMatrix):
            newton_step(square_problem(), np.array([0.0]))

    def test_h_equation_against_fd_jacobian_solve(self):
        # oracle: solve with a central-difference Jacobian instead
        p = h_equation(HEquationSpec(n=500, omega=1.0))
        x = np.ones(500)
        w, res = newton_step(p, x)
        assert np.all(np.isfinite(w))
        h = np.finfo(float).eps ** (1.0 / 3.0) * 2.0
        fd = np.empty((500, 500))
        for j in range(500):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[:, j] = (p.residual(xp) - p.residual(xm)) / (2.0 * h)
        w_fd = np.linalg.solve(fd, -res)
        assert np.linalg.norm(w - w_fd) / np.linalg.norm(w_fd) <= 1e-6


class TestNewtonSolve:
    def test_scalar_square_converges_at_14(self):
        # iterates x_k = 2^-k, residual 4^-k; first below 1e-8 at k = 14
        out = newton_solve(square_problem(), SolverConfig())
        assert out.converged
        assert out.iterations == 14
        assert out.final_res == pytest.approx(4.0 ** -14, rel=1e-12)

    def test_singular_start_is_nonconverged_outcome(self):
        p = NonlinearProblem(
            name="flat",
            dim=1,
            residual=lambda x: np.array([x[0] ** 2 + 1.0]),
            jacobian=lambda x: DenseJacobian(np.array([[2.0 * x[0]]])),
            start=np.array([0.0]),
        )
        out = newton_solve(p, SolverConfig())
        assert not out.converged and out.iterations == 0
        assert out.status == "singular_jacobian"

    def test_already_converged_start(self):
        out = newton_solve(linear_problem(np.zeros(3)), SolverConfig())
        assert out.converged and out.iterations == 0 and out.trace == []


class TestAndersonCombine:
    def test_gamma_zero_is_newton(self):
        x_k, x_km1 = np.array([1.0, 2.0]), np.array([0.0, 0.0])
        w_next, w_prev = np.array([0.5, 0.5]), np.array([1.0, 1.0])
        np.testing.assert_array_equal(
            anderson_combine(x_k, x_km1, w_next, w_prev, 0.0), x_k + w_next
        )

    def test_gamma_one_is_previous_accelerated(self):
        x_k, x_km1 = np.array([1.0]), np.array([3.0])
        w_next, w_prev = np.array([0.5]), np.array([0.25])
        np.testing.assert_allclose(
            anderson_combine(x_k, x_km1, w_next, w_prev, 1.0), x_km1 + w_prev
        )

    def test_hand_iteration_on_square(self):
        # x1 = 1/2, w2 = -1/4, w1 = -1/2, gamma2 = -1 gives x2 = 0 exactly
        x2 = anderson_combine(
            np.array([0.5]), np.array([1.0]), np.array([-0.25]), np.array([-0.5]), -1.0
        )
        assert x2[0] == 0.0


class TestGammaSafeguard:
    def test_scaling_branch_hits_beta_exactly(self):
        dec = gamma_safeguard(0.9, 1.0, 1.0, 0.5)
        assert not dec.took_newton_step
        assert dec.beta == pytest.approx(0.5)
        assert dec.lam == pytest.approx(10.0 / 27.0)
        g = dec.lam * 0.9
        assert abs(g) / abs(1.0 - g) == pytest.approx(dec.beta, abs=1e-12)

    def test_gamma_above_one_takes_newton(self):
        assert gamma_safeguard(1.3, 1.0, 1.0, 0.5).took_newton_step

    def test_gamma_exactly_one_takes_newton(self):
        assert gamma_safeguard(1.0, 1.0, 1.0, 0.5).took_newton_step

    def test_gamma_zero_takes_newton(self):
        assert gamma_safeguard(0.0, 1.0, 1.0, 0.5).took_newton_step

    def test_negative_gamma_below_threshold_unchanged(self):
        # |gamma| / |1 - gamma| = 0.9 / 1.9 < 0.5: no scaling
        dec = gamma_safeguard(-0.9, 1.0, 1.0, 0.5)
        assert not dec.took_newton_step and dec.lam == 1.0

    @settings(max_examples=500, deadline=None)
    @given(
        st.floats(-3.0, 3.0),
        st.floats(1e-6, 1e3),
        st.floats(1e-6, 1e3),
        st.floats(0.01, 0.99),
    )
    @example(0.9921875, 126.0, 0.96875, 0.875)  # lam * gamma rounds past beta + 1e-12
    def test_case_law(self, gamma, wn, wp, r):
        dec = gamma_safeguard(gamma, wn, wp, r)
        beta = r * wn / wp
        assert dec.beta == pytest.approx(beta)
        if gamma == 0.0 or gamma >= 1.0:
            assert dec.took_newton_step
        else:
            assert not dec.took_newton_step
            assert 0.0 < dec.lam <= 1.0
            g = dec.lam * gamma
            if dec.lam < 1.0:
                assert abs(g) / abs(1.0 - g) <= beta + 1e-12
            else:
                assert abs(gamma) / abs(1.0 - gamma) <= beta + 1e-12

    @pytest.mark.parametrize("wn", [1e2, 1e4, 1e6, 1.2e8])
    def test_scaled_ratio_within_bound_near_gamma_one(self, wn):
        # gamma = 1 - 10^-u with beta = r * wn up to 1.1e8: one ulp of
        # lam * gamma moves the ratio by about beta^2 ulp
        scaled, over = 0, []
        for u in np.linspace(0.5, 9.5, 361):
            gamma = 1.0 - 10.0 ** -u
            for r in (0.1, 0.5, 0.9):
                dec = gamma_safeguard(gamma, wn, 1.0, r)
                if dec.lam < 1.0:
                    scaled += 1
                    g = dec.lam * gamma
                    if abs(g) / abs(1.0 - g) > dec.beta + 1e-12:
                        over.append((gamma, r))
        assert scaled > 100
        assert over == []


class TestNewtonAndersonSolve:
    def test_square_unsafeguarded_exact_in_two(self):
        out = newton_anderson_solve(square_problem(), SolverConfig(), keep_history=True)
        assert out.converged and out.iterations == 2
        assert out.iterate_history[2][0] == 0.0

    def test_square_safeguarded_lands_on_sixth(self):
        cfg = replace(SolverConfig(), r=0.5)
        out = newton_anderson_solve(square_problem(), cfg, safeguard=True, keep_history=True)
        assert abs(out.iterate_history[2][0] - 1.0 / 6.0) <= 1e-15
        rec = out.trace[1]
        assert rec.gamma_raw == pytest.approx(-1.0)
        assert rec.lam == pytest.approx(1.0 / 3.0)
        assert rec.gamma_used == pytest.approx(-1.0 / 3.0)

    def test_beats_newton_on_singular_h_equation(self):
        p = h_equation(HEquationSpec(n=500, omega=1.0))
        cfg = SolverConfig()
        newton_iters = newton_solve(p, cfg).iterations
        for safeguard in (False, True):
            for linesearch in (False, True):
                out = newton_anderson_solve(p, cfg, safeguard, linesearch)
                assert out.converged
                assert out.iterations < newton_iters

    @pytest.mark.parametrize("k,newton_iters,gamma_na_iters", [(2, 14, 7), (3, 16, 8), (7, 17, 8)])
    def test_multipoly_counts_past_paper_scale(self, k, newton_iters, gamma_na_iters):
        # n = 10^6, a hundred times the paper's n = 10^4
        p = multipoly(MultipolySpec(n=1_000_000, k=k))
        cfg = SolverConfig(r=0.7)
        plain = newton_solve(p, cfg)
        assert plain.converged and plain.iterations == newton_iters
        fast = newton_anderson_solve(p, cfg, safeguard=True)
        assert fast.converged and fast.iterations == gamma_na_iters

    def test_heq_counts_past_old_dense_limit(self):
        # the benchmark's n = 3000 cell, pinned in perfbench/fingerprint.json
        p = h_equation(HEquationSpec(n=3000, omega=1.0))
        out = solve(p, MethodId.gamma_n_anderson, SolverConfig())
        assert out.converged and out.iterations == 6 and out.f_evals == 7

    def test_first_step_is_plain_newton(self):
        p = multipoly(MultipolySpec(n=30, k=3))
        out = newton_anderson_solve(p, SolverConfig())
        assert out.trace[0].step_kind == "newton"
        assert out.trace[0].gamma_used == 0.0
        assert all(rec.step_kind != "newton" or rec.theta == 1.0 for rec in out.trace)

    def test_newton_fallback_steps_are_exactly_newton(self):
        # gamma >= 1 and degenerate fallbacks must produce x_k + w_{k+1}
        from nasolve.problems import registry_entry

        p = registry_entry("Bullard-Biegler")
        cfg = replace(SolverConfig(), r=0.5)
        out = newton_anderson_solve(p, cfg, safeguard=True, keep_history=True)
        assert out.converged
        fallbacks = [rec for rec in out.trace if rec.step_kind == "newton" and rec.k > 0]
        assert fallbacks, "expected at least one safeguard Newton fallback on this run"
        for rec in fallbacks:
            w, _ = newton_step(p, out.iterate_history[rec.k])
            np.testing.assert_array_equal(
                out.iterate_history[rec.k + 1], out.iterate_history[rec.k] + w
            )

    def test_safeguard_bound_along_run(self):
        # where the scaling branch fired, |g|/|1-g| <= r ||w_{k+1}|| / ||w_k||
        p = multipoly(MultipolySpec(n=2000, k=3))
        cfg = replace(SolverConfig(), r=0.7)
        out = newton_anderson_solve(p, cfg, safeguard=True)
        assert out.converged
        fired = 0
        for prev, rec in zip(out.trace, out.trace[1:]):
            if rec.lam < 1.0:
                fired += 1
                beta = cfg.r * rec.step_norm / prev.step_norm
                g = rec.gamma_used
                assert abs(g) / abs(1.0 - g) <= beta + 1e-12
        assert fired > 0

    def test_theta_matches_direction_sine(self):
        rng = np.random.default_rng(5)
        from nasolve.linalg import lstsq_gamma

        for _ in range(100):
            w = rng.standard_normal(6)
            wp = rng.standard_normal(6)
            gamma = lstsq_gamma(w, wp)
            theta = np.linalg.norm(w - gamma * (w - wp)) / np.linalg.norm(w)
            d = w - wp
            sin2 = 1.0 - (d @ w) ** 2 / (np.dot(d, d) * np.dot(w, w))
            assert theta == pytest.approx(np.sqrt(max(sin2, 0.0)), abs=1e-10)


def armijo_search(p, x, d, step0, trials=31):
    """The Newton-Anderson search: _backtrack under the Armijo bound
    g(x) + damping * s * g'(x)^T d with the default shrink factor."""
    fx = p.residual(x)
    g0 = float(fx @ fx)
    slope = 2.0 * float(fx @ p.jacobian(x).matvec(d))
    x_new, _, evals = _backtrack(
        p.residual, lambda s: x + s * d, lambda s, trial: g0 + LS_DAMPING * s * slope,
        step0, LS_SHRINK, trials,
    )
    return x_new, evals


class TestArmijoSearch:
    def test_immediate_acceptance(self):
        p = linear_problem(np.zeros(2))
        x = np.array([1.0, 1.0])
        d = -x
        x_new, evals = armijo_search(p, x, d, step0=0.5)
        np.testing.assert_allclose(x_new, 0.5 * x)
        assert evals == 1

    def test_scalar_identity_accepts_zero(self):
        p = NonlinearProblem(
            name="id", dim=1, residual=lambda x: x.copy(),
            jacobian=lambda x: DenseJacobian(np.array([[1.0]])),
            start=np.array([1.0]),
        )
        x_new, evals = armijo_search(p, np.array([1.0]), np.array([-2.0]), 0.5)
        assert x_new[0] == 0.0 and evals == 1

    def test_alternate_step0(self):
        # some benchmark runs need a 4/5 initial step
        p = linear_problem(np.zeros(1))
        x_new, evals = armijo_search(p, np.array([1.0]), np.array([-1.0]), 0.8)
        assert x_new[0] == pytest.approx(0.2)
        assert evals == 1

    def test_exhaustion_raises_with_last_trial(self):
        # ascent direction: every resolvable trial fails the decrease test;
        # an exhausted search spends all its trials and returns the best one
        p = NonlinearProblem(
            name="abs1", dim=1, residual=lambda x: np.array([1.0 + x[0] ** 2]),
            jacobian=lambda x: DenseJacobian(np.array([[2.0 * x[0]]])),
            start=np.array([1.0]),
        )
        x_last, evals = armijo_search(p, np.array([1.0]), np.array([1.0]), 0.5, trials=6)
        assert evals == 6
        assert x_last[0] > 1.0  # deepest trial retains the direction


class TestProjectedLm:
    def test_linear_contracts_per_closed_form(self):
        # oracle: e_{k+1} = e_k * mu/(1+mu), mu = scale*||e_k||^2, identity Jacobian
        from nasolve.solvers import MU_SCALE

        a = np.ones(5)
        p = NonlinearProblem(
            name="lin", dim=5, residual=lambda x: x - a,
            jacobian=lambda x: DenseJacobian(np.eye(5)),
            start=a + 0.1,
        )
        out = projected_lm_solve(p, SolverConfig())
        e = np.full(5, 0.1)
        iters = 0
        while np.linalg.norm(e) >= 1e-8:
            mu = max(MU_SCALE * float(e @ e), 1e-16)
            e = e * (mu / (1.0 + mu))
            iters += 1
        assert out.converged
        assert out.iterations == iters
        assert out.iterations <= 3
        assert all(rec.step_kind == "lm" for rec in out.trace)

    def test_single_step_lands_within_mu_of_target(self):
        from nasolve.solvers import MU_SCALE

        a = np.ones(5)
        p = NonlinearProblem(
            name="lin", dim=5, residual=lambda x: x - a,
            jacobian=lambda x: DenseJacobian(np.eye(5)),
            start=np.zeros(5),
        )
        out = projected_lm_solve(p, SolverConfig(max_iters=1), keep_history=True)
        mu = MU_SCALE * 5.0
        np.testing.assert_allclose(
            out.iterate_history[1], a + (0.0 - 1.0) * (mu / (1.0 + mu)), rtol=1e-12
        )

    def test_multipoly_linear_and_slower_with_order(self):
        iters = {}
        for k in (2, 3, 7):
            p = multipoly(MultipolySpec(n=50, k=k))
            out = projected_lm_solve(p, SolverConfig(max_iters=200))
            assert out.converged
            iters[k] = out.iterations
        assert iters[2] <= iters[3] <= iters[7]

    def test_respects_bounds(self):
        a = np.array([2.0, -2.0])
        p = NonlinearProblem(
            name="clipped", dim=2, residual=lambda x: x - a,
            jacobian=lambda x: DenseJacobian(np.eye(2)),
            start=np.array([0.5, -0.5]),
            bounds=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        )
        out = projected_lm_solve(p, SolverConfig(), keep_history=True)
        assert not out.converged  # the root lies outside the box
        for x in out.iterate_history:
            assert np.all(x >= -1.0) and np.all(x <= 1.0)
        # one LM step, then projected-gradient steps that each accept t = 1
        assert out.status == "max_iters" and out.iterations == 50
        assert Counter(rec.step_kind for rec in out.trace) == {
            "projected_gradient": 49, "lm": 1,
        }
        assert sum(rec.ls_evals for rec in out.trace) == 49

    def test_regularisation_bit_identical_to_adding_mu_times_identity(self, monkeypatch):
        # reference run: every Cholesky attempt factors normal + mu * I built
        # with np.eye, mu taken from the same damping ladder
        from nasolve.solvers import MU_FLOOR, MU_SCALE

        p = h_equation(HEquationSpec(n=150, omega=1.0))
        fast = projected_lm_solve(p, SolverConfig())

        state = {}

        def jacobian(x):
            jac = p.jacobian(x)
            dense = jac.to_dense()
            res = float(np.linalg.norm(p.residual(x)))
            state.update(normal=dense.T @ dense, attempt=0,
                         ladder=(max(MU_SCALE * res * res, MU_FLOOR), res * res, 1.0))
            return jac

        dpotrf = scipy.linalg.lapack.dpotrf

        def dpotrf_eye(a, **kwargs):
            mu = state["ladder"][state["attempt"]]
            state["attempt"] += 1
            eye_form = state["normal"] + mu * np.eye(p.dim)
            assert np.array_equal(a, eye_form)
            return dpotrf(eye_form, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", dpotrf_eye)
        ref = projected_lm_solve(replace(p, jacobian=jacobian), SolverConfig())
        assert ref.iterations == fast.iterations > 0
        assert repr(fast.trace) == repr(ref.trace)
        assert fast.final_res == ref.final_res
        np.testing.assert_array_equal(fast.x, ref.x)


class TestCholeskyAgainstScipyWrappers:
    """The LM step factors a Fortran-order copy in place with
    dpotrf(clean=0, overwrite_a=1) and solves with dpotrs, the routines
    cho_factor and cho_solve call, so they must agree bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 8, 57, 300])
    def test_spd_bit_identical(self, n):
        rng = np.random.default_rng(400 + n)
        for _ in range(5):
            jac = rng.standard_normal((n, n))
            normal = jac.T @ jac
            rhs = rng.standard_normal(n)
            a = normal.copy(order="F")
            a.flat[:: n + 1] += 1e-3
            c, info = scipy.linalg.lapack.dpotrf(a, clean=0, overwrite_a=1)
            assert info == 0 and np.shares_memory(c, a)
            d, info = scipy.linalg.lapack.dpotrs(c, rhs)
            assert info == 0
            ref = normal.copy()
            ref.flat[:: n + 1] += 1e-3
            c_ref, lower = scipy.linalg.cho_factor(ref, check_finite=False)
            np.testing.assert_array_equal(c, c_ref)
            np.testing.assert_array_equal(
                d, scipy.linalg.cho_solve((c_ref, lower), rhs, check_finite=False)
            )

    def test_not_positive_definite_gives_positive_info(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        _, info = scipy.linalg.lapack.dpotrf(a.copy(order="F"), clean=0, overwrite_a=1)
        assert info > 0
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(a, check_finite=False)


class TestTermination:
    def test_nan_residual_stops_at_once_under_every_method(self):
        p = NonlinearProblem(
            name="nan", dim=2, residual=lambda x: np.full(2, np.nan),
            jacobian=lambda x: DenseJacobian(np.eye(2)), start=np.ones(2),
        )
        for method in MethodId:
            out = solve(p, method, SolverConfig())
            assert out.status == "nonfinite", method
            assert not out.converged and out.iterations == 0 and out.f_evals == 1

    def test_stops_at_first_nonfinite_iterate(self):
        # f = log x from x0 = 3: the first Newton step lands at x < 0
        def log_residual(x):
            with np.errstate(invalid="ignore"):
                return np.log(x)

        p = NonlinearProblem(
            name="log", dim=1, residual=log_residual,
            jacobian=lambda x: DenseJacobian(np.array([[1.0 / x[0]]])),
            start=np.array([3.0]),
        )
        out = newton_solve(p, SolverConfig())
        assert out.status == "nonfinite"
        assert out.iterations == 1 and out.f_evals == 2 and out.x[0] < 0.0

    def test_iteration_cap(self):
        out = newton_solve(square_problem(), SolverConfig(max_iters=3))
        assert out.status == "max_iters" and out.iterations == 3 and out.f_evals == 4


# Registry cells at r = 0.5 pinned to (status, iterations, step kinds,
# sum of ls_evals): the acceptance counts allow +-2 iterations, these allow
# none.  The three cells of CHAOTIC_CELLS in test_acceptance are left out:
# sub-ulp changes to the update arithmetic flip them.
REGISTRY_PINS = {
    ("Himmelbau", "newton"): ("converged", 6, {"newton": 6}, 0),
    ("Himmelbau", "n_anderson"): ("converged", 8, {"anderson": 7, "newton": 1}, 0),
    ("Himmelbau", "gamma_n_anderson"): ("converged", 6, {"anderson": 5, "newton": 1}, 0),
    ("Himmelbau", "armijo_n_anderson"): ("converged", 8, {"anderson": 7, "newton": 1}, 0),
    ("Himmelbau", "gamma_armijo_n_anderson"): ("converged", 6, {"anderson": 5, "newton": 1}, 0),
    ("Himmelbau", "proj_lm"): ("converged", 6, {"lm": 6}, 0),
    ("Eq-Combustion", "newton"): ("converged", 22, {"newton": 22}, 0),
    ("Eq-Combustion", "gamma_n_anderson"): ("converged", 17, {"anderson": 14, "newton": 3}, 0),
    ("Eq-Combustion", "gamma_armijo_n_anderson"):
        ("converged", 17, {"anderson": 14, "newton": 3}, 0),
    ("Eq-Combustion", "proj_lm"): ("converged", 10, {"lm": 5, "lm_linesearch": 5}, 12),
    ("Bullard-Biegler", "newton"): ("converged", 11, {"newton": 11}, 0),
    ("Bullard-Biegler", "n_anderson"):
        ("singular_jacobian", 14, {"anderson": 13, "newton": 1}, 0),
    ("Bullard-Biegler", "gamma_n_anderson"): ("converged", 11, {"anderson": 7, "newton": 4}, 0),
    ("Bullard-Biegler", "gamma_armijo_n_anderson"):
        ("converged", 13, {"anderson": 5, "anderson_linesearch": 4, "newton": 4}, 8),
    ("Bullard-Biegler", "proj_lm"): ("converged", 13, {"lm": 10, "lm_linesearch": 3}, 6),
    ("Ferraris-Tronconi", "newton"): ("converged", 4, {"newton": 4}, 0),
    ("Ferraris-Tronconi", "n_anderson"): ("converged", 4, {"anderson": 3, "newton": 1}, 0),
    ("Ferraris-Tronconi", "gamma_n_anderson"): ("converged", 4, {"anderson": 3, "newton": 1}, 0),
    ("Ferraris-Tronconi", "armijo_n_anderson"):
        ("converged", 4, {"anderson": 3, "newton": 1}, 0),
    ("Ferraris-Tronconi", "gamma_armijo_n_anderson"):
        ("converged", 4, {"anderson": 3, "newton": 1}, 0),
    ("Ferraris-Tronconi", "proj_lm"): ("converged", 4, {"lm": 4}, 0),
    ("Brown's Al. Lin.", "newton"): ("converged", 21, {"newton": 21}, 0),
    ("Brown's Al. Lin.", "n_anderson"): ("converged", 18, {"anderson": 17, "newton": 1}, 0),
    ("Brown's Al. Lin.", "gamma_n_anderson"): ("converged", 13, {"anderson": 12, "newton": 1}, 0),
    ("Brown's Al. Lin.", "armijo_n_anderson"):
        ("converged", 11, {"anderson": 8, "anderson_linesearch": 2, "newton": 1}, 4),
    ("Brown's Al. Lin.", "gamma_armijo_n_anderson"):
        ("converged", 13, {"anderson": 12, "newton": 1}, 0),
    ("Brown's Al. Lin.", "proj_lm"): ("converged", 11, {"lm": 11}, 0),
    ("Robot Kin. Sys.", "newton"): ("converged", 7, {"newton": 7}, 0),
    ("Robot Kin. Sys.", "n_anderson"): ("converged", 9, {"anderson": 8, "newton": 1}, 0),
    ("Robot Kin. Sys.", "gamma_n_anderson"): ("converged", 8, {"anderson": 7, "newton": 1}, 0),
    ("Robot Kin. Sys.", "armijo_n_anderson"): ("converged", 9, {"anderson": 8, "newton": 1}, 0),
    ("Robot Kin. Sys.", "gamma_armijo_n_anderson"):
        ("converged", 8, {"anderson": 7, "newton": 1}, 0),
    ("Robot Kin. Sys.", "proj_lm"): ("converged", 5, {"lm": 5}, 0),
}


@pytest.mark.parametrize("name,method", sorted(REGISTRY_PINS))
def test_registry_cell_pinned(name, method):
    status, iterations, kinds, ls_evals = REGISTRY_PINS[name, method]
    out = solve(registry_entry(name), method, replace(SolverConfig(), r=0.5))
    assert out.status == status
    assert out.iterations == iterations
    assert Counter(rec.step_kind for rec in out.trace) == kinds
    assert sum(rec.ls_evals for rec in out.trace) == ls_evals
