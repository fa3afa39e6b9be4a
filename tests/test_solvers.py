import ast
import importlib
import inspect
import pkgutil
import re
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nasolve
from nasolve import solvers
from nasolve.core import STATUSES, STEP_KINDS, NonlinearProblem, SolverConfig
from nasolve.diagnostics import theta_gain
from nasolve.linalg import (
    BAND_BLOCK,
    GRAM_BLOCK,
    DenseJacobian,
    IdentityMinusLowRankJacobian,
    SingularMatrix,
    UpperBidiagonalJacobian,
    blas,
    damped_normal_solve,
    lapack,
    lstsq_gamma,
    norm2,
)
from nasolve.problems import (
    HEquationSpec,
    MultipolySpec,
    h_equation,
    multipoly,
    registry_entry,
    with_ground_truth,
)
from nasolve.solvers import (
    LINESEARCH_METHODS,
    LS_SHRINK,
    SAFEGUARD_METHODS,
    MethodId,
    _armijo,
    anderson_combine,
    gamma_safeguard,
    solve,
)

from test_linalg import _bits, band_jacobian  # tests/ is on sys.path under pytest's default import mode
from test_problems import TRANSCRIBED

# the four depth-1 Newton-Anderson methods
NA_METHODS = tuple(m for m in MethodId if m not in (MethodId.newton, MethodId.proj_lm))


def newton_step(p, x):
    # the Newton update w solving f'(x) w = -f(x), and f(x)
    res = p.residual(x)
    return p.jacobian(x).solve(-res), res


def square_problem():
    return NonlinearProblem(
        name="square",
        residual=lambda x: np.array([x[0] ** 2]),
        jacobian=lambda x: DenseJacobian(np.array([[2.0 * x[0]]])),
        start=np.array([1.0]),
    )


def linear_problem(a):
    a = np.asarray(a, dtype=float)
    n = len(a)
    return NonlinearProblem(
        name="linear",
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
        out = solve(square_problem(), MethodId.newton, SolverConfig())
        assert out.converged
        assert out.iterations == 14
        assert out.final_res == pytest.approx(4.0 ** -14, rel=1e-12)

    def test_singular_start_is_nonconverged_outcome(self):
        p = NonlinearProblem(
            name="flat",
            residual=lambda x: np.array([x[0] ** 2 + 1.0]),
            jacobian=lambda x: DenseJacobian(np.array([[2.0 * x[0]]])),
            start=np.array([0.0]),
        )
        out = solve(p, MethodId.newton, SolverConfig())
        assert not out.converged and out.iterations == 0
        assert out.status == "singular_jacobian"

    def test_already_converged_start(self):
        out = solve(linear_problem(np.zeros(3)), MethodId.newton, SolverConfig())
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

    @pytest.mark.parametrize("n", [1, 7, BAND_BLOCK + 3])
    def test_formula_order_bit_for_bit_with_and_without_scratch(self, n):
        # the one-line formula in its evaluation order, which heq and the
        # registry share; the scratch buffer ends up holding the second
        # temporary, gamma * (x_k - x_km1 + w_next - w_prev)
        rng = np.random.default_rng(n)
        x_k, x_km1, w_next, w_prev = (rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
                                      for _ in range(4))
        gamma = -0.3711
        ref = x_k + w_next - gamma * (x_k - x_km1 + w_next - w_prev)
        np.testing.assert_array_equal(
            _bits(anderson_combine(x_k, x_km1, w_next, w_prev, gamma)), _bits(ref))
        scratch = np.empty(n)
        out = anderson_combine(x_k, x_km1, w_next, w_prev, gamma, scratch)
        np.testing.assert_array_equal(_bits(out), _bits(ref))
        assert not np.shares_memory(out, scratch)
        np.testing.assert_array_equal(
            _bits(scratch), _bits(gamma * (x_k - x_km1 + w_next - w_prev)))


class TestGammaSafeguard:
    def test_scaling_branch_hits_beta_exactly(self):
        wn, wp, r = 1.0, 1.0, 0.5
        dec = gamma_safeguard(0.9, wn, wp, r)
        assert not dec.took_newton_step
        assert dec.lam == pytest.approx(10.0 / 27.0)
        g = dec.lam * 0.9
        assert abs(g) / abs(1.0 - g) == pytest.approx(r * wn / wp, abs=1e-12)

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
                    if abs(g) / abs(1.0 - g) > r * wn + 1e-12:  # beta, w_prev_norm = 1
                        over.append((gamma, r))
        assert scaled > 100
        assert over == []


HEQ_BENCHMARK_CELLS = (
    [(0.5, m, [True, 3, 4]) for m in MethodId]
    + [(1.0, m, [True, 16, 17]) for m in (MethodId.newton, MethodId.proj_lm)]
    + [(1.0, m, [True, 6, 7]) for m in NA_METHODS]
)


class TestNewtonAndersonSolve:
    def test_square_unsafeguarded_exact_in_two(self):
        out = solve(square_problem(), MethodId.n_anderson, SolverConfig(), keep_history=True)
        assert out.converged and out.iterations == 2
        assert out.iterate_history[2][0] == 0.0

    def test_square_safeguarded_lands_on_sixth(self):
        cfg = replace(SolverConfig(), r=0.5)
        out = solve(square_problem(), MethodId.gamma_n_anderson, cfg, keep_history=True)
        assert abs(out.iterate_history[2][0] - 1.0 / 6.0) <= 1e-15
        rec = out.trace[1]
        assert rec.gamma_raw == pytest.approx(-1.0)
        assert rec.lam == pytest.approx(1.0 / 3.0)
        assert rec.gamma_used == pytest.approx(-1.0 / 3.0)

    def test_beats_newton_on_singular_h_equation(self):
        p = h_equation(HEquationSpec(n=500, omega=1.0))
        cfg = SolverConfig()
        newton_iters = solve(p, MethodId.newton, cfg).iterations
        for method in NA_METHODS:
            out = solve(p, method, cfg)
            assert out.converged
            assert out.iterations < newton_iters

    @pytest.mark.parametrize("k,newton_iters,gamma_na_iters", [(2, 14, 7), (3, 16, 8), (7, 17, 8)])
    def test_multipoly_counts_past_paper_scale(self, k, newton_iters, gamma_na_iters):
        # n = 10^6, a hundred times the paper's n = 10^4
        p = multipoly(MultipolySpec(n=1_000_000, k=k))
        cfg = SolverConfig(r=0.7)
        plain = solve(p, MethodId.newton, cfg)
        assert plain.converged and plain.iterations == newton_iters
        fast = solve(p, MethodId.gamma_n_anderson, cfg)
        assert fast.converged and fast.iterations == gamma_na_iters

    def test_heq_counts_past_old_dense_limit(self):
        # the benchmark's n = 3000 cell, pinned in perfbench/fingerprint.json
        p = h_equation(HEquationSpec(n=3000, omega=1.0))
        out = solve(p, MethodId.gamma_n_anderson, SolverConfig())
        assert out.converged and out.iterations == 6 and out.f_evals == 7

    @pytest.mark.parametrize("omega, method, expected", HEQ_BENCHMARK_CELLS,
                             ids=[f"w{omega:g}-{m.value}" for omega, m, _ in HEQ_BENCHMARK_CELLS])
    def test_heq_benchmark_cells_pinned(self, omega, method, expected):
        # the n = 2000 cells of perfbench/fingerprint.json as [converged,
        # iterations, f_evals]
        out = solve(h_equation(HEquationSpec(n=2000, omega=omega)), method, SolverConfig())
        assert [out.converged, out.iterations, out.f_evals] == expected

    def test_first_step_is_plain_newton(self):
        p = multipoly(MultipolySpec(n=30, k=3))
        out = solve(p, MethodId.n_anderson, SolverConfig())
        assert out.trace[0].step_kind == "newton"
        assert out.trace[0].gamma_used == 0.0
        assert all(rec.step_kind != "newton" or rec.theta == 1.0 for rec in out.trace)

    def test_newton_fallback_steps_are_exactly_newton(self):
        # gamma >= 1 and degenerate fallbacks must produce x_k + w_{k+1}
        from nasolve.problems import registry_entry

        p = registry_entry("Bullard-Biegler")
        cfg = replace(SolverConfig(), r=0.5)
        out = solve(p, MethodId.gamma_n_anderson, cfg, keep_history=True)
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
        out = solve(p, MethodId.gamma_n_anderson, cfg)
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


def _same(a, b) -> bool:
    return float(a).hex() == float(b).hex()


@pytest.mark.parametrize("method", [MethodId.n_anderson, MethodId.gamma_n_anderson])
@pytest.mark.parametrize("make", [
    lambda: multipoly(MultipolySpec(n=2 * BAND_BLOCK + 7, k=3)),
    lambda: h_equation(HEquationSpec(n=300, omega=1.0)),
], ids=["multipoly", "heq"])
def test_step_values_are_the_two_argument_formulas_bit_for_bit(make, method):
    # the step solves for J^{-1} f and negates it in place, forms
    # w_{k+1} - w_k once and hands it with the two norms to lstsq_gamma,
    # theta_gain and anderson_combine; every value must be the one the
    # functions give from the update recomputed as J^{-1}(-f) at the kept
    # iterate, with no difference vector or norm passed, to the bit
    p = make()
    out = solve(p, method, SolverConfig(r=0.7), keep_history=True)
    assert out.converged
    xs = out.iterate_history
    kinds = Counter()
    w_prev = None
    for rec, x_prev, x, x_new in zip(out.trace, [None] + xs, xs, xs[1:]):
        w = p.jacobian(x).solve(-p.residual(x))
        assert _same(rec.step_norm, norm2(w))
        gamma = None if rec.k == 0 else lstsq_gamma(w, w_prev)
        assert _same(rec.gamma_raw, 0.0 if gamma is None else gamma)
        if rec.step_kind == "anderson":
            assert _same(rec.theta, theta_gain(w, w_prev, rec.gamma_used))
            ref = anderson_combine(x, x_prev, w, w_prev, rec.gamma_used)
        else:
            assert rec.step_kind == "newton" and rec.theta == 1.0
            ref = x + w
        np.testing.assert_array_equal(_bits(x_new), _bits(ref))
        kinds[rec.step_kind] += 1
        w_prev = w
    assert kinds["anderson"] > 0 and kinds["newton"] > 0


def test_gamma_na_solve_memory_budget():
    # one multipoly gamma-NA solve at n = 10^5 (7 steps, an error record per
    # iterate) peaked at 10.01 n doubles when -f, lstsq_gamma's difference
    # and theta_gain's two temporaries were formed apart.  With one shared
    # difference vector, freed before the residual, it peaks at 9.17 n:
    # x_k, x_{k-1}, f(x_k), w_k, the 2 n band, w_{k+1}, x_{k+1}, f(x_{k+1})
    # and one BAND_BLOCK block of the residual.  The bound is 0.33 n above
    n = 10**5
    p = multipoly(MultipolySpec(n=n, k=3))
    tracemalloc.start()
    try:
        out = solve(p, MethodId.gamma_n_anderson, SolverConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.converged and out.iterations == 7
    assert peak < 9.5 * n * 8


def armijo_search(p, x, d, step0, trials=31):
    """The Newton-Anderson search: _armijo from g(x) with slope g'(x)^T d
    and the default shrink factor."""
    fx = p.residual(x)
    g0 = float(fx @ fx)
    slope = 2.0 * float(fx @ p.jacobian(x).matvec(d))
    x_new, _, evals = _armijo(p.residual, x, d, g0, slope, step0, LS_SHRINK, trials)
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
            name="id", residual=lambda x: x.copy(),
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
            name="abs1", residual=lambda x: np.array([1.0 + x[0] ** 2]),
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
            name="lin", residual=lambda x: x - a,
            jacobian=lambda x: DenseJacobian(np.eye(5)),
            start=a + 0.1,
        )
        out = solve(p, MethodId.proj_lm, SolverConfig())
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
            name="lin", residual=lambda x: x - a,
            jacobian=lambda x: DenseJacobian(np.eye(5)),
            start=np.zeros(5),
        )
        out = solve(p, MethodId.proj_lm, SolverConfig(max_iters=1), keep_history=True)
        mu = MU_SCALE * 5.0
        np.testing.assert_allclose(
            out.iterate_history[1], a + (0.0 - 1.0) * (mu / (1.0 + mu)), rtol=1e-12
        )

    def test_multipoly_linear_and_slower_with_order(self):
        iters = {}
        for k in (2, 3, 7):
            p = multipoly(MultipolySpec(n=50, k=k))
            out = solve(p, MethodId.proj_lm, SolverConfig(max_iters=200))
            assert out.converged
            iters[k] = out.iterations
        assert iters[2] <= iters[3] <= iters[7]

    def test_respects_bounds(self):
        a = np.array([2.0, -2.0])
        p = NonlinearProblem(
            name="clipped", residual=lambda x: x - a,
            jacobian=lambda x: DenseJacobian(np.eye(2)),
            start=np.array([0.5, -0.5]),
            bounds=(np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
        )
        out = solve(p, MethodId.proj_lm, SolverConfig(), keep_history=True)
        assert not out.converged  # the root lies outside the box
        for x in out.iterate_history:
            assert np.all(x >= -1.0) and np.all(x <= 1.0)
        # one LM step, then projected-gradient steps that each accept t = 1
        assert out.status == "max_iters" and out.iterations == 50
        assert Counter(rec.step_kind for rec in out.trace) == {
            "projected_gradient": 49, "lm": 1,
        }
        assert sum(rec.ls_evals for rec in out.trace) == 49

    def test_merit_is_the_dot_product(self, monkeypatch):
        # the damping ladder's second rung is the merit g(x_0) = ||f(x_0)||^2,
        # taken as f @ f like the other searches; res * res, from the norm,
        # differs from it in the last bit here
        p = h_equation(HEquationSpec(n=300, omega=1.0))
        f0 = p.residual(p.start)
        rungs = []

        def recording(jac, f, mus):
            rungs.append(mus)
            return damped_normal_solve(jac, f, mus)

        monkeypatch.setattr(solvers, "damped_normal_solve", recording)
        solve(p, MethodId.proj_lm, SolverConfig(max_iters=1))
        assert len(rungs) == 1
        assert rungs[0][1].hex() == float(f0 @ f0).hex()

    @pytest.mark.parametrize("case", [0.5, 1.0, *TRANSCRIBED])
    def test_scipy_normal_equations_match_numpy_reference(self, case, monkeypatch):
        # reference run: the damped normal equations by numpy, J formed from
        # the class's own arrays, J^T f and J^T J by @, the rung taken where
        # np.linalg.cholesky succeeds, d by np.linalg.solve; only rounding
        # may differ.  A float case is the H-equation's omega.
        if isinstance(case, float):
            p = h_equation(HEquationSpec(n=300, omega=case))
        else:
            p = registry_entry(case)
        fast = solve(p, MethodId.proj_lm, SolverConfig())
        calls = Counter()

        def numpy_damped_normal_solve(jac, f, mus):
            calls["routine"] += 1
            if isinstance(jac, IdentityMinusLowRankJacobian):
                a = np.eye(jac.n) - (jac.w[:, None] * (jac.e @ jac.m)) @ jac.e.T
            else:
                a = jac.to_dense()
            jtf = a.T @ f
            for mu in mus:
                damped = a.T @ a + mu * np.eye(jac.n)
                try:
                    np.linalg.cholesky(damped)
                except np.linalg.LinAlgError:
                    continue
                return jtf, np.linalg.solve(damped, -jtf)
            return jtf, None

        # the name the LM step calls; a count of 0 would make the test vacuous
        monkeypatch.setattr(solvers, "damped_normal_solve", numpy_damped_normal_solve)
        ref = solve(p, MethodId.proj_lm, SolverConfig())
        assert calls["routine"] == fast.iterations > 0
        assert (fast.status, fast.iterations, fast.f_evals) == (ref.status, ref.iterations, ref.f_evals)
        assert [rec.step_kind for rec in fast.trace] == [rec.step_kind for rec in ref.trace]
        np.testing.assert_allclose(fast.x, ref.x, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("make", [
        lambda: h_equation(HEquationSpec(n=1000, omega=1.0)),
        lambda: multipoly(MultipolySpec(n=1000, k=3)),
    ], ids=["heq", "multipoly"])
    def test_step_peaks_at_one_dense_array(self, make):
        # damped_normal_solve forms J^T J + mu I over J and dposv factors it
        # in place: one n x n array, plus the two products of one of
        # _gram_in_place's column blocks, at most 2 n GRAM_BLOCK entries, and
        # a few n-vectors.  Were J^T J formed beside J, or J copied by f2py
        # for want of Fortran order, one step would peak at two n x n arrays
        p = make()
        n = p.dim
        n2 = n * n * 8
        t = (2 * GRAM_BLOCK + 16) / n
        tracemalloc.start()
        try:
            out = solve(p, MethodId.proj_lm, SolverConfig(max_iters=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [rec.step_kind for rec in out.trace] == ["lm"]
        assert n2 <= peak < (1 + t) * n2

    def test_empty_problem_converges_before_any_step(self):
        # _drive stops at ||f|| = 0 before the first step: dgemv rejects an
        # empty x and dsyrk reports an illegal argument for a 0 x 0 matrix
        p = NonlinearProblem(
            name="empty", residual=lambda x: np.zeros(0),
            jacobian=lambda x: DenseJacobian(np.zeros((0, 0))), start=np.zeros(0),
        )
        out = solve(p, MethodId.proj_lm, SolverConfig())
        assert out.converged and out.iterations == 0 and out.trace == []


@pytest.mark.parametrize("method", list(MethodId))
def test_history_holds_the_iterates(method):
    # no step writes into an iterate, so the history keeps the iterates
    # themselves: x last, each a distinct array, and first the problem's own
    # start, or proj_lm's projection of it
    p = multipoly(MultipolySpec(n=50, k=3))
    start = p.start.copy()
    out = solve(p, method, SolverConfig(), keep_history=True)
    history = out.iterate_history
    assert history[-1] is out.x
    assert (history[0] is p.start) == (method is not MethodId.proj_lm)
    assert len({id(v) for v in history}) == len(history) == out.iterations + 1
    np.testing.assert_array_equal(p.start, start)
    np.testing.assert_array_equal(history[0], start)


def _boxed(p, lo, hi):
    return replace(p, bounds=(np.full(p.dim, lo), np.full(p.dim, hi)))


@pytest.mark.parametrize("method", list(MethodId), ids=str)
def test_solves_leave_the_problem_arrays_bit_identical(method):
    # every solve starts from the problem's own arrays, which no step writes
    problems = [
        multipoly(MultipolySpec(n=50, k=3)),
        with_ground_truth(h_equation(HEquationSpec(n=30, omega=1.0))),
        *map(registry_entry, TRANSCRIBED),
        _boxed(multipoly(MultipolySpec(n=20, k=3)), 0.25, 1.0),
    ]
    for p in problems:
        arrays = [a for a in (p.start, p.known_root, p.null_basis, *(p.bounds or ()))
                  if a is not None]
        before = [a.tobytes() for a in arrays]
        solve(p, method, SolverConfig())
        assert [a.tobytes() for a in arrays] == before, p.name


@pytest.mark.parametrize("method", NA_METHODS + (MethodId.newton,), ids=str)
def test_zero_step_outcome_is_the_read_only_start(method):
    p = NonlinearProblem(name="at_root", residual=lambda x: x.copy(),
                         jacobian=lambda x: DenseJacobian(np.eye(2)), start=np.zeros(2))
    out = solve(p, method, SolverConfig(), keep_history=True)
    assert out.iterations == 0 and out.x is p.start and out.iterate_history == [p.start]
    with pytest.raises(ValueError, match="read-only"):
        out.x[0] = 1.0


def test_kept_history_holds_the_start_once():
    # the history's x_0 is p.start, which the problem holds, so after a
    # multipoly gamma-NA solve at n = 10^5 (7 steps) the history keeps 7 new
    # n-vectors alive, where a copied start made it 8
    n = 10**5
    p = multipoly(MultipolySpec(n=n, k=3))
    tracemalloc.start()
    try:
        out = solve(p, MethodId.gamma_n_anderson, SolverConfig(), keep_history=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out.iterations == 7 and out.iterate_history[0] is p.start
    assert out.iterations * n * 8 <= held < (out.iterations + 0.5) * n * 8


def _rank_one(jac):
    """A constant rank-one Jacobian with entries near 1e6 and f = ones(2): at
    the first damping rung J^T J + mu I is not numerically positive definite."""
    return NonlinearProblem(name="rank_one", residual=lambda x: np.ones(2),
                            jacobian=lambda x: jac, start=np.zeros(2))


# proj_lm instances per Jacobian class: (problem, its Jacobian class, max_iters,
# step kinds, whether the first step's first Cholesky rung fails and its second
# succeeds).  A box that excludes the root forces the line-search and
# projected-gradient branches.
LM_BRANCH_CASES = {
    "bidiagonal_box": (
        _boxed(multipoly(MultipolySpec(n=20, k=3)), 0.25, 1.0), UpperBidiagonalJacobian, 50,
        {"lm": 1, "lm_linesearch": 24, "projected_gradient": 25}, False),
    "low_rank_box": (
        _boxed(h_equation(HEquationSpec(n=20, omega=1.0)), 1.0, 1.5),
        IdentityMinusLowRankJacobian, 50,
        {"lm": 1, "lm_linesearch": 2, "projected_gradient": 47}, False),
    "dense_rank_one": (
        _rank_one(DenseJacobian(np.full((2, 2), 1e6))), DenseJacobian, 1,
        {"lm_linesearch": 1}, True),
    "bidiagonal_rank_one": (
        _rank_one(band_jacobian(np.array([1e6, 0.0]), np.array([1e6]))),
        UpperBidiagonalJacobian, 1, {"lm_linesearch": 1}, True),
    # w = 1, E = I and the core M = I - 1e6 1 1^T give J = 1e6 1 1^T exactly,
    # the dense case's matrix; with w >= 0 a rank-one core cannot make J
    # singular at this scale, and J = I + c 1 1^T fails the first rung only
    # by the rounding of J^T J
    "low_rank_rank_one": (
        _rank_one(IdentityMinusLowRankJacobian(np.ones(2), np.eye(2),
                                               np.eye(2) - np.full((2, 2), 1e6))),
        IdentityMinusLowRankJacobian, 1, {"lm_linesearch": 1}, True),
}


@pytest.mark.parametrize("case", LM_BRANCH_CASES)
def test_proj_lm_class_matches_dense_reference(case, monkeypatch):
    # the reference solve sees each Jacobian as DenseJacobian(to_dense())
    p, jac_class, max_iters, kinds, rung_retry = LM_BRANCH_CASES[case]
    assert type(p.jacobian(p.start)) is jac_class
    infos = []  # one entry per call of the handle damped_normal_solve calls
    dposv = lapack.dposv

    def recording_dposv(a, b, **kwargs):
        c, x, info = dposv(a, b, **kwargs)
        infos.append(info)
        return c, x, info

    monkeypatch.setattr(lapack, "dposv", recording_dposv)
    cfg = SolverConfig(max_iters=max_iters)
    out = solve(p, MethodId.proj_lm, cfg)
    class_infos = infos[:]
    assert len(class_infos) > 0
    dense = replace(p, jacobian=lambda x: DenseJacobian(p.jacobian(x).to_dense()))
    ref = solve(dense, MethodId.proj_lm, cfg)
    assert (out.status, out.iterations, out.f_evals) == (ref.status, ref.iterations, ref.f_evals)
    assert [rec.step_kind for rec in out.trace] == [rec.step_kind for rec in ref.trace]
    assert out.x.tobytes() == ref.x.tobytes()
    assert infos[len(class_infos):] == class_infos
    assert Counter(rec.step_kind for rec in out.trace) == kinds
    assert (class_infos[0] > 0 and class_infos[1] == 0) == rung_retry


def _source_outside_docstrings(module) -> str:
    """The module's source with the lines of every docstring blanked."""
    source = inspect.getsource(module)
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines[doc.lineno - 1:doc.end_lineno] = [""] * (doc.end_lineno - doc.lineno + 1)
    return "\n".join(lines)


def test_solvers_hold_no_blas_or_lapack():
    # every BLAS and LAPACK call of nasolve is made in linalg: no other module
    # holds its handles, names a routine or calls np.linalg outside a
    # docstring; the LM step reaches them only through damped_normal_solve
    routines = r"\b(?:blas|lapack|d(?:gemm|gemv|syrk|posv|getr[fs]|tbtrs|tbsv|syevr))\b|np\.linalg\."
    names = sorted(m.name for m in pkgutil.iter_modules(nasolve.__path__) if m.name != "linalg")
    assert "solvers" in names and "problems" in names
    for module in [nasolve] + [importlib.import_module(f"nasolve.{name}") for name in names]:
        held = [name for name, v in vars(module).items() if v is blas or v is lapack]
        assert held == [], module.__name__
        assert re.findall(routines, _source_outside_docstrings(module)) == [], module.__name__


class TestCholeskyAgainstScipyWrappers:
    """damped_normal_solve factors dsyrk's Fortran-order J^T J + mu I in place
    and solves with one dposv(overwrite_a=1), which calls dpotrf and dpotrs,
    the routines cho_factor and cho_solve call, so they must agree bit for
    bit."""

    @pytest.mark.parametrize("n", [1, 2, 8, 57, 300])
    def test_spd_bit_identical(self, n):
        rng = np.random.default_rng(400 + n)
        for _ in range(5):
            jac = rng.standard_normal((n, n))
            normal = jac.T @ jac
            rhs = rng.standard_normal(n)
            a = normal.copy(order="F")
            a.flat[:: n + 1] += 1e-3
            c, d, info = scipy.linalg.lapack.dposv(a, rhs, overwrite_a=1)
            assert info == 0 and np.shares_memory(c, a)
            ref = normal.copy()
            ref.flat[:: n + 1] += 1e-3
            c_ref, lower = scipy.linalg.cho_factor(ref, check_finite=False)
            np.testing.assert_array_equal(c, c_ref)
            np.testing.assert_array_equal(
                d, scipy.linalg.cho_solve((c_ref, lower), rhs, check_finite=False)
            )

    def test_not_positive_definite_gives_positive_info(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        _, _, info = scipy.linalg.lapack.dposv(a.copy(order="F"), np.ones(2), overwrite_a=1)
        assert info > 0
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(a, check_finite=False)


class TestTermination:
    def test_nan_residual_stops_at_once_under_every_method(self):
        p = NonlinearProblem(
            name="nan", residual=lambda x: np.full(2, np.nan),
            jacobian=lambda x: DenseJacobian(np.eye(2)), start=np.ones(2),
        )
        for method in MethodId:
            out = solve(p, method, SolverConfig())
            assert out.status == "nonfinite" and out.status in STATUSES, method
            assert not out.converged and out.iterations == 0 and out.f_evals == 1

    def test_stops_at_first_nonfinite_iterate(self):
        # f = log x from x0 = 3: the first Newton step lands at x < 0
        def log_residual(x):
            with np.errstate(invalid="ignore"):
                return np.log(x)

        p = NonlinearProblem(
            name="log", residual=log_residual,
            jacobian=lambda x: DenseJacobian(np.array([[1.0 / x[0]]])),
            start=np.array([3.0]),
        )
        out = solve(p, MethodId.newton, SolverConfig())
        assert out.status == "nonfinite" and out.status in STATUSES
        assert out.iterations == 1 and out.f_evals == 2 and out.x[0] < 0.0

    def test_iteration_cap(self):
        out = solve(square_problem(), MethodId.newton, SolverConfig(max_iters=3))
        assert out.status == "max_iters" and out.status in STATUSES
        assert out.iterations == 3 and out.f_evals == 4


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


# what each method may and must record, read from its name: the gamma_
# methods safeguard, the armijo_ methods and proj_lm line-search
@pytest.mark.parametrize("method", list(MethodId), ids=str)
def test_method_table(method):
    problems = [registry_entry(name) for name in TRANSCRIBED] + [
        h_equation(HEquationSpec(n=200, omega=1.0)),
        multipoly(MultipolySpec(n=200, k=3)),
    ]
    outcomes = [solve(p, method, SolverConfig()) for p in problems]
    assert {out.status for out in outcomes} <= set(STATUSES)
    trace = [rec for out in outcomes for rec in out.trace]
    kinds = {rec.step_kind for rec in trace}
    assert kinds <= set(STEP_KINDS)  # the benchmark counts steps per declared kind
    scaled = sum(rec.lam < 1.0 for rec in trace)
    searched = sum(rec.ls_evals > 0 for rec in trace)
    if method is MethodId.newton:
        assert kinds == {"newton"}
    elif method is MethodId.proj_lm:
        assert kinds <= {"lm", "lm_linesearch", "projected_gradient"}
    else:
        assert kinds <= {"newton", "anderson", "anderson_linesearch"}
    assert (method in SAFEGUARD_METHODS) == method.value.startswith("gamma_")
    assert (method in LINESEARCH_METHODS) == ("armijo_" in method.value)
    if method in SAFEGUARD_METHODS:
        assert scaled > 0
    else:
        assert scaled == 0
    if method in LINESEARCH_METHODS or method is MethodId.proj_lm:
        assert searched > 0
    else:
        assert searched == 0


def test_registry_solves_call_neither_numpy_norm_nor_delete(monkeypatch):
    # the registry's per-call path: norms by linalg.norm2, Brown's products by
    # math.prod; the stand-ins count, then forward, so the solves still run
    calls = Counter()

    def counting(name, real):
        def stand_in(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return stand_in

    monkeypatch.setattr(np.linalg, "norm", counting("norm", np.linalg.norm))
    monkeypatch.setattr(np, "delete", counting("delete", np.delete))
    assert np.linalg.norm(np.ones(4)) == 2.0 and calls["norm"] == 1  # the patch takes
    calls.clear()
    for p in map(registry_entry, TRANSCRIBED):
        for method in MethodId:
            solve(p, method)
    assert calls == Counter()
