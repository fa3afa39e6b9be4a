from dataclasses import replace

import numpy as np
import pytest

from nasolve.core import IterationRecord, NonlinearProblem, SolveOutcome, SolverConfig
from nasolve.diagnostics import (
    MissingGroundTruth,
    PairKind,
    ZeroStep,
    diagnose_run,
    error_recorder,
    estimate_rate,
    estimate_root_order,
    theta_gain,
)
from nasolve.linalg import DenseJacobian, SingularMatrix, lstsq_gamma
from nasolve.problems import (
    HEquationSpec,
    MultipolySpec,
    h_equation,
    multipoly,
    with_ground_truth,
)
from nasolve.solvers import newton_anderson_solve, newton_solve, projected_lm_solve, solve


def toy_problem(n=4):
    # known root at 0 with null direction e_n
    basis = np.zeros((n, 1))
    basis[-1, 0] = 1.0
    return NonlinearProblem(
        name="toy",
        residual=lambda x: x.copy(),
        jacobian=lambda x: DenseJacobian(np.eye(n)),
        start=np.ones(n),
        known_root=np.zeros(n),
        null_basis=basis,
    )


def _recorded(p, xs, ws):
    """The record a solve of p keeps for iterates xs, where the Newton update
    ws[i] led from xs[i] to xs[i + 1]."""
    errors, record = error_recorder(p, xs[0])
    for x, w in zip(xs[1:], ws):
        record(x, w)
    return errors


def _hand_run(errors, theta=1.0):
    """An outcome holding ``errors`` and one anderson step per iterate after the first."""
    trace = [
        IterationRecord(k=k, res_norm=1.0, step_norm=1.0, gamma_raw=0.0, lam=1.0,
                        gamma_used=0.0, theta=theta, step_kind="anderson")
        for k in range(len(errors) - 1)
    ]
    return SolveOutcome(final_res=0.0, x=np.zeros(1), status="converged",
                        f_evals=len(errors), trace=trace, errors=errors)


class TestSplitError:
    """The null/range split of the error that a solve records per iterate."""

    def test_coordinate_projection(self):
        p = toy_problem(4)
        errors = _recorded(p, [np.ones(4), np.zeros(4)], [-np.ones(4)])
        np.testing.assert_allclose(errors[0].null, [1.0])
        assert errors[0].range_norm == pytest.approx(np.sqrt(3.0))
        np.testing.assert_allclose(errors[1].update, [-1.0])
        assert diagnose_run(p, _hand_run(errors)).steps[0].sigma == pytest.approx(np.sqrt(3.0))

    def test_zero_error_gives_infinite_sigma(self):
        p = toy_problem(4)
        errors = _recorded(p, [np.zeros(4), np.zeros(4)], [np.zeros(4)])
        assert np.all(errors[0].null == 0) and errors[0].range_norm == 0.0
        assert diagnose_run(p, _hand_run(errors)).steps[0].sigma == np.inf

    def test_random_basis_pythagoras_and_idempotence(self):
        rng = np.random.default_rng(12)
        n, m = 10, 3
        q, _ = np.linalg.qr(rng.standard_normal((n, m)))
        p = NonlinearProblem(
            name="toy", residual=lambda x: x.copy(),
            jacobian=lambda x: DenseJacobian(np.eye(n)),
            start=np.ones(n), known_root=np.zeros(n), null_basis=q,
        )
        for _ in range(50):
            e = rng.standard_normal(n)
            (split,) = _recorded(p, [e], [])
            c = split.null
            assert abs(np.dot(e, e) - (c @ c + split.range_norm**2)) <= 1e-12 * max(1.0, e @ e)
            # idempotence: the null component P_N e = Q c splits into itself
            (again,) = _recorded(p, [q @ c], [])
            np.testing.assert_allclose(again.null, c, atol=1e-12)
            assert again.range_norm <= 1e-12

    def test_missing_truth_raises(self):
        p = NonlinearProblem(
            name="nt", residual=lambda x: x.copy(),
            jacobian=lambda x: DenseJacobian(np.eye(2)), start=np.ones(2),
        )
        with pytest.raises(MissingGroundTruth):
            diagnose_run(p, _hand_run(_recorded(toy_problem(2), [np.ones(2)], [])))


class TestThetaGain:
    def test_zero_gamma_is_one(self):
        assert theta_gain(np.array([1.0, 2.0]), np.array([0.5, 0.5]), 0.0) == 1.0

    def test_orthogonal_pair_half_gamma(self):
        t = theta_gain(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5)
        assert t == pytest.approx(np.sqrt(2.0) / 2.0)

    def test_colinear_cancellation(self):
        w = np.array([2.0, 0.0])
        wp = np.array([1.0, 0.0])
        from nasolve.linalg import lstsq_gamma

        assert theta_gain(w, wp, lstsq_gamma(w, wp)) == pytest.approx(0.0, abs=1e-15)

    def test_zero_step_raises(self):
        with pytest.raises(ZeroStep):
            theta_gain(np.zeros(2), np.ones(2), 0.5)

    def test_raw_gamma_minimizes_over_grid(self):
        from nasolve.linalg import lstsq_gamma

        rng = np.random.default_rng(4)
        w = rng.standard_normal(8)
        wp = rng.standard_normal(8)
        g = lstsq_gamma(w, wp)
        base = theta_gain(w, wp, g)
        for cand in np.arange(-2.0, 2.0, 1e-3):
            assert base <= theta_gain(w, wp, cand) + 1e-12


def _balance(gamma, a, b):
    """min/max balance nu of the two safeguard products |1 - gamma| a and |gamma| b."""
    p1, p2 = abs(1.0 - gamma) * a, abs(gamma) * b
    return 0.0 if min(p1, p2) == 0.0 else min(p1, p2) / max(p1, p2)


class TestNuRatio:
    def test_exactly_r_after_scaling_branch(self):
        # with the update norms substituted, the scaled coefficient makes the
        # balance hit r exactly
        from nasolve.solvers import gamma_safeguard

        rng = np.random.default_rng(21)
        fired = 0
        for _ in range(500):
            gamma = rng.uniform(-2.5, 0.999)
            wn, wp, r = rng.uniform(0.1, 10), rng.uniform(0.1, 10), rng.uniform(0.05, 0.95)
            dec = gamma_safeguard(gamma, wn, wp, r)
            if dec.took_newton_step or dec.lam == 1.0:
                continue
            fired += 1
            nu = _balance(dec.lam * gamma, wn, wp)
            assert nu == pytest.approx(r, abs=1e-10)
            assert nu <= 1.5 * r
        assert fired > 50

    def test_bounded_by_r_on_instrumented_runs(self):
        # slack 1.5 covers the asymptotic constants in the balance bound
        for k in (2, 3):
            p = multipoly(MultipolySpec(n=2000, k=k))
            cfg = replace(SolverConfig(), r=0.7)
            out = newton_anderson_solve(p, cfg, safeguard=True)
            assert out.converged
            fired = 0
            for prev, rec in zip(out.trace, out.trace[1:]):
                if rec.lam < 1.0:
                    fired += 1
                    nu = _balance(rec.gamma_used, rec.step_norm, prev.step_norm)
                    assert nu <= 1.5 * cfg.r
            assert fired > 0


def _pair(e_k, e_km1, w_next, w_k):
    """The pair label diagnose_run gives step k = 1 of a run on the toy problem
    through x_0 = e_km1, x_1 = e_k and x_2 = e_k + w_next (the root is 0)."""
    p = toy_problem(4)
    errors = _recorded(p, [e_km1, e_k, e_k + w_next], [w_k, w_next])
    return diagnose_run(p, _hand_run(errors)).steps[1].pair


class TestClassifyPair:
    def test_pure_null_errors_make_n_pair(self):
        e_k = np.array([0.0, 0.0, 0.0, 0.1])
        e_km1 = np.array([0.0, 0.0, 0.0, 0.2])
        # Newton-like updates halve the null component
        label = _pair(e_k, e_km1, -0.5 * e_k, -0.5 * e_km1)
        assert label.kind is PairKind.N_pair
        assert label.strong

    def test_pure_range_error_makes_r_pair(self):
        e_k = np.array([0.01, 0.0, 0.0, 0.0])
        e_km1 = np.array([0.02, 0.0, 0.0, 0.0])
        # updates whose compensated null part dominates the (zero) null error
        w_next = -e_k + np.array([0.0, 0.0, 0.0, 1e-4])
        w_k = -e_km1 + np.array([0.0, 0.0, 0.0, 2e-4])
        assert _pair(e_k, e_km1, w_next, w_k).kind is PairKind.R_pair

    def test_mixed_pair(self):
        e_k = np.array([0.0, 0.0, 0.0, 0.1])       # null side at k
        e_km1 = np.array([0.02, 0.0, 0.0, 0.0])    # range side at k-1
        w_next = -0.5 * e_k
        w_k = -e_km1 + np.array([0.0, 0.0, 0.0, 2e-4])
        assert _pair(e_k, e_km1, w_next, w_k).kind is PairKind.NR_pair

    def test_vanishing_terms_leave_pair_undominated(self):
        e_k = np.array([0.01, 0.0, 0.0, 0.0])
        e_km1 = np.array([0.02, 0.0, 0.0, 0.0])
        # range-only errors and updates: both null-space terms are zero
        label = _pair(e_k, e_km1, -0.5 * e_k, -0.5 * e_km1)
        assert label.kind is PairKind.undominated
        assert not label.strong

    def test_late_iterations_on_multipoly_are_n_pairs(self):
        p = multipoly(MultipolySpec(n=100, k=2))
        out = newton_anderson_solve(p, replace(SolverConfig(), r=0.7), safeguard=True)
        assert out.converged
        report = diagnose_run(p, out)
        late = [s.pair for s in report.steps if s.pair is not None][-3:]
        assert late and all(lbl.kind is PairKind.N_pair for lbl in late)


class TestCompatibilityMonitor:
    def test_zero_rhs_with_positive_lhs_is_false(self):
        p = toy_problem(2)
        x1 = np.array([0.0, 0.5])
        errors = _recorded(p, [np.ones(2), x1], [x1 - np.ones(2)])
        report = diagnose_run(p, _hand_run(errors, theta=0.0))
        assert [s.compatible for s in report.steps] == [False]

    def test_zero_lhs_is_true(self):
        p = toy_problem(2)
        x1 = np.array([0.5, 0.0])
        errors = _recorded(p, [np.ones(2), x1], [x1 - np.ones(2)])
        report = diagnose_run(p, _hand_run(errors, theta=0.0))
        assert [s.compatible for s in report.steps] == [True]

    def test_strong_n_pair_steps_compatible_on_multipoly(self):
        p = multipoly(MultipolySpec(n=100, k=2))
        out = newton_anderson_solve(p, replace(SolverConfig(), r=0.7), safeguard=True)
        report = diagnose_run(p, out)
        flagged = [
            s for s in report.steps
            if s.pair is not None and s.pair.kind is PairKind.N_pair and s.pair.strong
        ]
        assert flagged and all(s.compatible for s in flagged)


class TestRateEstimation:
    def test_exact_geometric(self):
        assert estimate_rate([2.0 ** -k for k in range(10)]) == pytest.approx(0.5)

    def test_zeros_rejected(self):
        assert estimate_rate([0.0, 0.0, 0.0, 0.0, 0.0]) is None

    def test_non_positive_ends_trimmed(self):
        assert estimate_rate([0.0, 1.0, 0.5, 0.25, 0.125, 0.0, -1.0]) == pytest.approx(0.5)

    def test_too_short_rejected(self):
        assert estimate_rate([1.0, 0.5, 0.25]) is None

    def test_newton_multipoly_rate_recovery(self):
        # the null component contracts by d/(d+1) per step
        p = multipoly(MultipolySpec(n=100, k=3))
        out = newton_solve(p, SolverConfig())
        norms = [np.linalg.norm(it.null) for it in out.errors]
        rho = estimate_rate([v for v in norms if v > 1e-12])
        assert rho == pytest.approx(2.0 / 3.0, abs=0.05)

    def test_root_order_inversion(self):
        assert estimate_root_order(0.5) == pytest.approx(1.0)
        assert estimate_root_order(2.0 / 3.0) == pytest.approx(2.0)

    def test_root_order_out_of_range(self):
        for rho in (0.0, 1.0, -0.5, 2.0):
            assert estimate_root_order(rho) is None

    def test_high_order_recovery(self):
        p = multipoly(MultipolySpec(n=100, k=7))
        out = newton_solve(p, SolverConfig())
        norms = [np.linalg.norm(it.null) for it in out.errors]
        rho = estimate_rate([v for v in norms if v > 1e-12])
        assert estimate_root_order(rho) == pytest.approx(6.0, abs=0.5)


class TestDiagnoseRun:
    def test_report_shape_and_estimates(self):
        p = multipoly(MultipolySpec(n=100, k=2))
        out = newton_solve(p, SolverConfig())
        report = diagnose_run(p, out)
        assert len(report.steps) == out.iterations
        assert report.rate == pytest.approx(0.5, abs=0.05)
        assert report.root_order == pytest.approx(1.0, abs=0.5)
        assert report.steps[0].pair is None  # no previous iterate at k = 0

    def test_history_not_needed(self):
        p = multipoly(MultipolySpec(n=200, k=3))
        cfg = replace(SolverConfig(), r=0.7)
        with_history = newton_anderson_solve(p, cfg, safeguard=True, keep_history=True)
        without = newton_anderson_solve(p, cfg, safeguard=True)
        assert without.iterate_history is None
        assert diagnose_run(p, without) == diagnose_run(p, with_history)

    def test_rate_kept_when_root_order_undefined(self):
        # the iterates leave the point given as the root, so the null error
        # grows and rho > 1: no root order, but the rate is still reported
        p = NonlinearProblem(
            name="away", residual=lambda x: x * x,
            jacobian=lambda x: DenseJacobian(np.array([[2.0 * x[0]]])),
            start=np.array([1.0]), known_root=np.array([1.0]), null_basis=np.eye(1),
        )
        report = diagnose_run(p, newton_solve(p, SolverConfig()))
        assert report.rate > 1.0 and report.root_order is None

    def test_outcome_without_ground_truth_raises(self):
        p = multipoly(MultipolySpec(n=20, k=2))
        out = newton_solve(replace(p, known_root=None, null_basis=None), SolverConfig())
        assert out.errors is None
        with pytest.raises(MissingGroundTruth):
            diagnose_run(p, out)

    def test_proj_lm_steps_get_no_pair(self):
        p = multipoly(MultipolySpec(n=30, k=2))
        out = projected_lm_solve(p, SolverConfig())
        report = diagnose_run(p, out)
        assert len(report.steps) == out.iterations > 1
        assert all(s.pair is None for s in report.steps)

    def test_no_residual_or_jacobian_calls(self):
        p = multipoly(MultipolySpec(n=200, k=2))
        calls = {"residual": 0, "jacobian": 0}

        def counted(name, fn):
            def call(x):
                calls[name] += 1
                return fn(x)
            return call

        p = replace(
            p, residual=counted("residual", p.residual), jacobian=counted("jacobian", p.jacobian)
        )
        out = newton_anderson_solve(p, replace(SolverConfig(), r=0.7), safeguard=True)
        assert calls["residual"] == out.f_evals and calls["jacobian"] == out.iterations
        calls.update(residual=0, jacobian=0)
        report = diagnose_run(p, out)
        assert any(s.pair is not None for s in report.steps)
        assert calls == {"residual": 0, "jacobian": 0}


# The diagnosis as it was computed before solves recorded their errors: from
# the iterate history, re-solving every Newton update, with the projections
# done on n-vectors.  diagnose_run must agree with it.

def _reference_split(x, p):
    basis = p.null_basis
    e = np.asarray(x, dtype=float) - p.known_root
    pn = basis @ (basis.T @ e)
    pr = e - pn
    npn = float(np.linalg.norm(pn))
    sigma = float("inf") if npn == 0.0 else float(np.linalg.norm(pr)) / npn
    return e, pn, pr, sigma


def _reference_classify_pair(split_k, split_km1, w_next, w_k, p, rho_dom):
    basis = p.null_basis

    def proj(v):
        return basis @ (basis.T @ v)

    labels = []
    for (e, pn, _, _), w in ((split_k, w_next), (split_km1, w_k)):
        t_n = 0.5 * float(np.linalg.norm(pn))
        t_r = float(np.linalg.norm(proj(e + w) - 0.5 * pn))
        if t_n == 0.0 and t_r == 0.0:
            labels.append(None)
        elif t_n >= rho_dom * t_r:
            labels.append("N")
        elif t_r >= rho_dom * t_n:
            labels.append("R")
        else:
            labels.append(None)
    composed = {
        ("N", "N"): PairKind.N_pair,
        ("R", "R"): PairKind.R_pair,
        ("N", "R"): PairKind.NR_pair,
        ("R", "N"): PairKind.RN_pair,
    }.get((labels[0], labels[1]), PairKind.undominated)
    if composed is PairKind.undominated:
        return composed, False
    gamma = lstsq_gamma(w_next, w_k)
    if gamma is None:
        return composed, False
    (e_k, pn_k, _, _), (e_km1, pn_km1, _, _) = split_k, split_km1
    t1 = (1.0 - gamma) * 0.5 * pn_k
    t2 = gamma * 0.5 * pn_km1
    t3 = (1.0 - gamma) * (proj(e_k + w_next) - 0.5 * pn_k)
    t4 = gamma * (proj(e_km1 + w_k) - 0.5 * pn_km1)
    combined = {
        PairKind.N_pair: t1 + t2,
        PairKind.R_pair: t3 + t4,
        PairKind.NR_pair: t1 + t4,
        PairKind.RN_pair: t3 + t2,
    }[composed]
    rest = (t1 + t2 + t3 + t4) - combined
    return composed, float(np.linalg.norm(combined)) >= rho_dom * float(np.linalg.norm(rest))


def _reference_diagnose_run(p, outcome, C=2.0, rho_dom=3.0, noise_floor=1e-13):
    """Per step (k, sigma, pn_norm, pr_norm, pair kind or None, strong, compatible),
    plus (rate, root_order)."""
    history = outcome.iterate_history
    splits = [_reference_split(x, p) for x in history]
    updates = []
    for rec in outcome.trace:
        x = history[rec.k]
        try:
            updates.append(p.jacobian(x).solve(-p.residual(x)))
        except SingularMatrix:
            updates.append(None)
    steps = []
    for rec in outcome.trace:
        k = rec.k
        kind, strong = None, False
        if k >= 1 and updates[k] is not None and updates[k - 1] is not None:
            kind, strong = _reference_classify_pair(
                splits[k], splits[k - 1], updates[k], updates[k - 1], p, rho_dom
            )
        _, pn, pr, sigma = splits[k]
        compatible = float(np.linalg.norm(splits[k + 1][1])) <= C * rec.theta * rec.step_norm
        steps.append((k, sigma, float(np.linalg.norm(pn)), float(np.linalg.norm(pr)),
                      kind, strong, compatible))
    scale = noise_floor * (1.0 + float(np.linalg.norm(p.known_root)))
    tail = [float(np.linalg.norm(s[1])) for s in splits]
    tail = [v for v in tail if v > scale]
    rate = estimate_rate(tail[-12:])
    order = None if rate is None else estimate_root_order(rate)
    return steps, (rate, order)


def _close(a, b):
    if a is None or b is None or not np.isfinite(a) or not np.isfinite(b):
        return a == b
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def _assert_matches_reference(p, out):
    ref_steps, ref_tail = _reference_diagnose_run(p, out)
    report = diagnose_run(p, out)
    assert len(report.steps) == len(ref_steps) == out.iterations
    for s, (k, sigma, pn_norm, pr_norm, kind, strong, compatible) in zip(report.steps, ref_steps):
        assert s.k == k
        assert (s.pair.kind if s.pair else None) == kind, k
        assert (s.pair.strong if s.pair else False) == strong, k
        assert s.compatible == compatible, k
        for got, want in ((s.sigma, sigma), (s.pn_norm, pn_norm), (s.pr_norm, pr_norm)):
            assert _close(got, want), (k, got, want)
    for got, want in zip((report.rate, report.root_order), ref_tail):
        assert _close(got, want), (got, want)
    return report


NA_METHODS = ("newton", "n_anderson", "gamma_n_anderson", "armijo_n_anderson",
              "gamma_armijo_n_anderson")


class TestAgainstReference:
    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_multipoly(self, k):
        p = multipoly(MultipolySpec(n=2000, k=k))
        cfg = replace(SolverConfig(), r=0.7)
        paired = 0
        for method in NA_METHODS:
            report = _assert_matches_reference(p, solve(p, method, cfg, keep_history=True))
            paired += sum(s.pair is not None for s in report.steps)
        assert paired > 0

    def test_h_equation_at_the_fold(self):
        p = with_ground_truth(h_equation(HEquationSpec(n=300, omega=1.0)))
        for method in ("newton", "n_anderson", "gamma_n_anderson"):
            _assert_matches_reference(p, solve(p, method, SolverConfig(), keep_history=True))

    def test_three_dimensional_null_space(self):
        # f(x) = Q g(Q^T (x - x*)): range coordinates y_0..y_4 are regular,
        # the null coordinates y_5..y_7 are quadratic, so the Jacobian at x*
        # annihilates the last three columns of Q
        n, m = 8, 3
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        root = rng.standard_normal(n)

        def g(y):
            out = y + 0.1 * y * y
            out[n - m:] = y[n - m:] ** 2 + 0.5 * y[n - m:] * y[0]
            return out

        def residual(x):
            return q @ g(q.T @ (x - root))

        def jacobian(x):
            y = q.T @ (x - root)
            dg = np.diag(1.0 + 0.2 * y)
            for j in range(n - m, n):
                dg[j, :] = 0.0
                dg[j, j] = 2.0 * y[j] + 0.5 * y[0]
                dg[j, 0] += 0.5 * y[j]
            return DenseJacobian(q @ dg @ q.T)

        y0 = np.array([0.9, -0.7, 0.5, 0.8, -0.6, 0.05, -0.08, 0.1])
        p = NonlinearProblem(
            name="null3", residual=residual, jacobian=jacobian,
            start=root + q @ y0, known_root=root, null_basis=q[:, n - m:],
        )
        for method in NA_METHODS:
            out = solve(p, method, SolverConfig(), keep_history=True)
            assert out.converged, method
            _assert_matches_reference(p, out)
