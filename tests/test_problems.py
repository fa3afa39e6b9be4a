from dataclasses import fields, replace

import numpy as np
import pytest

from nasolve.core import NonlinearProblem, SolverConfig, validate_problem
from nasolve.linalg import DenseJacobian, UpperBidiagonalJacobian
from nasolve.problems import (
    REGISTRY_NAMES,
    HEquationSpec,
    MultipolySpec,
    ProblemUnavailable,
    fd_jacobian_check,
    h_equation,
    multipoly,
    registry,
    registry_entry,
    with_ground_truth,
)
from nasolve.solvers import newton_anderson_solve, newton_solve


def _reference_kernel_dot(mu, x, chunk=512):
    """Kernel product mu_i / (mu_i + mu_j) @ x with the kernel rebuilt in row
    blocks, the formula ``h_equation`` once used above n = 2000."""
    out = np.empty(len(mu))
    for i0 in range(0, len(mu), chunk):
        block = mu[i0:i0 + chunk, None] / (mu[i0:i0 + chunk, None] + mu[None, :])
        out[i0:i0 + chunk] = block @ x
    return out


def _reference_h_equation(n, omega, x, chunk=512):
    """Residual and dense Jacobian of the H-equation from the row-block formula."""
    mu = (np.arange(1, n + 1) - 0.5) / n
    coef = omega / (2.0 * n)
    s = coef * _reference_kernel_dot(mu, x, chunk)
    w = (1.0 - s) ** -2
    jm = np.empty((n, n))
    for i0 in range(0, n, chunk):
        block = mu[i0:i0 + chunk, None] / (mu[i0:i0 + chunk, None] + mu[None, :])
        jm[i0:i0 + chunk] = (-coef) * (w[i0:i0 + chunk, None] * block)
    jm[np.diag_indices(n)] += 1.0
    return x - 1.0 / (1.0 - s), jm


class TestHEquation:
    def test_omega_zero_is_affine_shift(self):
        from dataclasses import replace

        p = h_equation(HEquationSpec(n=40, omega=0.0))
        x = np.linspace(0.5, 2.0, 40)
        np.testing.assert_allclose(p.residual(x), x - 1.0, atol=1e-15)
        # the recommended start is already the root; one Newton step from
        # anywhere else lands exactly on it
        assert newton_solve(p, SolverConfig()).iterations == 0
        shifted = replace(p, start=np.full(40, 3.0))
        out = newton_solve(shifted, SolverConfig())
        assert out.converged and out.iterations == 1

    def test_residual_matches_extended_precision_quadrature(self):
        # oracle: direct midpoint-rule sum evaluated in 40-digit arithmetic
        import mpmath

        mpmath.mp.dps = 40
        n, omega = 500, 0.5
        p = h_equation(HEquationSpec(n=n, omega=omega))
        x = np.ones(n)
        got = p.residual(x)
        mu = [(mpmath.mpf(2 * i + 1) / (2 * n)) for i in range(n)]
        w = mpmath.mpf(omega) / (2 * n)
        worst = 0.0
        for i in range(0, n, 17):  # sampled rows keep the oracle affordable
            acc = mpmath.mpf(0)
            for j in range(n):
                acc += mu[i] * mpmath.mpf(x[j]) / (mu[i] + mu[j])
            expect = mpmath.mpf(x[i]) - 1 / (1 - w * acc)
            worst = max(worst, abs(float(expect - mpmath.mpf(got[i]))))
        assert worst <= 1e-12

    def test_jacobian_matches_finite_differences(self):
        p = h_equation(HEquationSpec(n=50, omega=0.9))
        assert fd_jacobian_check(p, np.ones(50)) <= 1e-6

    def test_start_is_ones(self):
        p = h_equation(HEquationSpec(n=10, omega=1.0))
        np.testing.assert_array_equal(p.start, np.ones(10))

    def test_residual_at_computed_root(self):
        p = with_ground_truth(h_equation(HEquationSpec(n=120, omega=1.0)))
        assert np.linalg.norm(p.residual(p.known_root)) <= 1e-10

    def test_singular_structure_at_bifurcation(self):
        # omega = 1: one-dimensional numerical null space at the solution
        p = with_ground_truth(h_equation(HEquationSpec(n=500, omega=1.0)))
        sv = np.linalg.svd(p.jacobian(p.known_root).to_dense(), compute_uv=False)
        assert sv[-1] <= 1e-3
        assert sv[-2] >= 10.0 * sv[-1]

    def test_ground_truth_basis_tracks_smallest_singular_vector(self):
        p = with_ground_truth(h_equation(HEquationSpec(n=120, omega=1.0)))
        jac = p.jacobian(p.known_root)
        jb = np.linalg.norm(jac.matvec(p.null_basis[:, 0]))
        sv = np.linalg.svd(jac.to_dense(), compute_uv=False)
        assert jb == pytest.approx(sv[-1], rel=1e-6)

    def test_validation_reports_residual_null_direction(self):
        # the discretized problem is only near-singular at omega = 1, so the
        # attached numerical basis legitimately fails the strict annihilation
        # check; validate_problem must say so rather than pass silently
        p = with_ground_truth(h_equation(HEquationSpec(n=120, omega=1.0)))
        violations = validate_problem(p)
        assert len(violations) == 1
        assert "not annihilated" in violations[0]

    @pytest.mark.parametrize("n", [2001, 3000])
    def test_matches_row_block_reference_past_old_dense_limit(self, n):
        p = h_equation(HEquationSpec(n=n, omega=1.0))
        rng = np.random.default_rng(n)
        for x in (p.start, 1.0 + 0.5 * rng.random(n)):
            f_ref, j_ref = _reference_h_equation(n, 1.0, x)
            f, j = p.residual(x), p.jacobian(x).to_dense()
            assert np.linalg.norm(f - f_ref) <= 1e-14 * np.linalg.norm(f_ref)
            assert np.linalg.norm(j - j_ref) <= 1e-14 * np.linalg.norm(j_ref)

    @pytest.mark.parametrize("n", [1000, 2500])
    def test_newton_step_memory_budget(self, n):
        # the problem's resident kernel is built before tracing starts; one
        # Jacobian build plus LU solve may then allocate the Jacobian and its
        # LU factors, and no further n x n array
        import tracemalloc

        p = h_equation(HEquationSpec(n=n, omega=1.0))
        x = p.start
        f = p.residual(x)
        tracemalloc.start()
        try:
            p.jacobian(x).solve(-f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * n * n * 8

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            HEquationSpec(n=0)
        with pytest.raises(ValueError):
            HEquationSpec(n=10, omega=1.5)


class TestMultipoly:
    def test_zero_is_root_with_singular_jacobian(self):
        p = multipoly(MultipolySpec(n=5, k=3))
        np.testing.assert_array_equal(p.residual(np.zeros(5)), np.zeros(5))
        jac = p.jacobian(np.zeros(5))
        assert jac.diag[-1] == 0.0
        np.testing.assert_allclose(jac.matvec(p.null_basis[:, 0]), np.zeros(5), atol=0)

    def test_hand_values_at_ones(self):
        p = multipoly(MultipolySpec(n=3, k=2))
        x = np.ones(3)
        np.testing.assert_array_equal(p.residual(x), [1.0, 1.0, 1.0])
        jac = p.jacobian(x)
        np.testing.assert_array_equal(jac.diag, [3.0, 3.0, 2.0])
        np.testing.assert_array_equal(jac.superdiag, [-2.0, -2.0])

    def test_structured_form_densifies_exactly(self):
        p = multipoly(MultipolySpec(n=6, k=4))
        rng = np.random.default_rng(2)
        x = rng.uniform(0.2, 1.0, 6)
        jac = p.jacobian(x)
        assert isinstance(jac, UpperBidiagonalJacobian)
        dense = np.diag(2.0 * x + 1.0) + np.diag(-4.0 * x[1:] ** 3, 1)
        dense[-1, -1] = 4.0 * x[-1] ** 3
        np.testing.assert_array_equal(jac.to_dense(), dense)

    def test_jacobian_matches_finite_differences(self):
        p = multipoly(MultipolySpec(n=20, k=3))
        rng = np.random.default_rng(8)
        assert fd_jacobian_check(p, rng.uniform(0.1, 0.9, 20)) <= 1e-6

    def test_start_and_ground_truth(self):
        p = multipoly(MultipolySpec(n=10, k=5))
        assert p.start[-1] == 0.9 and np.all(p.start[:-1] == 0.3)
        assert p.root_order == 4
        assert validate_problem(p) == []

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            MultipolySpec(n=1, k=2)
        with pytest.raises(ValueError):
            MultipolySpec(n=5, k=1)


class TestFdJacobianCheck:
    def test_exact_on_linear_map(self):
        from nasolve.core import NonlinearProblem
        from nasolve.linalg import DenseJacobian

        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        p = NonlinearProblem(
            name="lin", dim=6, residual=lambda x: a @ x,
            jacobian=lambda x: DenseJacobian(a), start=np.zeros(6),
        )
        assert fd_jacobian_check(p, rng.standard_normal(6)) <= 1e-10


class TestRegistry:
    def test_names_cover_both_tables(self):
        assert len(REGISTRY_NAMES) == 14
        assert "Himmelbau" in REGISTRY_NAMES and "Dayton10" in REGISTRY_NAMES

    def test_transcribed_entries_validate_and_match_fd(self):
        rng = np.random.default_rng(17)
        problems = registry()
        assert len(problems) == 6
        for p in problems:
            assert validate_problem(p) == []
            assert fd_jacobian_check(p, p.start) <= 1e-6
            lo, hi = p.bounds
            interior = lo + rng.uniform(0.25, 0.75, p.dim) * (hi - lo)
            assert fd_jacobian_check(p, interior) <= 1e-6

    def test_starts_are_lower_bounds(self):
        for p in registry():
            np.testing.assert_array_equal(p.start, p.bounds[0])

    def test_dimensions_within_paper_range(self):
        assert max(p.dim for p in registry()) == 8

    def test_untranscribed_entries_raise(self):
        for name in ("Decker1", "Dayton10", "Hueso6"):
            with pytest.raises(ProblemUnavailable):
                registry_entry(name)

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError):
            registry_entry("NotAProblem")

    def test_bullard_biegler_root_in_box(self):
        p = registry_entry("Bullard-Biegler")
        out = newton_anderson_solve(p, replace(SolverConfig(), r=0.5), safeguard=True)
        assert out.converged
        lo, hi = p.bounds
        assert np.all(out.x >= lo - 1e-9) and np.all(out.x <= hi + 1e-9)


def test_with_ground_truth_keeps_every_other_field():
    p = NonlinearProblem(
        name="shift", dim=2, residual=lambda x: x - 1.0,
        jacobian=lambda x: DenseJacobian(np.eye(2)), start=np.zeros(2),
        root_order=1, bounds=(np.full(2, -5.0), np.full(2, 5.0)),
    )
    q = with_ground_truth(p)
    np.testing.assert_array_equal(q.known_root, np.ones(2))
    assert q.null_basis.shape == (2, 1)
    for f in fields(NonlinearProblem):
        if f.name == "bounds":
            assert all(a is b for a, b in zip(q.bounds, p.bounds))
        elif f.name not in ("known_root", "null_basis"):
            assert getattr(q, f.name) is getattr(p, f.name), f.name
