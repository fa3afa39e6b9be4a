import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nasolve.core import SolverConfig
from nasolve.linalg import (
    EPS,
    DegenerateSteps,
    DenseJacobian,
    SingularMatrix,
    UpperTriangularPlusJacobian,
    lstsq_gamma,
    lu_solve,
    structured_solve,
)
from nasolve.problems import MultipolySpec, multipoly
from nasolve.solvers import newton_anderson_solve


def _reference_structured_solve(a, b):
    """Row-by-row back substitution, the reference for the LAPACK path."""
    b = np.asarray(b, dtype=float)
    n = a.n
    if a.corner == 0.0:
        raise SingularMatrix("corner pivot is exactly zero")
    x = np.empty(n)
    x[-1] = b[-1] / a.corner
    d, s = a.diag, a.superdiag
    for i in range(n - 2, -1, -1):
        if abs(d[i]) <= EPS * abs(s[i]):
            raise SingularMatrix(
                f"pivot {d[i]:.3e} at row {i} negligible against row entry {s[i]:.3e}"
            )
        x[i] = (b[i] - s[i] * x[i + 1]) / d[i]
    return x


def _rel_err(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


class TestLuSolve:
    def test_identity(self):
        x = lu_solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0], rtol=0, atol=0)

    def test_diagonal(self):
        x = lu_solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_exactly_singular(self):
        with pytest.raises(SingularMatrix):
            lu_solve(np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))

    def test_zero_matrix(self):
        with pytest.raises(SingularMatrix):
            lu_solve(np.zeros((2, 2)), np.ones(2))

    def test_accepts_dense_jacobian(self):
        a = DenseJacobian(np.array([[2.0, 1.0], [1.0, 3.0]]))
        b = np.array([3.0, 4.0])
        np.testing.assert_allclose(a.to_dense() @ a.solve(b), b, atol=1e-14)

    def test_random_multiply_back(self):
        # well-conditioned 50x50 instances: relative residual <= 1e-10
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((50, 50)) + 50.0 * np.eye(50)
            b = rng.standard_normal(50)
            x = lu_solve(a, b)
            assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10


class TestDenseMaxAbs:
    @pytest.mark.parametrize("a", [
        np.array([[1.0, -3.0], [2.0, 0.5]]),
        np.array([[-0.5, 0.25], [0.0, -7.0]]),
        np.array([[1.0, np.inf], [0.0, 1.0]]),
        np.array([[1.0, -np.inf], [0.0, 1.0]]),
        np.zeros((0, 0)),
    ])
    def test_matches_abs_max(self, a):
        expected = float(np.abs(a).max()) if a.size else 0.0
        assert DenseJacobian(a).max_abs() == expected

    def test_nan_entry_gives_nan(self):
        assert np.isnan(DenseJacobian(np.array([[1.0, np.nan], [-2.0, 1.0]])).max_abs())

    def test_memory_budget(self):
        # no n x n |A| temporary
        import tracemalloc

        n = 1000
        jac = DenseJacobian(np.random.default_rng(3).standard_normal((n, n)))
        tracemalloc.start()
        try:
            jac.max_abs()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.01 * n * n * 8


class TestStructuredSolve:
    def test_identity_like(self):
        a = UpperTriangularPlusJacobian(np.array([1.0, 1.0]), np.array([0.0]), 1.0)
        np.testing.assert_allclose(structured_solve(a, np.array([1.0, 1.0])), [1.0, 1.0])

    def test_corner_zero_singular(self):
        # the chained-polynomial Jacobian at the zero root
        a = UpperTriangularPlusJacobian(np.ones(4), np.zeros(3), 0.0)
        with pytest.raises(SingularMatrix):
            structured_solve(a, np.ones(4))

    def test_zero_middle_pivot_singular(self):
        a = UpperTriangularPlusJacobian(np.array([1.0, 0.0, 1.0]), np.array([1.0, 1.0]), 1.0)
        with pytest.raises(SingularMatrix):
            structured_solve(a, np.ones(3))

    def test_matches_dense_on_random_instances(self):
        # oracle: dense LU on the densified matrix, n <= 200
        rng = np.random.default_rng(42)
        for n in (2, 3, 10, 57, 200):
            diag = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
            sup = rng.standard_normal(n - 1)
            corner = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            a = UpperTriangularPlusJacobian(diag, sup, corner)
            b = rng.standard_normal(n)
            x_struct = structured_solve(a, b)
            x_dense = lu_solve(a.to_dense(), b)
            err = np.linalg.norm(x_struct - x_dense) / max(np.linalg.norm(x_dense), 1.0)
            assert err <= 1e-12

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(3)
        a = UpperTriangularPlusJacobian(rng.standard_normal(8), rng.standard_normal(7), 1.7)
        v = rng.standard_normal(8)
        np.testing.assert_allclose(a.matvec(v), a.to_dense() @ v, atol=1e-14)

    def test_max_abs_uses_corner_not_last_diag(self):
        a = UpperTriangularPlusJacobian(np.array([1.0, 9.0]), np.array([2.0]), 0.5)
        assert a.max_abs() == 2.0
        assert a.to_dense()[-1, -1] == 0.5


class TestStructuredSolveAgainstReference:
    """The LAPACK banded solve against the row-by-row reference loop.

    FMA in the BLAS kernel changes the rounding, so solutions agree to a
    tolerance rather than bit for bit; pivot decisions and messages agree
    exactly.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 57, 10_000])
    def test_random_diagonally_dominant(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            diag = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
            sup = rng.uniform(-1.0, 1.0, n - 1)
            corner = rng.uniform(1.0, 2.0) * rng.choice([-1.0, 1.0])
            a = UpperTriangularPlusJacobian(diag, sup, corner)
            b = rng.standard_normal(n)
            assert _rel_err(structured_solve(a, b), _reference_structured_solve(a, b)) <= 1e-12

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_multipoly_jacobians_along_gamma_na_run(self, k):
        p = multipoly(MultipolySpec(n=2000, k=k))
        out = newton_anderson_solve(p, SolverConfig(r=0.7), safeguard=True, keep_history=True)
        assert out.converged
        for x in out.iterate_history:
            a, fx = p.jacobian(x), p.residual(x)
            assert _rel_err(structured_solve(a, fx), _reference_structured_solve(a, fx)) <= 1e-12

    def test_one_by_one(self):
        a = UpperTriangularPlusJacobian(np.array([5.0]), np.array([]), -4.0)
        assert structured_solve(a, np.array([2.0]))[0] == -0.5
        assert _reference_structured_solve(a, np.array([2.0]))[0] == -0.5

    def test_tiny_pivot_alone_in_its_row_is_accepted(self):
        a = UpperTriangularPlusJacobian(np.array([1.0, 1e-300, 1.0]), np.array([1.0, 0.0]), 2.0)
        b = np.array([1.0, 1e-300, 1.0])
        x = structured_solve(a, b)
        np.testing.assert_array_equal(x, _reference_structured_solve(a, b))
        np.testing.assert_array_equal(x, [0.0, 1.0, 0.5])

    def test_highest_negligible_pivot_is_named(self):
        a = UpperTriangularPlusJacobian(
            np.array([1.0, 0.0, 1.0, 1e-20, 1.0]), np.array([1.0, 1.0, 1.0, 1.0]), 1.0
        )
        with pytest.raises(SingularMatrix) as fast:
            structured_solve(a, np.ones(5))
        with pytest.raises(SingularMatrix) as ref:
            _reference_structured_solve(a, np.ones(5))
        assert str(fast.value) == str(ref.value)
        assert "row 3" in str(fast.value)

    def test_nan_pivot_propagates_without_raising(self):
        a = UpperTriangularPlusJacobian(np.array([1.0, np.nan, 1.0]), np.array([1.0, 1.0]), 1.0)
        x = structured_solve(a, np.ones(3))
        np.testing.assert_array_equal(x, _reference_structured_solve(a, np.ones(3)))
        assert np.isnan(x[:2]).all() and x[2] == 1.0

    def test_zero_pivot_behind_nan_row_entry_raises(self):
        # the row-relative test cannot see this pivot (0 <= NaN is false), so
        # the LAPACK singularity report is what catches it
        a = UpperTriangularPlusJacobian(np.array([1.0, 0.0, 1.0]), np.array([1.0, np.nan]), 1.0)
        with pytest.raises(SingularMatrix, match="row 1 is exactly zero"):
            structured_solve(a, np.ones(3))


class TestLstsqGamma:
    def test_orthogonal_pair(self):
        assert lstsq_gamma(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_colinear_pair(self):
        assert lstsq_gamma(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(2.0)

    def test_degenerate_raises(self):
        w = np.array([1.0, 2.0])
        with pytest.raises(DegenerateSteps):
            lstsq_gamma(w, w.copy())

    def test_grid_oracle_20dim(self):
        # brute-force 1-D scan of the objective at 1e-5 spacing
        rng = np.random.default_rng(11)
        w_next = rng.standard_normal(20)
        w_prev = rng.standard_normal(20)
        gamma = lstsq_gamma(w_next, w_prev)
        grid = gamma + np.arange(-25_000, 25_001) * 1e-5
        delta = w_next - w_prev
        vals = np.linalg.norm(w_next[None, :] - grid[:, None] * delta[None, :], axis=1)
        best = grid[np.argmin(vals)]
        assert abs(best - gamma) <= 1e-5
        obj_at_gamma = np.linalg.norm(w_next - gamma * delta)
        assert obj_at_gamma <= vals.min() + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 2**31 - 1))
    def test_optimality_property(self, dim, seed):
        rng = np.random.default_rng(seed)
        w_next = rng.standard_normal(dim)
        w_prev = rng.standard_normal(dim)
        delta = w_next - w_prev
        if np.linalg.norm(delta) <= 1e-12 * (np.linalg.norm(w_next) + np.linalg.norm(w_prev)):
            return
        gamma = lstsq_gamma(w_next, w_prev)
        obj = lambda g: np.linalg.norm(w_next - g * delta)
        base = obj(gamma)
        for g in np.linspace(gamma - 1.0, gamma + 1.0, 41):
            assert base <= obj(g) + 1e-10
