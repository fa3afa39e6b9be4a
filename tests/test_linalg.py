import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nasolve.core import SolverConfig
from nasolve.linalg import (
    EPS,
    DenseJacobian,
    SingularMatrix,
    UpperBidiagonalJacobian,
    lstsq_gamma,
)
from nasolve.problems import MultipolySpec, multipoly
from nasolve.solvers import newton_anderson_solve


def _reference_structured_solve(a, b):
    """Row-by-row back substitution, the reference for the LAPACK path."""
    b = np.asarray(b, dtype=float)
    n = a.n
    d, s = a.diag, a.superdiag
    if d[-1] == 0.0:
        raise SingularMatrix("last pivot is exactly zero")
    x = np.empty(n)
    x[-1] = b[-1] / d[-1]
    for i in range(n - 2, -1, -1):
        if abs(d[i]) <= EPS * abs(s[i]):
            raise SingularMatrix(
                f"pivot {d[i]:.3e} at row {i} negligible against row entry {s[i]:.3e}"
            )
        x[i] = (b[i] - s[i] * x[i + 1]) / d[i]
    return x


def _reference_dense_solve(a, b):
    """The pivot-tested LU through scipy's ``lu_factor``/``lu_solve`` wrappers,
    the reference for the direct LAPACK calls."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.size:
        threshold = EPS * float(max(a.max(), -a.min()))
        if pivots.min() <= threshold:
            raise SingularMatrix(f"pivot {pivots.min():.3e} below threshold {threshold:.3e}")
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def _rel_err(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


class TestLuSolve:
    def test_identity(self):
        x = DenseJacobian(np.eye(3)).solve(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0], rtol=0, atol=0)

    def test_diagonal(self):
        x = DenseJacobian(np.array([[2.0, 0.0], [0.0, 4.0]])).solve(np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_exactly_singular(self):
        with pytest.raises(SingularMatrix):
            DenseJacobian(np.array([[0.0, 0.0], [0.0, 1.0]])).solve(np.array([1.0, 1.0]))

    def test_zero_matrix(self):
        with pytest.raises(SingularMatrix):
            DenseJacobian(np.zeros((2, 2))).solve(np.ones(2))

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
            x = DenseJacobian(a).solve(b)
            assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) <= 1e-10


class TestDenseSolveAgainstScipyWrappers:
    """DenseJacobian.solve calls dgetrf/dgetrs, the routines lu_factor and
    lu_solve call, so it must agree with them bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 8, 57, 300])
    def test_random_bit_identical(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(5):
            a = rng.standard_normal((n, n))
            b = rng.standard_normal(n)
            np.testing.assert_array_equal(DenseJacobian(a).solve(b), _reference_dense_solve(a, b))

    @pytest.mark.parametrize("a", [
        np.array([[1.0, 2.0], [2.0, 4.0]]),  # exactly zero pivot: dgetrf info > 0
        np.random.default_rng(5).standard_normal((6, 3))
        @ np.random.default_rng(6).standard_normal((3, 6)),  # rank 3, rounded pivot
    ])
    def test_singular_raises_the_reference_message(self, a):
        b = np.ones(len(a))
        with pytest.raises(SingularMatrix) as fast:
            DenseJacobian(a).solve(b)
        with pytest.raises(SingularMatrix) as ref:
            _reference_dense_solve(a, b)
        assert str(fast.value) == str(ref.value)

    def test_nan_entry_propagates_without_raising(self):
        a = np.random.default_rng(9).standard_normal((4, 4))
        a[1, 2] = np.nan
        x = DenseJacobian(a).solve(np.ones(4))
        np.testing.assert_array_equal(x, _reference_dense_solve(a, np.ones(4)))
        assert np.isnan(x).any()

    def test_empty_system(self):
        x = DenseJacobian(np.empty((0, 0))).solve(np.empty(0))
        assert x.shape == (0,) and x.dtype == float
        np.testing.assert_array_equal(x, _reference_dense_solve(np.empty((0, 0)), np.empty(0)))


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
        a = UpperBidiagonalJacobian(np.array([1.0, 1.0]), np.array([0.0]))
        np.testing.assert_allclose(a.solve(np.array([1.0, 1.0])), [1.0, 1.0])

    def test_corner_zero_singular(self):
        # the chained-polynomial Jacobian at the zero root
        a = UpperBidiagonalJacobian(np.array([1.0, 1.0, 1.0, 0.0]), np.zeros(3))
        with pytest.raises(SingularMatrix, match="last pivot"):
            a.solve(np.ones(4))

    def test_zero_middle_pivot_singular(self):
        a = UpperBidiagonalJacobian(np.array([1.0, 0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(SingularMatrix):
            a.solve(np.ones(3))

    def test_matches_dense_on_random_instances(self):
        # oracle: dense LU on the densified matrix, n <= 200
        rng = np.random.default_rng(42)
        for n in (2, 3, 10, 57, 200):
            diag = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
            sup = rng.standard_normal(n - 1)
            diag[-1] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            a = UpperBidiagonalJacobian(diag, sup)
            b = rng.standard_normal(n)
            x_struct = a.solve(b)
            x_dense = DenseJacobian(a.to_dense()).solve(b)
            err = np.linalg.norm(x_struct - x_dense) / max(np.linalg.norm(x_dense), 1.0)
            assert err <= 1e-12

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(3)
        a = UpperBidiagonalJacobian(rng.standard_normal(8), rng.standard_normal(7))
        v = rng.standard_normal(8)
        np.testing.assert_allclose(a.matvec(v), a.to_dense() @ v, atol=1e-14)


def _random_band(rng, n):
    diag = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
    sup = rng.uniform(-1.0, 1.0, n - 1)
    return diag, sup


class TestBandedAgainstDense:
    """UpperBidiagonalJacobian against DenseJacobian(J.to_dense()).

    Finite instances are diagonally dominant, so neither solve pivots and
    the two agree to rounding.  Non-finite instances check matvec and max_abs
    only: an inf entry makes the dense pivot threshold eps * max|A| infinite,
    so the dense solve raises where back substitution does not, and how a NaN
    travels through LU depends on the LAPACK build.
    """

    @pytest.mark.parametrize("n", [1, 2, 57])
    def test_finite_instances(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            banded = UpperBidiagonalJacobian(*_random_band(rng, n))
            dense = DenseJacobian(banded.to_dense())
            v = rng.standard_normal(n)
            np.testing.assert_allclose(banded.matvec(v), dense.matvec(v), rtol=1e-12, atol=1e-12)
            assert _rel_err(banded.solve(v), dense.solve(v)) <= 1e-12
            assert banded.max_abs() == dense.max_abs()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("n", [1, 2, 57])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries(self, n, bad):
        rng = np.random.default_rng(200 + n)
        for _ in range(20):
            diag, sup = _random_band(rng, n)
            # a non-empty subset of: the last diagonal entry, any diagonal
            # entry, any superdiagonal entry
            slots = [(diag, n - 1), (diag, int(rng.integers(n)))]
            if n > 1:
                slots.append((sup, int(rng.integers(n - 1))))
            for j in rng.permutation(len(slots))[: rng.integers(1, len(slots) + 1)]:
                arr, i = slots[j]
                arr[i] = bad
            banded = UpperBidiagonalJacobian(diag, sup)
            dense = DenseJacobian(banded.to_dense())
            v = rng.standard_normal(n)
            # assert_allclose requires NaN and inf in the same places
            np.testing.assert_allclose(banded.matvec(v), dense.matvec(v), rtol=1e-12, atol=1e-12)
            np.testing.assert_equal(banded.max_abs(), dense.max_abs())

    def test_nan_entry_gives_nan_max_abs(self):
        # a NaN beside a larger finite entry must not be dropped
        a = UpperBidiagonalJacobian(np.array([np.nan, 1.0]), np.array([2.0]))
        assert np.isnan(a.max_abs())
        assert np.isnan(DenseJacobian(a.to_dense()).max_abs())


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
            diag[-1] = rng.uniform(1.0, 2.0) * rng.choice([-1.0, 1.0])
            a = UpperBidiagonalJacobian(diag, sup)
            b = rng.standard_normal(n)
            assert _rel_err(a.solve(b), _reference_structured_solve(a, b)) <= 1e-12

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_multipoly_jacobians_along_gamma_na_run(self, k):
        p = multipoly(MultipolySpec(n=2000, k=k))
        out = newton_anderson_solve(p, SolverConfig(r=0.7), safeguard=True, keep_history=True)
        assert out.converged
        for x in out.iterate_history:
            a, fx = p.jacobian(x), p.residual(x)
            assert _rel_err(a.solve(fx), _reference_structured_solve(a, fx)) <= 1e-12

    def test_one_by_one(self):
        a = UpperBidiagonalJacobian(np.array([-4.0]), np.array([]))
        assert a.solve(np.array([2.0]))[0] == -0.5
        assert _reference_structured_solve(a, np.array([2.0]))[0] == -0.5

    def test_tiny_pivot_alone_in_its_row_is_accepted(self):
        a = UpperBidiagonalJacobian(np.array([1.0, 1e-300, 2.0]), np.array([1.0, 0.0]))
        b = np.array([1.0, 1e-300, 1.0])
        x = a.solve(b)
        np.testing.assert_array_equal(x, _reference_structured_solve(a, b))
        np.testing.assert_array_equal(x, [0.0, 1.0, 0.5])

    def test_highest_negligible_pivot_is_named(self):
        a = UpperBidiagonalJacobian(
            np.array([1.0, 0.0, 1.0, 1e-20, 1.0]), np.array([1.0, 1.0, 1.0, 1.0])
        )
        with pytest.raises(SingularMatrix) as fast:
            a.solve(np.ones(5))
        with pytest.raises(SingularMatrix) as ref:
            _reference_structured_solve(a, np.ones(5))
        assert str(fast.value) == str(ref.value)
        assert "row 3" in str(fast.value)

    def test_nan_pivot_propagates_without_raising(self):
        a = UpperBidiagonalJacobian(np.array([1.0, np.nan, 1.0]), np.array([1.0, 1.0]))
        x = a.solve(np.ones(3))
        np.testing.assert_array_equal(x, _reference_structured_solve(a, np.ones(3)))
        assert np.isnan(x[:2]).all() and x[2] == 1.0

    def test_zero_pivot_behind_nan_row_entry_raises(self):
        # the row-relative test cannot see this pivot (0 <= NaN is false), so
        # the LAPACK singularity report is what catches it
        a = UpperBidiagonalJacobian(np.array([1.0, 0.0, 1.0]), np.array([1.0, np.nan]))
        with pytest.raises(SingularMatrix, match="row 1 is exactly zero"):
            a.solve(np.ones(3))


class TestLstsqGamma:
    def test_orthogonal_pair(self):
        assert lstsq_gamma(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_colinear_pair(self):
        assert lstsq_gamma(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(2.0)

    def test_degenerate_returns_none(self):
        w = np.array([1.0, 2.0])
        assert lstsq_gamma(w, w.copy()) is None

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
