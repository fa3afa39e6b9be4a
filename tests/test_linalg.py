import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import nasolve
from nasolve.core import SolverConfig
from nasolve.diagnostics import with_ground_truth
from nasolve.linalg import (
    BAND_BLOCK,
    EPS,
    GRAM_BLOCK,
    DenseJacobian,
    IdentityMinusLowRankJacobian,
    SingularMatrix,
    UpperBidiagonalJacobian,
    _gram_in_place,
    blas,
    damped_normal_solve,
    lapack,
    lstsq_gamma,
    norm2,
    null_direction,
)
from nasolve.problems import (
    HEquationSpec,
    MultipolySpec,
    _int_power,
    h_equation,
    multipoly,
)
from nasolve.solvers import MethodId, solve


def band_jacobian(diag, superdiag):
    """UpperBidiagonalJacobian from its two diagonals, packed into LAPACK's
    upper band.  The corner ``band[0, 0]``, outside the matrix, is NaN: no
    result may depend on it."""
    diag = np.asarray(diag, dtype=float)
    band = np.empty((2, len(diag)), order="F")
    band[0, 0] = np.nan
    band[0, 1:] = superdiag
    band[1] = diag
    return UpperBidiagonalJacobian(band)


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


def _peak_bytes(fn):
    """Peak traced allocation while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _rel_err(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


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

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (2, 2, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"must be square, got shape {shape}")):
            DenseJacobian(np.zeros(shape))

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
        np.diag([1.0, np.inf]),  # finite pivot 1 against eps * max|A| = inf
        np.diag([1.0, -np.inf]),
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

    def test_zero_pivot_behind_nan_raises(self):
        # a NaN entry makes the pivot threshold NaN, which passes the exactly
        # zero pivot at row 1; dgetrf's info > 0 is what catches it
        a = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, np.nan]])
        with pytest.raises(SingularMatrix, match="pivot at row 1 is exactly zero"):
            DenseJacobian(a).solve(np.ones(3))

    def test_pivot_threshold_memory_budget(self):
        # dgetrf's LU copy and nothing n x n besides: the threshold forms no |A|
        n = 1000
        jac = DenseJacobian(np.random.default_rng(3).standard_normal((n, n)))
        assert _peak_bytes(lambda: jac.solve(np.ones(n))) < 1.5 * n * n * 8

    def test_empty_system(self):
        x = DenseJacobian(np.empty((0, 0))).solve(np.empty(0))
        assert x.shape == (0,) and x.dtype == float
        np.testing.assert_array_equal(x, _reference_dense_solve(np.empty((0, 0)), np.empty(0)))


class TestNullDirection:
    """null_direction against numpy's SVD, whose last right singular vector
    it must give up to sign; where sigma_min stands above rounding, ||J v||
    must be sigma_min."""

    @staticmethod
    def _against_svd(jac):
        v = null_direction(jac)
        assert v.shape == (jac.n, 1)
        _, sv, vt = np.linalg.svd(jac.to_dense())
        v = v[:, 0] * np.sign(v[:, 0] @ vt[-1])
        np.testing.assert_allclose(v, vt[-1], rtol=0.0, atol=1e-12)
        return v, sv

    @pytest.mark.parametrize("n", [2, 8, 57, 300])
    def test_dense_of_rank_n_minus_1(self, n):
        rng = np.random.default_rng(700 + n)
        u, w = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        s = np.linspace(2.0, 1.0, n)
        s[-1] = 0.0
        jac = DenseJacobian((u * s) @ w.T)
        v, sv = self._against_svd(jac)
        # sigma_min is the SVD's rounding here, so ||J v|| is held to that of ||J||
        assert np.linalg.norm(jac.matvec(v)) <= 1e-13 * sv[0]

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_multipoly_at_its_root_gives_the_last_unit_vector(self, k):
        n = 300
        jac = multipoly(MultipolySpec(n=n, k=k)).jacobian(np.zeros(n))
        v, _ = self._against_svd(jac)
        np.testing.assert_array_equal(v, np.eye(n)[-1])
        assert not jac.matvec(v).any()

    @pytest.mark.parametrize("n", [120, 500])
    def test_heq_at_its_ground_truth_root(self, n):
        p = with_ground_truth(h_equation(HEquationSpec(n=n, omega=1.0)))
        jac = p.jacobian(p.known_root)
        v, sv = self._against_svd(jac)
        assert np.linalg.norm(jac.matvec(v)) == pytest.approx(sv[-1], rel=1e-6)


class TestStructuredSolve:
    def test_identity_like(self):
        a = band_jacobian(np.array([1.0, 1.0]), np.array([0.0]))
        np.testing.assert_allclose(a.solve(np.array([1.0, 1.0])), [1.0, 1.0])

    def test_corner_zero_singular(self):
        # the chained-polynomial Jacobian at the zero root
        a = band_jacobian(np.array([1.0, 1.0, 1.0, 0.0]), np.zeros(3))
        with pytest.raises(SingularMatrix, match="last pivot"):
            a.solve(np.ones(4))

    def test_zero_middle_pivot_singular(self):
        a = band_jacobian(np.array([1.0, 0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(SingularMatrix):
            a.solve(np.ones(3))

    def test_matches_dense_on_random_instances(self):
        # oracle: dense LU on the densified matrix, n <= 200
        rng = np.random.default_rng(42)
        for n in (2, 3, 10, 57, 200):
            diag = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
            sup = rng.standard_normal(n - 1)
            diag[-1] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            a = band_jacobian(diag, sup)
            b = rng.standard_normal(n)
            x_struct = a.solve(b)
            x_dense = DenseJacobian(a.to_dense()).solve(b)
            err = np.linalg.norm(x_struct - x_dense) / max(np.linalg.norm(x_dense), 1.0)
            assert err <= 1e-12

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(3)
        a = band_jacobian(rng.standard_normal(8), rng.standard_normal(7))
        v = rng.standard_normal(8)
        np.testing.assert_allclose(a.matvec(v), a.to_dense() @ v, atol=1e-14)


def _random_band(rng, n):
    diag = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
    sup = rng.uniform(-1.0, 1.0, n - 1)
    return diag, sup


SOLVE_CASES = {
    "dense-0": lambda rng: (DenseJacobian(np.empty((0, 0))), np.empty(0)),
    "dense-3": lambda rng: (DenseJacobian(rng.standard_normal((3, 3)) + 3.0 * np.eye(3)),
                            rng.standard_normal(3)),
    "banded": lambda rng: (band_jacobian(*_random_band(rng, 2 * BAND_BLOCK + 7)),
                           rng.standard_normal(2 * BAND_BLOCK + 7)),
    "low-rank": lambda rng: (h_equation(HEquationSpec(n=300, omega=1.0)).jacobian(1.0 + rng.random(300)),
                             rng.standard_normal(300)),
}


@pytest.mark.parametrize("label", SOLVE_CASES)
def test_solve_returns_a_fresh_array_and_leaves_b_untouched(label):
    # JacobianMatrix.solve's contract, on which the Newton step negates
    # J^{-1} f in place: the result shares memory with neither b nor the
    # Jacobian, so overwriting it changes no later solve, and b keeps its bits
    jac, b = SOLVE_CASES[label](np.random.default_rng(17))
    b_before = b.copy()
    held = [v for v in vars(jac).values() if isinstance(v, np.ndarray)]
    x = jac.solve(b)
    np.testing.assert_array_equal(_bits(b), _bits(b_before))
    assert x is not b and not np.shares_memory(x, b)
    assert held and not any(np.shares_memory(x, v) for v in held)
    first = x.copy()
    x[...] = np.nan
    np.testing.assert_array_equal(_bits(jac.solve(b)), _bits(first))
    np.testing.assert_array_equal(_bits(b), _bits(b_before))


class TestBandedAgainstDense:
    """UpperBidiagonalJacobian against DenseJacobian(J.to_dense()).

    Finite instances are diagonally dominant, so neither solve pivots and
    the two agree to rounding.  Non-finite instances check matvec only: an
    inf entry makes the dense pivot threshold eps * max|A| infinite,
    so the dense solve raises where back substitution does not, and how a NaN
    travels through LU depends on the LAPACK build.
    """

    @pytest.mark.parametrize("n", [1, 2, 57])
    def test_finite_instances(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            banded = band_jacobian(*_random_band(rng, n))
            dense = DenseJacobian(banded.to_dense())
            v = rng.standard_normal(n)
            np.testing.assert_allclose(banded.matvec(v), dense.matvec(v), rtol=1e-12, atol=1e-12)
            assert _rel_err(banded.solve(v), dense.solve(v)) <= 1e-12

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
            banded = band_jacobian(diag, sup)
            dense = DenseJacobian(banded.to_dense())
            v = rng.standard_normal(n)
            # assert_allclose requires NaN and inf in the same places
            np.testing.assert_allclose(banded.matvec(v), dense.matvec(v), rtol=1e-12, atol=1e-12)

    def test_to_dense_matches_two_diagonal_sum(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 57):
            banded = band_jacobian(*_random_band(rng, n))
            ref = np.diag(banded.diag) + np.diag(banded.superdiag, 1)
            np.testing.assert_array_equal(banded.to_dense().view(np.uint64), ref.view(np.uint64))

    def test_to_dense_memory_budget(self):
        # one n x n array, not a second for the superdiagonal
        n = 2000
        banded = band_jacobian(*_random_band(np.random.default_rng(8), n))
        assert _peak_bytes(banded.to_dense) < 1.5 * n * n * 8


class TestLowRankAgainstDense:
    """IdentityMinusLowRankJacobian against DenseJacobian(J.to_dense()).

    The instances are H-equation Jacobians at random points, which are well
    conditioned, so the Woodbury solve and the dense LU agree to rounding;
    n = 1 and 7 have more factor columns than rows.
    """

    @pytest.mark.parametrize("n, omega", [(1, 1.0), (7, 0.5), (300, 0.9), (300, 1.0)])
    def test_h_equation_jacobians(self, n, omega):
        p = h_equation(HEquationSpec(n=n, omega=omega))
        rng = np.random.default_rng(300 + n)
        for _ in range(5):
            jac = p.jacobian(1.0 + rng.random(n))
            assert isinstance(jac, IdentityMinusLowRankJacobian)
            dense = DenseJacobian(jac.to_dense())
            v = rng.standard_normal(n)
            np.testing.assert_allclose(jac.matvec(v), dense.matvec(v), rtol=1e-12, atol=1e-12)
            assert _rel_err(jac.solve(v), dense.solve(v)) <= 1e-12

    def test_singular_in_both_classes(self):
        # w = 1, E = e_1 and M = 1 make J = I - e_1 e_1^T, whose first column is zero
        e1 = np.zeros((3, 1))
        e1[0, 0] = 1.0
        low = IdentityMinusLowRankJacobian(np.ones(3), e1, np.ones((1, 1)))
        for jac in (low, DenseJacobian(low.to_dense())):
            with pytest.raises(SingularMatrix):
                jac.solve(np.ones(3))

    def test_factor_shapes_must_agree(self):
        for w, e, m in [(np.ones(2), np.ones((3, 2)), np.eye(2)),
                        (np.ones(3), np.ones((3, 2)), np.eye(3)),
                        (np.ones(3), np.ones(3), np.eye(1))]:
            with pytest.raises(ValueError):
                IdentityMinusLowRankJacobian(w, e, m)

    def test_negative_weight_rejected(self):
        # the Woodbury Gram matrix is formed from sqrt(w) E
        with pytest.raises(ValueError):
            IdentityMinusLowRankJacobian(np.array([1.0, -1e-300, 1.0]), np.ones((3, 2)), np.eye(2))

    def test_blocked_gram_solve_at_scale(self):
        # n = 30000 takes seven full 4096-row Gram blocks and a partial one;
        # matvec forms no Gram matrix, so the residual checks the blocks.  One
        # block is 0.14 of an n x r array of sqrt(w) o E, which the peak
        # shows was not formed
        n = 30000
        p = h_equation(HEquationSpec(n=n, omega=1.0))
        rng = np.random.default_rng(30)
        jac = p.jacobian(1.0 + rng.random(n))
        v = rng.standard_normal(n)
        x = jac.solve(v)
        assert norm2(jac.matvec(x) - v) <= 1e-12 * norm2(v)
        assert _peak_bytes(lambda: jac.solve(v)) < 0.25 * n * jac.e.shape[1] * 8


def _numpy_dense(jac):
    """J formed by numpy from the class's own arrays, not by to_dense."""
    if isinstance(jac, UpperBidiagonalJacobian):
        return np.diag(jac.diag) + np.diag(jac.superdiag, 1)
    if isinstance(jac, IdentityMinusLowRankJacobian):
        return np.eye(jac.n) - (jac.w[:, None] * (jac.e @ jac.m)) @ jac.e.T
    return jac.a


def _normal_reference(jac, f, mu):
    """(J^T f, d) by numpy's @ and np.linalg.solve: the reference for
    damped_normal_solve."""
    a = _numpy_dense(jac)
    jtf = a.T @ f
    return jtf, np.linalg.solve(a.T @ a + mu * np.eye(jac.n), -jtf)


def _ladder(f):
    """The damping ladder proj_lm passes at residual f."""
    from nasolve.solvers import MU_FLOOR, MU_SCALE

    g0 = norm2(f) ** 2
    return (max(MU_SCALE * g0, MU_FLOOR), g0, 1.0)


def _regular_case(kind):
    """(J, f) at a start point, where J is well conditioned."""
    if kind == "dense":
        rng = np.random.default_rng(60)
        return DenseJacobian(rng.standard_normal((60, 60))), rng.standard_normal(60)
    p = (multipoly(MultipolySpec(n=60, k=3)) if kind == "banded"
         else h_equation(HEquationSpec(n=60, omega=1.0)))
    return p.jacobian(p.start), p.residual(p.start)


# rank-one J with entries 1e6 (1e6 1 1^T but for the banded class, whose
# second row is zero), f = ones(2): at the first rung mu ~ 2e-8 is lost to
# the rounding of J^T J, which dposv then finds not positive definite; the
# second rung mu ~ 2 factors
RANK_ONE = {
    "dense": DenseJacobian(np.full((2, 2), 1e6)),
    "banded": band_jacobian(np.array([1e6, 0.0]), np.array([1e6])),
    "low_rank": IdentityMinusLowRankJacobian(np.ones(2), np.eye(2), np.eye(2) - np.full((2, 2), 1e6)),
}


class TestDampedNormalSolve:
    """damped_normal_solve against numpy's a.T @ f and
    np.linalg.solve(a.T @ a + mu I, -a.T @ f), on each class's Jacobian
    densified by numpy, for each outcome: the first rung factors, a later
    rung does, none does.  Only rounding may differ."""

    @pytest.mark.parametrize("kind", ["dense", "banded", "low_rank"])
    def test_first_rung(self, kind):
        jac, f = _regular_case(kind)
        mus = _ladder(f)
        jtf, d = damped_normal_solve(jac, f, mus)
        jtf_ref, d_ref = _normal_reference(jac, f, mus[0])
        np.testing.assert_allclose(jtf, jtf_ref, rtol=1e-12, atol=1e-12 * norm2(jtf_ref))
        assert _rel_err(d, d_ref) <= 1e-9

    @pytest.mark.parametrize("kind", RANK_ONE)
    def test_later_rung(self, kind):
        jac, f = RANK_ONE[kind], np.ones(2)
        mus = _ladder(f)  # test_no_rung: mus[0] alone factors at no rung
        jtf, d = damped_normal_solve(jac, f, mus)
        jtf_ref, d_ref = _normal_reference(jac, f, mus[1])
        np.testing.assert_array_equal(jtf, jtf_ref)
        # J^T J + mu I has condition number ~ 1e12, so the two solves agree to
        # about cond * eps, while d solves the damped equations to rounding
        assert _rel_err(d, d_ref) <= 1e-3
        a = _numpy_dense(jac)
        damped = a.T @ a + mus[1] * np.eye(2)
        assert norm2(damped @ d + jtf) <= 4 * EPS * np.linalg.norm(damped, 2) * norm2(d)

    @pytest.mark.parametrize("kind", RANK_ONE)
    def test_no_rung(self, kind):
        jac, f = RANK_ONE[kind], np.ones(2)
        jtf, d = damped_normal_solve(jac, f, _ladder(f)[:1])
        np.testing.assert_array_equal(jtf, _normal_reference(jac, f, 1.0)[0])
        assert d is None

    def test_each_rung_factors_normal_plus_mu_identity(self, monkeypatch):
        # the upper triangle of every matrix dposv factors, the one it reads
        # with uplo U, is _gram_in_place's J^T J plus mu * np.eye, bit for
        # bit; below the diagonal lie stale entries.  The rank-one toys take
        # two rungs, the size-2B+1 cases two column blocks
        dposv = lapack.dposv
        factored = []

        def recording_dposv(a, b, **kwargs):
            factored.append(a.copy())  # before dposv overwrites it
            return dposv(a, b, **kwargs)

        monkeypatch.setattr(lapack, "dposv", recording_dposv)
        n = 2 * GRAM_BLOCK + 1
        heq = h_equation(HEquationSpec(n=n, omega=1.0))
        cases = (
            (_regular_case("low_rank"), 1),
            ((RANK_ONE["dense"], np.ones(2)), 2),
            ((heq.jacobian(heq.start), heq.residual(heq.start)), 1),
            ((_rank_one_dense(n), np.ones(n)), 2),
        )
        for (jac, f), rungs in cases:
            mus = _ladder(f)
            factored.clear()
            assert damped_normal_solve(jac, f, mus)[1] is not None
            normal = jac.to_dense()
            _gram_in_place(normal)
            assert len(factored) == rungs
            for a, mu in zip(factored, mus):
                np.testing.assert_array_equal(np.triu(a), np.triu(normal) + mu * np.eye(jac.n))

    @pytest.mark.parametrize("kind", ["dense", "banded", "low_rank"])
    def test_to_dense_in_fortran_order_but_dense(self, kind):
        # a fresh array in the order f2py passes to dgemv, dsyrk and dposv
        # without a copy, which damped_normal_solve overwrites: it shares no
        # memory with the arrays the Jacobian holds
        jac, _ = _regular_case(kind)
        a = jac.to_dense()
        assert a.flags.f_contiguous and a.flags.writeable
        held = [v for v in vars(jac).values() if isinstance(v, np.ndarray)]
        assert held and not any(np.shares_memory(a, v) for v in held)
        np.testing.assert_allclose(a, _numpy_dense(jac), rtol=0.0, atol=1e-14)

    def test_later_rung_over_column_blocks(self):
        # a failed rung's factor lies where J was: the second rung forms J
        # again by to_dense, and the step peaks at one n x n array plus one
        # column block's two products, at most 2 n GRAM_BLOCK entries
        n = 2 * GRAM_BLOCK + 1
        jac, f = _rank_one_dense(n), np.ones(n)
        mus = _ladder(f)
        calls = []
        to_dense = jac.to_dense
        jac.to_dense = lambda: calls.append(1) or to_dense()
        tracemalloc.start()
        try:
            jtf, d = damped_normal_solve(jac, f, mus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 2
        jtf_ref, d_ref = _normal_reference(jac, f, mus[1])
        np.testing.assert_array_equal(jtf, jtf_ref)
        assert _rel_err(d, d_ref) <= 1e-3
        n2 = n * n * 8
        assert n2 <= peak < n2 + n * (2 * GRAM_BLOCK + 16) * 8


def _rank_one_dense(n):
    """RANK_ONE's banded matrix at size n, as a DenseJacobian: first row 1e6,
    the rest zero.  J^T J = 1e12 1 1^T, its Cholesky factor's first row 1e6 and
    the Schur complement 0 are exact, and the first rung's mu, below half an
    ulp of 1e12 for f = ones(n), n < 6000, is lost."""
    a = np.zeros((n, n))
    a[0] = 1e6
    return DenseJacobian(a)


# one column block up to 2 GRAM_BLOCK, two at 2 GRAM_BLOCK + 1, three at 1600
GRAM_SIZES = [1, GRAM_BLOCK - 1, GRAM_BLOCK, GRAM_BLOCK + 1, 2 * GRAM_BLOCK,
              2 * GRAM_BLOCK + 1, 1600]


def _gram_case(kind, n):
    """A Fortran-ordered n x n J: standard normal entries, or the
    H-equation's Jacobian at its start."""
    if kind == "random":
        return np.asfortranarray(np.random.default_rng(n).standard_normal((n, n)))
    p = h_equation(HEquationSpec(n=n, omega=1.0))
    return p.jacobian(p.start).to_dense()


class TestGramInPlace:
    """_gram_in_place against one dsyrk of J, on one to three column
    blocks."""

    @pytest.mark.parametrize("n", GRAM_SIZES)
    @pytest.mark.parametrize("kind", ["random", "heq"])
    def test_upper_triangle_within_rounding_of_one_dsyrk(self, n, kind):
        # an entry is the dot product of two columns a_i, a_j of J, which any
        # two summation orders give within 2 gamma_n |a_i|^T |a_j|,
        # gamma_n = n eps / (1 - n eps)
        a = _gram_case(kind, n)
        ref = blas.dsyrk(1.0, a, trans=1)
        bound = blas.dsyrk(2 * n * EPS / (1 - n * EPS), np.abs(a), trans=1)
        _gram_in_place(a)
        assert np.all(np.abs(np.triu(a) - ref) <= bound)

    def test_bit_identical_to_one_dsyrk_on_two_threads(self):
        # with blocks that start at multiples of GRAM_BLOCK, threaded dgemm
        # and dsyrk sum each entry in the same order (scipy's OpenBLAS 0.3.30,
        # on 2, 3 and 4 threads), so proj_lm's iterates keep the bits of one
        # dsyrk of J.  On one thread dgemm splits the inner dimension
        # otherwise than dsyrk, and entries differ in the last bits
        out = _fresh_python(f"""
            import numpy as np
            from nasolve.linalg import _gram_in_place, blas
            from nasolve.problems import HEquationSpec, h_equation
            for n in {GRAM_SIZES}:
                p = h_equation(HEquationSpec(n=n, omega=1.0))
                random = np.asfortranarray(np.random.default_rng(n).standard_normal((n, n)))
                for kind, a in (("random", random), ("heq", p.jacobian(p.start).to_dense())):
                    ref = blas.dsyrk(1.0, a, trans=1)
                    _gram_in_place(a)
                    print(kind, n, np.triu(a).tobytes() == ref.tobytes())
            """, OPENBLAS_NUM_THREADS="2")
        assert out.splitlines() == [f"{kind} {n} True" for n in GRAM_SIZES for kind in ("random", "heq")]

    def test_dposv_reads_no_entry_below_the_diagonal(self):
        # _gram_in_place leaves stale entries of J below the diagonal
        n = 2 * GRAM_BLOCK + 1
        rng = np.random.default_rng(7)
        a = blas.dsyrk(1.0, np.asfortranarray(rng.standard_normal((n, n))), trans=1)
        a.flat[:: n + 1] += 1e-3
        b = rng.standard_normal(n)
        stale = a.copy(order="F")
        stale[np.tril_indices(n, -1)] = np.nan
        c, x, info = lapack.dposv(a, b, overwrite_a=1)
        c_stale, x_stale, info_stale = lapack.dposv(stale, b, overwrite_a=1)
        assert info == info_stale == 0
        assert np.triu(c).tobytes() == np.triu(c_stale).tobytes()
        assert x.tobytes() == x_stale.tobytes()


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
            a = band_jacobian(diag, sup)
            b = rng.standard_normal(n)
            assert _rel_err(a.solve(b), _reference_structured_solve(a, b)) <= 1e-12

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_multipoly_jacobians_along_gamma_na_run(self, k):
        p = multipoly(MultipolySpec(n=2000, k=k))
        out = solve(p, MethodId.gamma_n_anderson, SolverConfig(r=0.7), keep_history=True)
        assert out.converged
        for x in out.iterate_history:
            a, fx = p.jacobian(x), p.residual(x)
            assert _rel_err(a.solve(fx), _reference_structured_solve(a, fx)) <= 1e-12

    def test_one_by_one(self):
        a = band_jacobian(np.array([-4.0]), np.array([]))
        assert a.solve(np.array([2.0]))[0] == -0.5
        assert _reference_structured_solve(a, np.array([2.0]))[0] == -0.5

    def test_tiny_pivot_alone_in_its_row_is_accepted(self):
        a = band_jacobian(np.array([1.0, 1e-300, 2.0]), np.array([1.0, 0.0]))
        b = np.array([1.0, 1e-300, 1.0])
        x = a.solve(b)
        np.testing.assert_array_equal(x, _reference_structured_solve(a, b))
        np.testing.assert_array_equal(x, [0.0, 1.0, 0.5])

    def test_highest_negligible_pivot_is_named(self):
        a = band_jacobian(
            np.array([1.0, 0.0, 1.0, 1e-20, 1.0]), np.array([1.0, 1.0, 1.0, 1.0])
        )
        with pytest.raises(SingularMatrix) as fast:
            a.solve(np.ones(5))
        with pytest.raises(SingularMatrix) as ref:
            _reference_structured_solve(a, np.ones(5))
        assert str(fast.value) == str(ref.value)
        assert "row 3" in str(fast.value)

    def test_nan_pivot_propagates_without_raising(self):
        a = band_jacobian(np.array([1.0, np.nan, 1.0]), np.array([1.0, 1.0]))
        x = a.solve(np.ones(3))
        np.testing.assert_array_equal(x, _reference_structured_solve(a, np.ones(3)))
        assert np.isnan(x[:2]).all() and x[2] == 1.0

    def test_zero_pivot_behind_nan_row_entry_raises(self):
        # the row-relative test cannot see this pivot (0 <= NaN is false), so
        # the LAPACK singularity report is what catches it
        a = band_jacobian(np.array([1.0, 0.0, 1.0]), np.array([1.0, np.nan]))
        with pytest.raises(SingularMatrix, match="row 1 is exactly zero"):
            a.solve(np.ones(3))

    def test_lowest_of_two_hidden_zero_pivots_is_named(self):
        # dtbtrs's report, info = row + 1, names the lowest exactly zero
        # pivot; the pivot test that runs before dtbsv names the same row
        a = band_jacobian(np.array([1.0, 0.0, 1.0, 0.0, 1.0]),
                          np.array([1.0, np.nan, 1.0, np.nan]))
        assert lapack.dtbtrs(a.band, np.ones(5))[1] == 2
        with pytest.raises(SingularMatrix, match="row 1 is exactly zero"):
            a.solve(np.ones(5))

    def test_negligible_pivot_named_before_a_hidden_zero(self):
        a = band_jacobian(np.array([1.0, 0.0, 1.0, 1e-20, 1.0]),
                          np.array([1.0, np.nan, 1.0, 1.0]))
        assert "at row 3 " in _expect_same_outcome(a, np.ones(5))


class TestMultipolyBand:
    """multipoly's Jacobian written straight into LAPACK's band layout, and
    its residual written block by block, against the whole-row formulas
    they replaced, bit for bit."""

    @staticmethod
    def _point(n):
        # negative entries, exact zeros of both signs, over more than one block
        x = np.random.default_rng(n).uniform(-1.5, 1.0, n)
        x[::7] = 0.0
        x[3::11] = -0.0
        x[-1] = -0.0
        return x

    @pytest.mark.parametrize("k", [2, 3, 7])
    @pytest.mark.parametrize("n", [2, BAND_BLOCK, BAND_BLOCK + 1, 2 * BAND_BLOCK + 7])
    def test_jacobian_equals_two_array_formula(self, k, n):
        x = self._point(n)
        diag = 2.0 * x
        diag += 1.0
        superdiag = _int_power(x, k - 1)
        superdiag *= -k
        diag[-1] = -superdiag[-1]
        jac = multipoly(MultipolySpec(n=n, k=k)).jacobian(x)
        np.testing.assert_array_equal(_bits(jac.diag), _bits(diag))
        np.testing.assert_array_equal(_bits(jac.superdiag), _bits(superdiag[1:]))
        assert jac.band.shape == (2, n) and jac.band.flags.f_contiguous
        assert np.shares_memory(jac.diag, jac.band) and np.shares_memory(jac.superdiag, jac.band)

    @pytest.mark.parametrize("k", [2, 3, 7])
    @pytest.mark.parametrize("n", [2, BAND_BLOCK, BAND_BLOCK + 1, 2 * BAND_BLOCK + 7])
    def test_residual_equals_whole_row_formula(self, k, n):
        x = self._point(n)
        xk = _int_power(x, k)
        f = np.square(x)
        f += x
        f[:-1] -= xk[1:]
        f[-1] = xk[-1]
        np.testing.assert_array_equal(_bits(multipoly(MultipolySpec(n=n, k=k)).residual(x)), _bits(f))

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_solve_is_dtbtrs_on_a_separately_packed_band(self, k):
        n = 2 * BAND_BLOCK + 7
        x = self._point(n)
        x[x == 0.0] = 0.25  # keep every pivot 2x + 1 and k x_n^(k-1) away from zero
        x[x < -0.4] = -0.4
        jac = multipoly(MultipolySpec(n=n, k=k)).jacobian(x)
        ab = np.zeros((2, n), order="F")
        ab[0, 1:] = jac.superdiag
        ab[1] = jac.diag
        b = np.random.default_rng(k).standard_normal(n)
        ref, info = lapack.dtbtrs(ab, b, uplo="U", trans="N", diag="N")
        assert info == 0
        np.testing.assert_array_equal(_bits(jac.solve(b)), _bits(ref))

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_jacobian_and_solve_memory_budget(self, k):
        # the band (2 n) and the solution (n); repacking the band for each
        # solve and an n-length pivot test made it 5 n.  The residual holds
        # the one n-vector it returns; whole-row powers made it 2 n
        n = 10**6
        p = multipoly(MultipolySpec(n=n, k=k))
        x = np.random.default_rng(k).uniform(-0.4, 1.0, n)
        b = np.ones(n)
        assert _peak_bytes(lambda: p.jacobian(x).solve(b)) < 4 * n * 8
        assert _peak_bytes(lambda: p.residual(x)) < 1.5 * n * 8


def _expect_same_outcome(a, b):
    """a.solve(b) raises the reference's SingularMatrix message, or solves as it does."""
    try:
        ref = _reference_structured_solve(a, b)
    except SingularMatrix as exc:
        with pytest.raises(SingularMatrix) as fast:
            a.solve(b)
        assert str(fast.value) == str(exc)
        return str(exc)
    assert _rel_err(a.solve(b), ref) <= 1e-12
    return None


B = BAND_BLOCK  # rows per block of the pivot test


class TestPivotBlocks:
    """The blocked pivot test at and across block edges: the same decision,
    rule and named row as the row-by-row reference loop."""

    SIZES = [1, 2, B - 1, B, B + 1, 3 * B + 5]

    @pytest.mark.parametrize("n", SIZES)
    def test_regular_band_solves(self, n):
        rng = np.random.default_rng(n)
        diag, sup = _random_band(rng, n)
        assert _expect_same_outcome(band_jacobian(diag, sup), rng.standard_normal(n)) is None

    # rows 0, B - 1, B and n - 2 wherever they lie above the last row
    @pytest.mark.parametrize("n, row", [(n, row) for n in SIZES
                                        for row in sorted({0, B - 1, B, n - 2}) if 0 <= row <= n - 2])
    def test_one_negligible_pivot_is_named(self, n, row):
        diag, sup = np.full(n, 2.0), np.full(n - 1, 1.0)
        diag[row] = -1e-20
        message = _expect_same_outcome(band_jacobian(diag, sup), np.ones(n))
        assert f"at row {row} " in message

    @pytest.mark.parametrize("n", [B + 1, 3 * B + 5])
    def test_highest_of_several_is_named(self, n):
        rows = sorted({0, B - 1, B, n - 2, B // 2} & set(range(n - 1)))
        for top in range(1, len(rows) + 1):
            diag, sup = np.full(n, 2.0), np.full(n - 1, -1.0)
            diag[rows[:top]] = 0.0
            message = _expect_same_outcome(band_jacobian(diag, sup), np.ones(n))
            assert f"at row {rows[top - 1]} " in message

    @pytest.mark.parametrize("row", [B - 1, B])
    def test_rule_is_pivot_at_most_eps_times_row_entry(self, row):
        n = B + 2
        diag, sup = np.full(n, 2.0), np.full(n - 1, 1.0)
        sup[row] = -4.0
        diag[row] = 4.0 * EPS  # equal to EPS |s|: negligible
        assert f"at row {row} " in _expect_same_outcome(band_jacobian(diag, sup), np.ones(n))
        diag[row] = np.nextafter(4.0 * EPS, 1.0)  # one ulp above: accepted
        assert _expect_same_outcome(band_jacobian(diag, sup), np.ones(n)) is None

    @pytest.mark.parametrize("row", [B - 1, B])
    def test_nan_pivot_propagates_across_blocks(self, row):
        n = 2 * B + 3
        diag, sup = np.full(n, 2.0), np.full(n - 1, 1.0)
        diag[row] = np.nan
        a = band_jacobian(diag, sup)
        x = a.solve(np.ones(n))
        np.testing.assert_array_equal(x, _reference_structured_solve(a, np.ones(n)))
        assert np.isnan(x[: row + 1]).all() and np.isfinite(x[row + 1:]).all()

    @pytest.mark.parametrize("row", [B - 1, B])
    def test_zero_pivot_behind_nan_row_entry_raises_across_blocks(self, row):
        n = 2 * B + 3
        diag, sup = np.full(n, 2.0), np.full(n - 1, 1.0)
        diag[row], sup[row] = 0.0, np.nan
        with pytest.raises(SingularMatrix, match=f"row {row} is exactly zero"):
            band_jacobian(diag, sup).solve(np.ones(n))

    def test_lowest_hidden_zero_pivot_named_across_blocks(self):
        n = 2 * B + 3
        diag, sup = np.full(n, 2.0), np.full(n - 1, 1.0)
        for row in (B - 1, 2 * B + 1):
            diag[row], sup[row] = 0.0, np.nan
        with pytest.raises(SingularMatrix, match=f"row {B - 1} is exactly zero"):
            band_jacobian(diag, sup).solve(np.ones(n))

    @pytest.mark.parametrize("shape", [(2, 0), (1, 5), (3, 5), (5,), (2, 3, 1)])
    def test_band_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="band"):
            UpperBidiagonalJacobian(np.ones(shape))


class TestLstsqGamma:
    def test_orthogonal_pair(self):
        assert lstsq_gamma(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_colinear_pair(self):
        assert lstsq_gamma(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(2.0)

    def test_degenerate_returns_none(self):
        w = np.array([1.0, 2.0])
        assert lstsq_gamma(w, w.copy()) is None

    @pytest.mark.parametrize("n", [1, 8, BAND_BLOCK + 3])
    def test_difference_and_norms_passed_keep_the_bits(self, n):
        # what the Newton-Anderson step passes: d = w - w_prev and both norms
        rng = np.random.default_rng(n)
        w, wp = (rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n) for _ in range(2))
        d = w - wp
        ref = float(d @ w) / (norm2(d) * norm2(d))
        assert lstsq_gamma(w, wp).hex() == ref.hex()
        assert lstsq_gamma(w, wp, d, norm2(w), norm2(wp)).hex() == ref.hex()
        assert lstsq_gamma(w, w.copy(), np.zeros(n), norm2(w), norm2(w)) is None

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


def _norm_vectors():
    """(label, vector) pairs: random, subnormal, overflowing (1e200: the dot is
    inf), +-inf and NaN entries at lengths 0, 1, 2, 8 and 10^5."""
    rng = np.random.default_rng(23)
    yield "empty", np.empty(0)
    for n in (1, 2, 8, 10**5):
        v = rng.standard_normal(n)
        yield f"random-{n}", v
        yield f"subnormal-{n}", v * 1e-310
        yield f"huge-{n}", v * 1e200
        yield f"mixed-{n}", v * 10.0 ** rng.uniform(-300.0, 300.0, n)
        for bad in (np.inf, -np.inf, np.nan):
            w = v.copy()
            w[rng.integers(n)] = bad
            yield f"{bad}-{n}", w
        if n > 1:
            w = v.copy()
            w[:2] = np.inf, -np.inf
            yield f"+-inf-{n}", w


NORM_VECTORS = dict(_norm_vectors())


@pytest.mark.parametrize("label", NORM_VECTORS)
def test_norm2_bit_identical_to_numpy_norm(label):
    # the fast path's reference: np.linalg.norm, to the last bit and with the
    # same warnings (the dot's overflow warning on the 1e200 vectors)
    def run(norm):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = norm(NORM_VECTORS[label])
        return value, [(w.category, str(w.message)) for w in caught]

    got, got_warnings = run(norm2)
    want, want_warnings = run(np.linalg.norm)
    assert type(got) is float
    assert got.hex() == float(want).hex()
    assert got_warnings == want_warnings


def _fresh_env(**environ: str) -> dict:
    """The environment of a new interpreter that imports this nasolve, with
    the environment variables ``environ`` added."""
    src = str(Path(nasolve.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src, **environ)


def _fresh_python(code: str, **environ: str) -> str:
    """Run code in a new interpreter under ``_fresh_env(**environ)``; its stdout."""
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=_fresh_env(**environ),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_solving_never_imports_the_scipy_linalg_package():
    # scipy.linalg's __init__ pulls in numpy.f2py and numpy.testing, most of
    # the import time nasolve used to have; every method and the diagnostics
    # must run on the two extension modules alone
    out = _fresh_python("""
        import sys
        from nasolve import (HEquationSpec, MethodId, MultipolySpec, diagnose_run,
                             h_equation, multipoly, registry_entry, solve,
                             with_ground_truth)
        problems = [registry_entry("Himmelbau"), h_equation(HEquationSpec(n=50, omega=1.0)),
                    multipoly(MultipolySpec(n=50, k=3))]
        for p in problems:
            for method in MethodId:
                solve(p, method)
        heq = with_ground_truth(problems[1])
        diagnose_run(heq, solve(heq, MethodId.gamma_n_anderson))
        print(sorted(name for name in ("scipy.linalg", "numpy.f2py", "numpy.testing")
                     if name in sys.modules))
    """)
    assert out.strip() == "[]"


BLAS_ROUTINES = ("dgemm", "dgemv", "dsyrk", "dtbsv")
LAPACK_ROUTINES = ("dgetrf", "dgetrs", "dtbtrs", "dposv", "dsyevr")


@pytest.mark.parametrize("first", ["scipy.linalg", "nasolve"])
def test_handles_are_scipys_own_routines(first):
    # the loaded extension modules are the ones scipy.linalg binds, in either
    # import order, so no extension module is initialised twice
    out = _fresh_python(f"""
        import {first}
        import scipy.linalg
        from nasolve.linalg import blas, lapack
        for name in {BLAS_ROUTINES!r}:
            print(name, getattr(scipy.linalg.blas, name) is getattr(blas, name))
        for name in {LAPACK_ROUTINES!r}:
            print(name, getattr(scipy.linalg.lapack, name) is getattr(lapack, name))
    """)
    assert out.split() == [w for name in BLAS_ROUTINES + LAPACK_ROUTINES for w in (name, "True")]
