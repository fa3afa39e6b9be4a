import hashlib
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from nasolve.core import NonlinearProblem, SolverConfig, validate_problem
from nasolve.diagnostics import with_ground_truth
from nasolve.linalg import EPS, DenseJacobian, UpperBidiagonalJacobian
from nasolve.problems import (
    REGISTRY_NAMES,
    HEquationSpec,
    MultipolySpec,
    ProblemUnavailable,
    _int_power,
    _kernel_factors,
    fd_jacobian_check,
    h_equation,
    multipoly,
    registry_entry,
)
from nasolve.solvers import MethodId, solve


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


def _worst_sampled_kernel_error(n):
    """Largest relative error of diag(mu) E M E^T over 10^5 random kernel
    entries at n.

    The dense check at n = 10^4 would form 800 MB arrays, so the entries are
    formed in chunks: 2 x 10^4 gathered rows of r ~ 80 doubles (13 MB) at a
    time.
    """
    samples, chunk = 100_000, 10_000
    e, m = _kernel_factors(n)
    mu = (np.arange(1, n + 1) - 0.5) / n
    i, j = np.random.default_rng(n).integers(0, n, size=(2, samples))
    worst = 0.0
    for lo in range(0, samples, chunk):
        rows, cols = i[lo:lo + chunk], j[lo:lo + chunk]
        entries = np.einsum("sq,sq->s", mu[rows, None] * (e[rows] @ m), e[cols])
        kernel = mu[rows] / (mu[rows] + mu[cols])
        worst = max(worst, float(np.max(np.abs(entries - kernel) / kernel)))
    return worst


class TestHEquation:
    def test_omega_zero_is_affine_shift(self):
        from dataclasses import replace

        p = h_equation(HEquationSpec(n=40, omega=0.0))
        x = np.linspace(0.5, 2.0, 40)
        np.testing.assert_allclose(p.residual(x), x - 1.0, atol=1e-15)
        # the recommended start is already the root; one Newton step from
        # anywhere else lands exactly on it
        assert solve(p, MethodId.newton, SolverConfig()).iterations == 0
        shifted = replace(p, start=np.full(40, 3.0))
        out = solve(shifted, MethodId.newton, SolverConfig())
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

    def test_ground_truth_basis_holds_no_n_by_n_array(self):
        # the basis owns its column: no n x n factor stays alive behind it
        n = 120
        b = with_ground_truth(h_equation(HEquationSpec(n=n, omega=1.0))).null_basis
        shapes = []
        while isinstance(b, np.ndarray):
            shapes.append(b.shape)
            b = b.base
        assert shapes and (n, n) not in shapes

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

    @pytest.mark.parametrize("n", [1, 2, 7, 500, 2000, 3000])
    def test_kernel_factors_match_dense_kernel(self, n):
        # a kernel error of 5.6e-9 (step h = 0.45) already loses the omega = 1
        # counts, so the factored kernel is held to a few ulps entrywise
        e, m = _kernel_factors(n)
        mu = (np.arange(1, n + 1) - 0.5) / n
        kernel = mu[:, None] / (mu[:, None] + mu[None, :])
        assert np.max(np.abs((mu[:, None] * (e @ m)) @ e.T - kernel) / kernel) <= 2e-15

    @pytest.mark.parametrize("n, rank", [(500, 63), (2000, 68), (10_000, 75)])
    def test_kernel_factor_rank(self, n, rank):
        # 14 Taylor columns stand in for the 141 trapezoid nodes t_q <= 0.2;
        # a return to the full exponential sum (r = 190 / 195 / 202) fails here
        e, m = _kernel_factors(n)
        assert e.shape == (n, rank)
        assert m.shape == (rank, rank)

    def test_kernel_factors_match_sampled_kernel_entries_at_ten_thousand(self):
        assert _worst_sampled_kernel_error(10_000) <= 2e-15

    def test_kernel_factors_match_sampled_kernel_entries_at_hundred_thousand(self):
        # the factor E takes 10^5 x 84 doubles, 67 MB
        assert _worst_sampled_kernel_error(100_000) <= 2e-15

    def test_problem_holds_one_kernel_factor(self):
        # mu, E (n x r) and M (r x r); a second n x r factor beside E, as
        # the problem held before, would retain 2 n r doubles
        import tracemalloc

        n = 2000
        tracemalloc.start()
        try:
            p = h_equation(HEquationSpec(n=n))
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        r = _kernel_factors(n)[0].shape[1]
        assert p.dim == n and retained < 1.5 * n * r * 8

    @pytest.mark.parametrize("n", [1000, 2500])
    def test_newton_step_memory_budget(self, n):
        # the kernel factors are built before tracing starts; one Jacobian
        # build plus Woodbury solve allocates n x r and r x r arrays (r about
        # 70), which stay below half of one n x n array
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
        assert peak < 0.5 * n * n * 8

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            HEquationSpec(n=0)
        with pytest.raises(ValueError):
            HEquationSpec(n=10, omega=1.5)

    @pytest.mark.parametrize("n", [2.5, 10.0, "10"])
    def test_non_integral_size_rejected(self, n):
        with pytest.raises(ValueError, match="need an integer n"):
            HEquationSpec(n=n)
        assert HEquationSpec(n=np.int64(10)).n == 10


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

    @pytest.mark.parametrize("k", [2, 3, 7])
    def test_mixed_sign_point_matches_exact_arithmetic(self, k):
        # negatives >= -0.5 and the signs arranged so that no residual entry
        # cancels, so each entry is within 1 ulp of the exact value, relative
        x = np.array([0.3, -0.45, 0.7, -0.2, -0.25, 0.45, -0.6])
        p = multipoly(MultipolySpec(n=7, k=k))
        q = [Fraction(v) for v in x]
        f_exact = [q[i] ** 2 + q[i] - q[i + 1] ** k for i in range(6)] + [q[6] ** k]
        j_exact = [[Fraction(0)] * 7 for _ in range(7)]
        for i in range(6):
            j_exact[i][i] = 2 * q[i] + 1
            j_exact[i][i + 1] = -k * q[i + 1] ** (k - 1)
        j_exact[6][6] = k * q[6] ** (k - 1)

        def within_ulp(got, exact):
            return abs(Fraction(float(got)) - exact) <= Fraction(EPS) * abs(exact)

        f = p.residual(x)
        assert all(within_ulp(a, b) for a, b in zip(f, f_exact)), f
        jm = p.jacobian(x).to_dense()
        for i in range(7):
            for j in range(7):
                assert within_ulp(jm[i, j], j_exact[i][j]), (i, j, jm[i, j])
        assert fd_jacobian_check(p, x) <= 1e-6

    def test_start_and_ground_truth(self):
        p = multipoly(MultipolySpec(n=10, k=5))
        assert p.start[-1] == 0.9 and np.all(p.start[:-1] == 0.3)
        assert validate_problem(p) == []

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            MultipolySpec(n=1, k=2)
        with pytest.raises(ValueError):
            MultipolySpec(n=5, k=1)

    # k = 2.5 would build multipoly_k2.5_n50, which is not the documented polynomial
    @pytest.mark.parametrize("kwargs", [{"n": 50, "k": 2.5}, {"n": 50.0, "k": 3}, {"n": 50, "k": "3"}])
    def test_non_integral_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError, match="need an integer"):
            MultipolySpec(**kwargs)
        assert MultipolySpec(n=np.int32(50), k=np.int64(3)).k == 3


def _power_inputs():
    """Mixed-sign doubles: signed zeros, infinities, NaN, subnormals, values on
    both sides of the overflow and underflow thresholds of x**7, and bulk."""
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308,
               -2.2e-308, 1.0, -1.0, 0.5, -0.5, 1.7976931348623157e308,
               -1.7976931348623157e308, np.nextafter(1.0, 2.0), np.nextafter(-1.0, 0.0)]
    rng = np.random.default_rng(13)
    mags = 10.0 ** rng.uniform(-323.0, 308.0, 4000)
    bulk = rng.uniform(-2.0, 2.0, 4000)
    x = np.concatenate([special, mags, bulk])
    return x * np.where(rng.random(len(x)) < 0.5, -1.0, 1.0)


@pytest.mark.parametrize("e", [1, 2, 3, 6, 7])
def test_int_power_matches_pow_within_one_ulp(e):
    x = _power_inputs()
    with np.errstate(over="ignore", under="ignore"):
        want = x ** e
        got = _int_power(x, e)
    assert not np.shares_memory(got, x)
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    got, want = got[~nan], want[~nan]
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    # finite doubles of one sign are ordered like their bit patterns
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))
    assert ulps[np.isfinite(want)].max() <= 1
    if e <= 2:
        np.testing.assert_array_equal(got, want)


def _pow_reference(x, e):
    """|x|^e by numpy's pow, with the sign of x for odd e."""
    y = np.power(np.abs(x), e)
    return np.copysign(y, x) if e % 2 else y


@pytest.mark.parametrize("e", [3, 6, 7])
def test_int_power_bit_for_bit_where_pow_flushes_to_zero(e):
    # _int_power sets |x| < 2^(-1076/e) to zero without calling pow; pow gives
    # those entries +0 too (-0 after the sign for odd e), while just below
    # 2^(-1075/e) it still gives the least subnormal for e = 3 and 6
    def around(b):  # ten doubles on each side of b, and b
        below, above = [b], [b]
        for _ in range(10):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], 1.0))
        return below[::-1] + above[1:]

    flush, first = 2.0 ** (-1076.0 / e), 2.0 ** (-1075.0 / e)
    tiny = np.concatenate([
        around(flush), around(first),
        np.linspace(flush / 4, 2.0 ** (-1074.0 / e), 100_001),
        np.zeros(1000), [-0.0, 5e-324, 1.0, 3.0],
    ])
    x = np.concatenate([tiny, -tiny, np.zeros(1000)])
    with np.errstate(under="ignore"):
        got = _int_power(x, e)
        want = _pow_reference(x, e)
        # a block with no entry below the bound skips the mask
        clear = x[np.abs(x) >= flush]
        out = np.empty_like(clear)
        assert _int_power(clear, e, out=out) is out
        np.testing.assert_array_equal(out.view(np.int64), _pow_reference(clear, e).view(np.int64))
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestFdJacobianCheck:
    def test_exact_on_linear_map(self):
        from nasolve.core import NonlinearProblem
        from nasolve.linalg import DenseJacobian

        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        p = NonlinearProblem(
            name="lin", residual=lambda x: a @ x,
            jacobian=lambda x: DenseJacobian(a), start=np.zeros(6),
        )
        assert fd_jacobian_check(p, rng.standard_normal(6)) <= 1e-10


# the transcribed registry entries, which REGISTRY_NAMES lists first
TRANSCRIBED = REGISTRY_NAMES[:6]


class TestRegistry:
    def test_names_cover_both_tables(self):
        assert len(REGISTRY_NAMES) == 14
        assert "Himmelbau" in REGISTRY_NAMES and "Dayton10" in REGISTRY_NAMES

    def test_transcribed_entries_validate_and_match_fd(self):
        rng = np.random.default_rng(17)
        for p in map(registry_entry, TRANSCRIBED):
            assert validate_problem(p) == []
            assert fd_jacobian_check(p, p.start) <= 1e-6
            lo, hi = p.bounds
            interior = lo + rng.uniform(0.25, 0.75, p.dim) * (hi - lo)
            assert fd_jacobian_check(p, interior) <= 1e-6

    def test_starts_are_lower_bounds(self):
        for p in map(registry_entry, TRANSCRIBED):
            np.testing.assert_array_equal(p.start, p.bounds[0])

    def test_dimensions_within_paper_range(self):
        assert max(registry_entry(name).dim for name in TRANSCRIBED) == 8

    def test_entries_carry_their_registry_name(self):
        for name in TRANSCRIBED:
            assert registry_entry(name).name == name

    def test_untranscribed_entries_raise(self):
        for name in REGISTRY_NAMES[len(TRANSCRIBED):]:
            with pytest.raises(ProblemUnavailable):
                registry_entry(name)

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError):
            registry_entry("NotAProblem")

    def test_bullard_biegler_root_in_box(self):
        p = registry_entry("Bullard-Biegler")
        out = solve(p, MethodId.gamma_n_anderson, replace(SolverConfig(), r=0.5))
        assert out.converged
        lo, hi = p.bounds
        assert np.all(out.x >= lo - 1e-9) and np.all(out.x <= hi + 1e-9)


def _registry_points(p, rng):
    """200 seeded points of p's box, then one with entries +-1e200."""
    lo, hi = p.bounds
    points = [lo + rng.random(p.dim) * (hi - lo) for _ in range(200)]
    return points + [np.where(rng.random(p.dim) < 0.5, -1e200, 1e200)]


def _numpy_scalars(x, scalar=np.float64):
    """x as an object array of ``scalar`` elements, which its ``tolist()``
    returns as they are (``x.astype(object)`` would hold Python floats)."""
    out = np.empty(len(x), dtype=object)
    out[:] = [scalar(v) for v in x]
    assert all(type(v) is scalar for v in out.tolist())
    return out


class _Factor(np.float64):
    """An np.float64 that carries the entries of x multiplied into it; a
    product in which one entry meets itself, x * x or c * x * x, raises."""

    def __new__(cls, value, entries=None):
        out = super().__new__(cls, value)
        out.entries = frozenset({id(out)}) if entries is None else entries
        return out

    def __mul__(self, other):
        seen = getattr(other, "entries", frozenset())
        if self.entries & seen:
            raise AssertionError("a square by multiplication, not the scalar's power")
        return _Factor(float(self) * float(other), self.entries | seen)

    __rmul__ = __mul__


class TestRegistryFormulas:
    """The registry formulas run on Python floats; their reference is the same
    formulas on np.float64 scalars, the arithmetic they ran before, and at
    1e200 neither may raise (Python's float ``**`` would)."""

    @pytest.mark.parametrize("name", TRANSCRIBED)
    def test_python_floats_match_numpy_scalars(self, name):
        p = registry_entry(name)
        for x in _registry_points(p, np.random.default_rng(41)):
            with np.errstate(all="ignore"):
                f, jm = p.residual(x), p.jacobian(x).to_dense()
                f_ref = p.residual(_numpy_scalars(x))
                jm_ref = p.jacobian(_numpy_scalars(x)).to_dense()
            assert f.dtype == f_ref.dtype == jm.dtype == jm_ref.dtype == np.float64
            assert f.tobytes() == f_ref.tobytes(), x
            assert jm.tobytes() == jm_ref.tobytes(), x

    @pytest.mark.parametrize("name", TRANSCRIBED)
    def test_no_square_by_multiplication(self, name):
        # x * x is not pow's square to the ulp, and the reference above runs
        # the same formula, so it cannot see one; a _Factor entry can
        p = registry_entry(name)
        for x in _registry_points(p, np.random.default_rng(42))[:3]:
            with np.errstate(all="ignore"):
                p.residual(_numpy_scalars(x, _Factor))
                p.jacobian(_numpy_scalars(x, _Factor))

    @pytest.mark.parametrize("name", TRANSCRIBED)
    def test_overflowing_start_ends_nonfinite(self, name):
        p = registry_entry(name)
        with np.errstate(all="ignore"):
            out = solve(replace(p, start=np.full(p.dim, 1e200)), MethodId.newton)
        assert out.status == "nonfinite"

    def test_brown_products_match_numpy_reduction(self):
        # the residual and the last Jacobian row against the vectorised
        # formulas they replace: np.sum, np.prod and np.prod(np.delete(x, j))
        p = registry_entry("Brown's Al. Lin.")
        rng = np.random.default_rng(43)
        points = _registry_points(p, rng) + [rng.standard_normal(5) * 10.0 ** rng.uniform(-3, 3, 5)
                                             for _ in range(200)]
        for x in points:
            with np.errstate(all="ignore"):
                want = np.empty(5)
                want[:-1] = x[:-1] + float(np.sum(x)) - 6.0
                want[-1] = float(np.prod(x)) - 1.0
                row = [np.prod(np.delete(x, j)) for j in range(5)]
                f, jm = p.residual(x), p.jacobian(x).to_dense()
            assert f.tobytes() == want.tobytes(), x
            assert jm[-1].tobytes() == np.array(row).tobytes(), x


# sha256 of residual(x).tobytes() and of jacobian(x).to_dense().tobytes(), at
# p.start and at the box midpoint (lo + hi) / 2: a change of evaluation order
# or of the array conversion that moves one bit of one entry fails here
REGISTRY_PINS = {
    "Himmelbau": (
        ("b3b305a70557cfc44b47282c7604c3c48b8060ebacdff783635a0b6079c1939d",
         "f2700e566af76a1bc0b276e46db9c9277b4a102245e4faca466e7466199f4147"),
        ("47a10d2c0ef069403e6fac8a2488ebec2c7f05683ce4affde4d3b3440d09d267",
         "ff4713680eff2ab2e1fcaf922803722836693e88efc54ccd99150867443a271d"),
    ),
    "Eq-Combustion": (
        ("90ac93227854a86d26007344df72bda8c129ddd67c15d960221bff6d850ef120",
         "df0da5976f47dafd0658aec9d13893040f6847716f5493e8d29a0f8454b32c1b"),
        ("bf42c0a78a7d14431a914ffdc306ead517199cec41e677774b77237892e9abe6",
         "532495b0cf3aac0f6d7611049db64fc86aad988f346b63f02e5e70a572360803"),
    ),
    "Bullard-Biegler": (
        ("c6721a3dfb563d51d6f018c02bc54076faf9811c715d485a4c262eb2b7def381",
         "b53b3c1dc40197db215cb369d5408dcd104180eed7a924c3736191fda26a923a"),
        ("3985496856d40e59207a30202c03e30b26b05586b6756c1b3e342bb36fc02e7a",
         "d3d3855f674dc6ef635f471eec06e01aa0a98e63abad2b46201b0e255e686c4c"),
    ),
    "Ferraris-Tronconi": (
        ("f5454f2dcea3670ce89da238eb9c42abea2a03b9b74af8853335dbdfefff066b",
         "e326cd64b65aaa818cc9b25f349a6d6698f3786f5bd34c391c2d2ef6196b6008"),
        ("764c2aaf02f939f2121f2500a19a7cc43196aa48311ac7e9de12b2c5834e69bd",
         "d74b2b4b3aae5473f89a32deb9cffa8fa17ee91d3a7a2847b075ab6c5a694e67"),
    ),
    "Brown's Al. Lin.": (
        ("b68263c5792ed44cb7561ed806dcb234b589b4c75d116d300444e0b3ebc25a88",
         "a2ac51547c5d1678bf6dc8e5d463eb5ab907a6b1efa6dc3ed7788875e008c945"),
        ("297f20ba737f1c52e1306780aae052c14cecfc3e652ae165c6a9c8ee53041e2e",
         "cfa37b7334b29d462aeb56cecff24de609360b491da97d4ae225b8b45f5f33e6"),
    ),
    "Robot Kin. Sys.": (
        ("52f14b0d271bccc3f0bb606705e549e2ece65e5cd6f70bbad23490ca8ce49568",
         "ac46825e70a82abd085d90f0461b13825499a1da95fc29c449f313e111ef0024"),
        ("16b846a0bd4f90af86ef045c6f183c38720fc91552d23a2d6b03e1498404ff80",
         "aacb8249ca98f667ce57f7dbf37d0685bc30f70795f9de4aebdf8605cff1afa8"),
    ),
}


def test_registry_pins_cover_every_transcribed_problem():
    assert tuple(REGISTRY_PINS) == TRANSCRIBED


@pytest.mark.parametrize("name", list(REGISTRY_PINS))
def test_registry_formulas_keep_their_bits(name):
    p = registry_entry(name)
    lo, hi = p.bounds
    got = tuple(
        (hashlib.sha256(p.residual(x).tobytes()).hexdigest(),
         hashlib.sha256(p.jacobian(x).to_dense().tobytes()).hexdigest())
        for x in (p.start, 0.5 * (lo + hi))
    )
    assert got == REGISTRY_PINS[name]


def test_with_ground_truth_keeps_every_other_field():
    p = NonlinearProblem(
        name="shift", residual=lambda x: x - 1.0,
        jacobian=lambda x: DenseJacobian(np.eye(2)), start=np.zeros(2),
        bounds=(np.full(2, -5.0), np.full(2, 5.0)),
    )
    q = with_ground_truth(p)
    np.testing.assert_array_equal(q.known_root, np.ones(2))
    assert q.null_basis.shape == (2, 1)
    for f in fields(NonlinearProblem):
        if f.name == "bounds":
            assert all(a is b for a, b in zip(q.bounds, p.bounds))
        elif f.name not in ("known_root", "null_basis"):
            assert getattr(q, f.name) is getattr(p, f.name), f.name


def test_with_ground_truth_names_the_problem_it_cannot_solve():
    # f(x) = x^2 + 1 has no real root, and J(0) = 0 stops the solve at once
    p = NonlinearProblem(
        name="no_real_root", residual=lambda x: x * x + 1.0,
        jacobian=lambda x: DenseJacobian(np.diag(2.0 * x)), start=np.zeros(1),
    )
    with pytest.raises(RuntimeError, match="ground-truth solve failed on no_real_root"):
        with_ground_truth(p)


def test_dim_is_derived_from_start():
    assert [f.name for f in fields(NonlinearProblem)] == [
        "name", "residual", "jacobian", "start", "known_root", "null_basis", "bounds",
    ]
    problems = [registry_entry(name) for name in TRANSCRIBED]
    problems += [h_equation(HEquationSpec(n=7)), multipoly(MultipolySpec(n=9))]
    for p in problems:
        assert p.dim == len(p.start)
        with pytest.raises(TypeError):
            replace(p, dim=3)
