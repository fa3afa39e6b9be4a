import re
import tracemalloc
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nasolve
from nasolve.core import NonlinearProblem, SolverConfig, validate_problem
from nasolve.linalg import DenseJacobian, IdentityMinusLowRankJacobian
from nasolve.problems import HEquationSpec, MultipolySpec, h_equation, multipoly
from nasolve import solvers
from nasolve.solvers import MethodId, solve


def test_multipoly_with_ground_truth_validates_clean():
    # J(0) is the identity except for the zero last row, so J(0) e_n = 0
    p = multipoly(MultipolySpec(n=4, k=2))
    assert validate_problem(p) == []


def test_residual_at_root_violation_is_reported():
    p = NonlinearProblem(
        name="bad_root",
        residual=lambda x: np.array([x[0] - 1e-3]),
        jacobian=lambda x: DenseJacobian(np.array([[1.0]])),
        start=np.array([1.0]),
        known_root=np.array([0.0]),
    )
    violations = validate_problem(p)
    assert len(violations) == 1
    assert "residual at known_root" in violations[0]


def test_bounds_violation_is_reported():
    p = NonlinearProblem(
        name="bad_start",
        residual=lambda x: x,
        jacobian=lambda x: DenseJacobian(np.array([[1.0]])),
        start=np.array([2.0]),
        bounds=(np.array([0.0]), np.array([1.0])),
    )
    violations = validate_problem(p)
    assert len(violations) == 1
    assert "bounds" in violations[0]


# a box that is not one entry per coordinate: numpy broadcast a one-entry
# box over all 50 coordinates, and a three-entry one failed in validate_problem
@pytest.mark.parametrize("lo_shape, hi_shape", [
    ((1,), (1,)), ((3,), (3,)), ((50,), (49,)), ((1,), (50,)), ((50, 1), (50, 1)), ((), ()),
])
def test_bounds_of_another_shape_are_rejected(lo_shape, hi_shape):
    p = multipoly(MultipolySpec(n=50, k=3))
    with pytest.raises(ValueError, match=r"need bounds of shape \(50,\)"):
        replace(p, bounds=(np.zeros(lo_shape), np.ones(hi_shape)))


def test_empty_box_is_reported():
    p = NonlinearProblem(
        name="empty_box",
        residual=lambda x: x,
        jacobian=lambda x: DenseJacobian(np.array([[1.0]])),
        start=np.array([0.5]),
        bounds=(np.array([1.0]), np.array([0.0])),
    )
    assert any(v.startswith("empty box") for v in validate_problem(p))


def test_non_orthonormal_basis_is_reported():
    p = multipoly(MultipolySpec(n=3, k=2))
    tweaked = NonlinearProblem(
        name=p.name, residual=p.residual, jacobian=p.jacobian,
        start=p.start, known_root=p.known_root,
        null_basis=2.0 * p.null_basis,
    )
    assert any("orthonormal" in v for v in validate_problem(tweaked))


def _two_dim_problem(residual=None, jacobian=None, null_basis=None):
    # a clean instance unless a keyword swaps one piece: f(x) = (x_1, 0) with
    # root 0 and null direction e_2
    return NonlinearProblem(
        name="nan_case",
        residual=residual or (lambda x: np.array([x[0], 0.0])),
        jacobian=jacobian or (lambda x: DenseJacobian(np.array([[1.0, 0.0], [0.0, 0.0]]))),
        start=np.ones(2),
        known_root=np.zeros(2),
        null_basis=np.array([[0.0], [1.0]]) if null_basis is None else null_basis,
    )


class TestValidateProblemNaN:
    """A NaN must be reported, not slip through a comparison that is false for NaN."""

    def test_clean_instance_passes(self):
        assert validate_problem(_two_dim_problem()) == []

    def test_nan_residual_at_root(self):
        p = _two_dim_problem(residual=lambda x: np.array([np.nan, 0.0]))
        violations = validate_problem(p)
        assert len(violations) == 1
        assert "residual at known_root" in violations[0]

    def test_nan_null_basis(self):
        p = _two_dim_problem(null_basis=np.array([[np.nan], [0.0]]))
        assert any("orthonormal" in v for v in validate_problem(p))

    def test_nan_jacobian_entry_at_root(self):
        p = _two_dim_problem(
            jacobian=lambda x: DenseJacobian(np.array([[1.0, np.nan], [0.0, 0.0]]))
        )
        violations = validate_problem(p)
        assert len(violations) == 1
        assert "not annihilated" in violations[0]


def test_validation_of_h_equation_forms_no_n_by_r_array(monkeypatch):
    # the annihilation test takes matvecs only: no max|J(x*)| scan, no to_dense
    n = 20_000
    p = h_equation(HEquationSpec(n=n))
    basis = np.zeros((n, 1))
    basis[0, 0] = 1.0
    p = replace(p, known_root=p.start, null_basis=basis)
    r = p.jacobian(p.start).e.shape[1]

    def no_dense(self):
        raise AssertionError("validate_problem densified the Jacobian")

    monkeypatch.setattr(IdentityMinusLowRankJacobian, "to_dense", no_dense)
    tracemalloc.start()
    try:
        violations = validate_problem(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * r * 8
    assert "null_basis column 0 not annihilated" in violations[-1]


# a start that is not 1-D: (2, 1) failed inside the first norm2, (1, 2) gave
# dim 1 for two unknowns, and a 0-d start raised TypeError from len()
@pytest.mark.parametrize("start", [np.zeros((2, 1)), np.zeros((1, 2)), np.float64(0.0)],
                         ids=["column", "row", "scalar"])
def test_start_of_another_shape_is_rejected(start):
    p = multipoly(MultipolySpec(n=50, k=3))
    with pytest.raises(ValueError, match=re.escape(f"need a 1-D start, got shape {np.shape(start)}")):
        NonlinearProblem(name="bad", residual=p.residual, jacobian=p.jacobian, start=start)


class TestGroundTruthShapes:
    """Construction rejects a misshapen known_root or null_basis, which would
    otherwise broadcast in x - root or fail inside norm2 at diagnosis."""

    @pytest.mark.parametrize("root", [np.zeros(1), np.zeros(51), np.zeros((50, 1)), np.float64(0.0)])
    def test_known_root_shape_rejected(self, root):
        p = multipoly(MultipolySpec(n=50, k=3))
        with pytest.raises(ValueError, match="known_root of shape"):
            replace(p, known_root=root)

    @pytest.mark.parametrize("basis", [np.eye(50)[:, 49], np.zeros((49, 1)), np.zeros((50, 0)),
                                       np.zeros((50, 1, 1))])
    def test_null_basis_shape_rejected(self, basis):
        p = multipoly(MultipolySpec(n=50, k=3))
        with pytest.raises(ValueError, match="null_basis of shape"):
            replace(p, null_basis=basis)


class TestReadOnlyArrays:
    """The problem's arrays are read-only.  A read-only float array is kept as
    it is; any other is held as a read-only view of np.asarray(a, dtype=float),
    with no copy, except that a Fortran-ordered null basis of several columns
    is held in C order."""

    @staticmethod
    def _boxed(n=50):
        p = multipoly(MultipolySpec(n=n, k=3))
        return replace(p, bounds=(np.full(n, -1.0), np.full(n, 1.0)))

    def test_writes_into_the_arrays_raise(self):
        p = self._boxed()
        for a in (p.start, p.known_root, p.null_basis, *p.bounds):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_replace_keeps_the_same_objects(self):
        p = self._boxed()
        q = replace(p, name="renamed")
        for name in ("start", "known_root", "null_basis"):
            assert getattr(q, name) is getattr(p, name), name
        assert all(a is b for a, b in zip(q.bounds, p.bounds))

    def test_a_writeable_array_is_held_as_a_view(self):
        # no copy: a caller that writes into the array it passed changes the problem
        start, lo = np.zeros(3), np.full(3, -1.0)
        p = NonlinearProblem(name="view", residual=lambda x: x, jacobian=None,
                             start=start, bounds=(lo, -lo))
        assert p.start is not start and p.start.base is start
        assert p.bounds[0].base is lo and start.flags.writeable
        start[0] = 2.0
        assert p.start[0] == 2.0

    def test_other_dtypes_are_converted(self):
        p = NonlinearProblem(name="ints", residual=lambda x: x, jacobian=None, start=[1, 2])
        assert p.start.dtype == np.float64 and not p.start.flags.writeable

    @pytest.mark.parametrize("order, copied", [("C", False), ("F", True)])
    def test_null_basis_is_held_in_c_order(self, order, copied):
        basis = np.asarray(np.eye(4)[:, :2], order=order)
        p = NonlinearProblem(name="basis", residual=lambda x: x, jacobian=None,
                             start=np.zeros(4), null_basis=basis)
        assert p.null_basis.flags.c_contiguous
        assert np.shares_memory(p.null_basis, basis) is not copied
        np.testing.assert_array_equal(p.null_basis, basis)
        column = np.asfortranarray(np.eye(4)[:, 3:])  # one column: C order too, no copy
        assert replace(p, null_basis=column).null_basis.base is column


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.tol == 1e-8
        assert cfg.max_iters == 50
        assert cfg.r == 0.9
        assert solvers.LS_TRIGGER == 0.99
        assert solvers.LS_DAMPING == 1e-4
        assert solvers.LS_STEP0 == 0.5
        assert solvers.LS_SHRINK == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"max_iters": 0},
            {"r": 0.0},
            {"r": 1.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("max_iters", [2.5, 50.0, "50"])
    def test_non_integral_max_iters_rejected(self, max_iters):
        with pytest.raises(ValueError, match="need an integer max_iters"):
            SolverConfig(max_iters=max_iters)
        assert SolverConfig(max_iters=np.int64(50)).max_iters == 50


# bool is an Integral: True would pass as 1 and name a problem heq_nTrue_w1
@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize(
    "make, name",
    [
        (lambda v: SolverConfig(max_iters=v), "max_iters"),
        (lambda v: HEquationSpec(n=v), "n"),
        (lambda v: MultipolySpec(n=v), "n"),
    ],
    ids=["SolverConfig.max_iters", "HEquationSpec.n", "MultipolySpec.n"],
)
def test_bool_counts_rejected(make, name, value):
    with pytest.raises(ValueError, match=f"need an integer {name}, got {value}"):
        make(value)


def _square_problem():
    return NonlinearProblem(
        name="square",
        residual=lambda x: np.array([x[0] ** 2]),
        jacobian=lambda x: DenseJacobian(np.array([[2.0 * x[0]]])),
        start=np.array([1.0]),
    )


def test_trace_is_monotone_and_gap_free():
    for method in (MethodId.newton, MethodId.n_anderson):
        out = solve(_square_problem(), method, SolverConfig())
        assert [rec.k for rec in out.trace] == list(range(out.iterations))


def test_newton_records_have_unit_theta_and_zero_gamma():
    p = multipoly(MultipolySpec(n=50, k=2))
    for out in (
        solve(p, MethodId.newton, SolverConfig()),
        solve(p, MethodId.gamma_n_anderson, SolverConfig()),
    ):
        assert out.converged
        for rec in out.trace:
            assert rec.res_norm >= 0.0
            assert 0.0 <= rec.theta <= 1.0 + 1e-12
            assert 0.0 < rec.lam <= 1.0
            if rec.step_kind == "newton":
                assert rec.gamma_used == 0.0
                assert rec.theta == 1.0


def test_converged_iff_final_res_below_tol():
    cfg = SolverConfig(max_iters=3)
    out = solve(_square_problem(), MethodId.newton, cfg)
    assert not out.converged and out.final_res >= cfg.tol and out.iterations <= 3
    out = solve(_square_problem(), MethodId.newton, SolverConfig())
    assert out.converged and out.final_res < 1e-8


def test_public_names_resolve_and_none_is_a_module():
    namespace = {}
    exec("from nasolve import *", namespace)
    for name in nasolve.__all__:
        assert not isinstance(getattr(nasolve, name), types.ModuleType), name
        assert namespace[name] is getattr(nasolve, name)
    assert not {"DegenerateSteps", "InsufficientTail", "OutOfRange"} & set(nasolve.__all__)
    assert {"SingularMatrix", "ProblemUnavailable", "solve"} <= set(nasolve.__all__)


# PAPER.md carries a copy of the README's quick tour; both must run
@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_readme_python_block_runs(doc, capsys):
    text = (Path(__file__).resolve().parents[1] / doc).read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})
    plain, fast = capsys.readouterr().out.splitlines()[0].split(" -> ")
    assert int(fast) < int(plain)
