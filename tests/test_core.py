import re
import types
from pathlib import Path

import numpy as np
import pytest

import nasolve
from nasolve.core import NonlinearProblem, SolverConfig, validate_problem
from nasolve.linalg import DenseJacobian
from nasolve.problems import MultipolySpec, multipoly
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
