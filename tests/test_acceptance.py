"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Iteration-count convention: this library reports the number of update steps
taken (equivalently, linear solves; the first iterate index whose residual
meets the tolerance).  The benchmark tables we compare against count one
more than that: their loop counts the pass that detects convergence.  The
count targets below are therefore the published numbers minus one; this was
verified at full scale (n = 10^4) for every deterministic cell, where the
published number is reproduced exactly under that shift.  The small-problem
comparison keeps the published numbers and a +-2 band wide enough to cover
the convention shift.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nasolve.core import NonlinearProblem, SolverConfig
from nasolve.diagnostics import estimate_rate, estimate_root_order
from nasolve.harness import (
    ExperimentSpec,
    emit_report,
    run_experiment,
    run_registry,
    write_summary,
)
from nasolve.linalg import DenseJacobian, lstsq_gamma
from nasolve.problems import (
    HEquationSpec,
    MultipolySpec,
    h_equation,
    multipoly,
    registry_entry,
    fd_jacobian_check,
)
from nasolve.solvers import (
    MethodId,
    gamma_safeguard,
    solve,
)

from test_linalg import _fresh_env  # tests/ is on sys.path under pytest's default import mode
from test_problems import TRANSCRIBED

CFG = SolverConfig()
# the four depth-1 Newton-Anderson methods
NA_METHODS = tuple(m for m in MethodId if m not in (MethodId.newton, MethodId.proj_lm))


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def _square_problem():
    return NonlinearProblem(
        name="square",
        residual=lambda x: np.array([x[0] ** 2]),
        jacobian=lambda x: DenseJacobian(np.array([[2.0 * x[0]]])),
        start=np.array([1.0]),
    )


def test_criterion_01_multipoly_newton_counts_exact():
    """Newton on the chained polynomial at n = 10^4: deterministic step
    counts 14/16/17 for k = 2/3/7 (published counts 15/17/18 under the
    one-higher counting convention); tolerance +-0; runtime < 5 s."""
    import time

    expected_steps = {2: 14, 3: 16, 7: 17}
    t0 = time.perf_counter()
    got = {}
    for k in (2, 3, 7):
        out = solve(multipoly(MultipolySpec(n=10_000, k=k)), MethodId.newton, CFG)
        assert out.converged
        got[k] = out.iterations
    elapsed = time.perf_counter() - t0
    assert got == expected_steps, f"steps {got} != {expected_steps}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report("1 multipoly Newton counts",
            f"steps {got} == published-minus-one, {elapsed:.2f}s")


@pytest.mark.skipif(os.environ.get("NASOLVE_FULL_SCALE") != "1",
                    reason="n = 10^7: 40-50 s and 1.0 GB; set NASOLVE_FULL_SCALE=1")
def test_criterion_01b_multipoly_ten_million_counts_exact():
    """The chained polynomial at n = 10^7: Newton keeps its n = 10^4 counts
    14/16/17 and gamma-NA takes 6/7/7 for k = 2/3/7.  Peak RSS over the six
    solves is about 1.0 GB (983 MiB on a 2-core Intel Xeon)."""
    expected = {2: (14, 6), 3: (16, 7), 7: (17, 7)}
    got = {}
    for k in expected:
        p = multipoly(MultipolySpec(n=10_000_000, k=k))
        plain = solve(p, MethodId.newton, CFG)
        fast = solve(p, MethodId.gamma_n_anderson, CFG)
        assert plain.converged and fast.converged
        got[k] = (plain.iterations, fast.iterations)
    assert got == expected, f"steps {got} != {expected}"
    _report("1b multipoly at n = 10^7", f"(newton, gamma-NA) steps {got}")


def test_criterion_02_h_equation_newton_counts_desk_scale():
    """Newton on the H-equation at n = 500 within +-2 of the published
    counts 4/5/8/17 (3/4/7/16 under the step convention); runtime < 30 s."""
    import time

    published_minus_one = {0.5: 3, 0.9: 4, 0.999: 7, 1.0: 16}
    t0 = time.perf_counter()
    got = {}
    for omega, target in published_minus_one.items():
        out = solve(h_equation(HEquationSpec(n=500, omega=omega)), MethodId.newton, CFG)
        assert out.converged
        got[omega] = out.iterations
        assert abs(out.iterations - target) <= 2, (
            f"omega={omega}: {out.iterations} vs target {target} (+-2)"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("2 H-equation Newton counts", f"steps {got}, {elapsed:.2f}s")


def test_criterion_02b_h_equation_full_scale_exact():
    """The full-scale run (n = 10^4) must reproduce the published counts
    exactly (under the one-lower step convention)."""
    expected = {0.5: 3, 0.9: 4, 0.999: 7, 1.0: 16}
    for omega, steps in expected.items():
        out = solve(h_equation(HEquationSpec(n=10_000, omega=omega)), MethodId.newton, CFG)
        assert out.converged and out.iterations == steps
    _report("2b full-scale H-equation", f"steps {expected} exact")


def test_criterion_03_anderson_beats_newton_at_singular_roots():
    """Every Newton-Anderson variant converges in strictly fewer iterations
    than plain Newton on the singular problems."""
    cases = [("heq w=1", h_equation(HEquationSpec(n=500, omega=1.0)), CFG)]
    for k in (2, 3, 7):
        cases.append(
            (f"multipoly k={k}", multipoly(MultipolySpec(n=10_000, k=k)),
             replace(CFG, r=0.7))
        )
    lines = []
    for label, p, cfg in cases:
        newton_iters = solve(p, MethodId.newton, cfg).iterations
        variant_iters = []
        for method in NA_METHODS:
            out = solve(p, method, cfg)
            assert out.converged, f"{label} variant {method} failed"
            assert out.iterations < newton_iters, (
                f"{label}: variant {out.iterations} !< newton {newton_iters}"
            )
            variant_iters.append(out.iterations)
        lines.append(f"{label}: newton {newton_iters} vs variants {variant_iters}")
    _report("3 acceleration at singular roots", "; ".join(lines))


def test_criterion_04_safeguard_invariant_sweep():
    """10^5 randomized (gamma, ||w_next||, ||w_prev||, r) tuples: the Newton
    branch fires iff gamma == 0 or gamma >= 1, lambda lies in (0,1], and the
    scaled coefficient obeys |lg|/|1-lg| <= beta + 1e-12 whenever scaling
    fired."""
    rng = np.random.default_rng(20240817)
    n = 100_000
    gammas = rng.uniform(-3.0, 3.0, n)
    gammas[rng.random(n) < 0.15] = 0.0
    hot = rng.random(n) < 0.15
    gammas[hot] = rng.uniform(1.0, 4.0, hot.sum())
    gammas[rng.random(n) < 0.05] = 1.0
    w_next = 10.0 ** rng.uniform(-6, 3, n)
    w_prev = 10.0 ** rng.uniform(-6, 3, n)
    rs = rng.uniform(0.01, 0.99, n)
    newton_branch = scaled = 0
    for g, wn, wp, r in zip(gammas, w_next, w_prev, rs):
        dec = gamma_safeguard(float(g), float(wn), float(wp), float(r))
        beta = r * wn / wp
        if g == 0.0 or g >= 1.0:
            assert dec.took_newton_step
            newton_branch += 1
            continue
        assert not dec.took_newton_step
        assert 0.0 < dec.lam <= 1.0
        used = dec.lam * g
        if dec.lam < 1.0:
            scaled += 1
            assert abs(used) / abs(1.0 - used) <= beta + 1e-12
        else:
            assert abs(g) / abs(1.0 - g) <= beta + 1e-12
    assert newton_branch > 10_000 and scaled > 10_000
    _report("4 safeguard invariant sweep",
            f"{n} tuples, {newton_branch} newton-branch, {scaled} scaled")


def test_criterion_05_gamma_optimality_oracle():
    """1000 random step pairs (dims 2-50): the closed-form coefficient beats
    every point of a 1e-5-spaced grid scan of the objective, and the
    optimization gain at the raw coefficient is minimal over the grid."""
    from nasolve.linalg import theta_gain

    rng = np.random.default_rng(7321)
    offsets = np.arange(-50_000, 50_001) * 1e-5  # +-0.5 window at 1e-5 spacing
    for trial in range(1000):
        dim = int(rng.integers(2, 51))
        w = rng.standard_normal(dim)
        wp = rng.standard_normal(dim)
        gamma = lstsq_gamma(w, wp)
        delta = w - wp
        grid = gamma + offsets
        # ||w - g delta||^2 over the grid, one component at a time
        sq, term = np.zeros_like(grid), np.empty_like(grid)
        for w_i, d_i in zip(w, delta):
            np.multiply(grid, -d_i, out=term)
            term += w_i
            term *= term
            sq += term
        best = float(np.sqrt(sq.min()))
        obj = float(np.linalg.norm(w - gamma * delta))
        assert obj <= best + 1e-12
        w_norm = float(np.linalg.norm(w))
        assert theta_gain(w, wp, gamma) <= best / w_norm + 1e-12
    _report("5 gamma optimality oracle", "1000 pairs, 1e5-point scans")


def test_criterion_06_one_dimensional_exactness():
    """f(x) = x^2 from x0 = 1: the unsafeguarded accelerated iteration lands
    on x2 = 0 exactly; safeguarded with r = 1/2 lands on x2 = 1/6; both to
    1e-15."""
    out = solve(_square_problem(), MethodId.n_anderson, CFG, keep_history=True)
    assert out.converged and out.iterations == 2
    assert out.iterate_history[2][0] == 0.0
    cfg = replace(CFG, r=0.5)
    out2 = solve(_square_problem(), MethodId.gamma_n_anderson, cfg, keep_history=True)
    x2 = out2.iterate_history[2][0]
    assert abs(x2 - 1.0 / 6.0) <= 1e-15
    _report("6 one-dimensional exactness", f"x2 = {out.iterate_history[2][0]} and {x2}")


def test_criterion_07_rate_and_root_order_recovery():
    """Newton null-component contraction within 5% of d/(d+1) for
    d = k-1 in {1, 2, 6}, and the inferred root order within +-0.5."""
    lines = []
    for k in (2, 3, 7):
        d = k - 1
        p = multipoly(MultipolySpec(n=10_000, k=k))
        out = solve(p, MethodId.newton, CFG)
        norms = [float(np.linalg.norm(it.null)) for it in out.errors]
        rho = estimate_rate([v for v in norms if v > 1e-12])
        target = d / (d + 1.0)
        assert abs(rho - target) / target <= 0.05, f"k={k}: rho {rho} vs {target}"
        order = estimate_root_order(rho)
        assert abs(order - d) <= 0.5, f"k={k}: order {order} vs {d}"
        lines.append(f"k={k}: rho={rho:.4f} order={order:.2f}")
    _report("7 rate/order recovery", "; ".join(lines))


def _gamma_na_run_k2():
    p = multipoly(MultipolySpec(n=10_000, k=2))
    cfg = replace(CFG, r=0.7)
    out = solve(p, MethodId.gamma_n_anderson, cfg)
    assert out.converged
    return p, out


def _null_and_range_norms(out):
    """||P_N e_k|| and ||P_R e_k|| per iterate, from the solve's record."""
    pn = [float(np.linalg.norm(it.null)) for it in out.errors]
    return pn, [it.range_norm for it in out.errors]


def test_criterion_08_range_component_quadratic_law():
    """Safeguarded run on the order-one polynomial: log-log regression of
    ||P_R e_{k+1}|| against max(||e_k||, ||e_{k-1}||) has slope >= 1.8 over
    the convergent tail."""
    _, out = _gamma_na_run_k2()
    pn, pr = _null_and_range_norms(out)
    e = [float(np.hypot(a, b)) for a, b in zip(pn, pr)]
    xs, ys = [], []
    for k in range(1, len(e) - 1):
        m = max(e[k], e[k - 1])
        if pr[k + 1] > 1e-14 and m > 0.0:
            xs.append(np.log(m))
            ys.append(np.log(pr[k + 1]))
    assert len(xs) >= 4
    slope = float(np.polyfit(xs, ys, 1)[0])
    assert slope >= 1.8, f"slope {slope}"
    _report("8 range-component quadratic law", f"slope {slope:.3f} over {len(xs)} points")


def test_criterion_09_null_component_theta_scaling():
    """Same run: ||P_N e_{k+1}|| <= theta_{k+1} ||P_N e_k|| for every k >= 2
    in the convergent tail (existential kappa < 1 tested at kappa = 1)."""
    p, out = _gamma_na_run_k2()
    pn, _ = _null_and_range_norms(out)
    floor = 1e-13 * (1.0 + float(np.linalg.norm(p.known_root)))
    checked = 0
    for rec in out.trace:
        k = rec.k
        if k < 2 or pn[k + 1] <= floor:
            continue
        assert pn[k + 1] <= rec.theta * pn[k], (
            f"k={k}: {pn[k + 1]} > {rec.theta} * {pn[k]}"
        )
        checked += 1
    assert checked >= 3
    _report("9 null-component theta scaling", f"{checked} tail steps verified")


def test_criterion_10_jacobian_correctness():
    """Every shipped problem passes the central-difference Jacobian check at
    its start and at one random interior point, to 1e-6."""
    rng = np.random.default_rng(99)
    shipped = [registry_entry(name) for name in TRANSCRIBED]
    shipped.append(multipoly(MultipolySpec(n=20, k=3)))
    shipped.append(multipoly(MultipolySpec(n=20, k=7)))
    shipped.append(h_equation(HEquationSpec(n=50, omega=0.5)))
    shipped.append(h_equation(HEquationSpec(n=50, omega=1.0)))
    for p in shipped:
        assert fd_jacobian_check(p, p.start) <= 1e-6, p.name
        if p.bounds is not None:
            lo, hi = p.bounds
            interior = lo + rng.uniform(0.25, 0.75, p.dim) * (hi - lo)
        else:
            interior = p.start + rng.uniform(-0.25, 0.25, p.dim)
        assert fd_jacobian_check(p, interior) <= 1e-6, p.name
    _report("10 Jacobian correctness", f"{len(shipped)} problems x 2 points")


# published small-problem counts: (proj_lm, n_anderson, gamma_n_anderson,
# armijo_n_anderson, gamma_armijo_n_anderson); "F" marks published failures
TABLE_COUNTS = {
    "Himmelbau": (6, 8, 6, 8, 7),
    "Eq-Combustion": (11, 35, 17, 18, 17),
    "Bullard-Biegler": (13, "F", 11, 20, 13),
    "Ferraris-Tronconi": (4, 4, 4, 4, 4),
    "Brown's Al. Lin.": (9, 19, 11, 11, 11),
    "Robot Kin. Sys.": (5, 9, 8, 9, 8),
}
TABLE_METHODS = (
    MethodId.proj_lm,
    MethodId.n_anderson,
    MethodId.gamma_n_anderson,
    MethodId.armijo_n_anderson,
    MethodId.gamma_armijo_n_anderson,
)
# cells on the unsafeguarded path of the two problems where tiny start
# perturbations (1e-10) scatter the count by more than the comparison band
# or flip convergence; measured in tests/test_acceptance.py history: e.g.
# Eq-Combustion n_anderson scatters over {38..44, F} and the Bullard
# armijo run flips outcome under sub-ulp changes to the update arithmetic.
CHAOTIC_CELLS = {
    ("Eq-Combustion", MethodId.n_anderson),
    ("Eq-Combustion", MethodId.armijo_n_anderson),
    ("Bullard-Biegler", MethodId.armijo_n_anderson),
}


def test_criterion_11_published_table_reproduction():
    """Transcribed problems: iteration counts within +-2 of the published
    tables and converged residuals below 1e-8; the three cells with measured
    chaotic sensitivity are reported, not gated; untranscribed entries are
    reported as skipped, never silently passed."""
    cfg = replace(CFG, r=0.5)
    gated = reported = 0
    lines = []
    for name, expected in TABLE_COUNTS.items():
        p = registry_entry(name)
        for method, target in zip(TABLE_METHODS, expected):
            out = solve(p, method, cfg)
            got = out.iterations if out.converged else "F"
            cell = f"{name}/{method.value}: {got} vs {target}"
            if (name, method) in CHAOTIC_CELLS:
                reported += 1
                lines.append(cell + " [chaotic, not gated]")
                continue
            gated += 1
            if target == "F":
                assert not out.converged, cell
            else:
                assert out.converged, cell
                assert abs(out.iterations - target) <= 2, cell
                assert out.final_res < 1e-8, cell
    skipped = [
        r.problem
        for r in run_registry((MethodId.newton,), cfg)
        if all(row.skipped for row in r.rows)
    ]
    assert sorted(skipped) == sorted(
        ["Decker1", "Decker2", "Ojika1", "Ojika2", "Pollock1", "Dayton10",
         "Hueso1", "Hueso6"]
    )
    for cell in lines:
        print("  " + cell)
    _report(
        "11 published tables",
        f"{gated} cells gated at +-2, {reported} chaotic cells reported, "
        f"{len(skipped)} entries skipped",
    )


def test_criterion_12_determinism(tmp_path):
    """Two consecutive runs of the full desk-scale matrix produce
    bit-identical summary and history files."""
    cfg5 = replace(CFG, r=0.5)
    cfg7 = replace(CFG, r=0.7)

    def run_matrix(out_dir: Path):
        out_dir.mkdir(parents=True, exist_ok=True)
        reports = run_registry(tuple(MethodId), cfg5)
        written = [write_summary(reports, out_dir / "registry_summary.csv")]
        for spec in (
            ExperimentSpec(problem="multipoly", methods=tuple(MethodId), n=300, k=2, config=cfg7),
            ExperimentSpec(problem="heq", methods=tuple(MethodId), n=150, omega=1.0, config=cfg5),
        ):
            written.extend(emit_report(run_experiment(spec), "csv", out_dir))
        return sorted(written)

    first = run_matrix(tmp_path / "run1")
    second = run_matrix(tmp_path / "run2")
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), f"{a.name} differs between runs"
    _report("12 determinism", f"{len(first)} files bit-identical across reruns")


# CLI cells whose every file has the same bytes on one and on two OpenBLAS
# threads: the registry, and the five Newton-Anderson methods on heq and
# multipoly.  heq's proj_lm does not hold yet: its J^T J and the low-rank
# class's to_dense (two dgemm) take other trailing bits on one thread
NA_FLAGS = [flag for m in MethodId if m is not MethodId.proj_lm for flag in ("--method", m.value)]
THREAD_CELLS = {
    "registry": ["--problem", "registry", "--r", "0.5"],
    "heq": ["--problem", "heq", "--n", "300", "--omega", "1", *NA_FLAGS],
    "multipoly": ["--problem", "multipoly", "--n", "2000", "--k", "3", *NA_FLAGS],
}


@pytest.mark.parametrize("cell", sorted(THREAD_CELLS))
def test_criterion_12_across_blas_thread_counts(cell, tmp_path):
    """The CLI writes the same files, and the same stdout, byte for byte,
    on one and on two OpenBLAS threads.  Criterion 12 runs in one process,
    so it never compares thread counts."""
    runs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        argv = [sys.executable, "-m", "nasolve.cli", *THREAD_CELLS[cell], "--out", str(out_dir)]
        done = subprocess.run(argv, env=_fresh_env(OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr
        files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        runs.append((done.stdout, files))
    (stdout1, files1), (stdout2, files2) = runs
    assert stdout1 == stdout2
    assert sorted(files1) == sorted(files2) and files1
    for name in files1:
        assert files1[name] == files2[name], f"{name} differs between 1 and 2 threads"
    _report("12 thread counts", f"{cell}: {len(files1)} files and stdout identical on 1 and 2 threads")
