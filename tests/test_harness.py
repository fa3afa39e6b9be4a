import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from nasolve.core import SolverConfig
from nasolve.harness import (
    ExperimentSpec,
    compare_table,
    emit_report,
    run_experiment,
    run_registry,
    summary_records,
    write_summary,
)
from nasolve.problems import HEquationSpec, MultipolySpec, h_equation, multipoly
from nasolve.solvers import MethodId
from nasolve import cli, harness


class TestExperimentSpec:
    def test_empty_method_list_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="heq", methods=())

    def test_repeated_method_rejected(self):
        with pytest.raises(ValueError, match="once"):
            ExperimentSpec(problem="heq", methods=("newton", MethodId.newton))

    def test_method_strings_coerced(self):
        spec = ExperimentSpec(problem="heq", methods=("newton",))
        assert spec.methods == (MethodId.newton,)


class TestRunExperiment:
    def test_heq_singular_newton_vs_anderson(self):
        spec = ExperimentSpec(
            problem="heq", methods=(MethodId.newton, MethodId.n_anderson), n=200, omega=1.0
        )
        report = run_experiment(spec)
        by = {row.method: row for row in report.rows}
        assert by[MethodId.newton].converged
        assert by[MethodId.n_anderson].iterations < by[MethodId.newton].iterations

    def test_f_evals_law_for_anderson_methods(self):
        # plain and safeguarded variants evaluate once per iteration plus one
        spec = ExperimentSpec(
            problem="multipoly",
            methods=(MethodId.newton, MethodId.n_anderson, MethodId.gamma_n_anderson),
            n=500,
            k=3,
        )
        for row in run_experiment(spec).rows:
            assert row.f_evals == row.iterations + 1

    def test_f_evals_count_actual_residual_calls(self):
        from nasolve.harness import resolve_problem
        from nasolve.core import NonlinearProblem
        from nasolve.solvers import solve

        spec = ExperimentSpec(problem="Bullard-Biegler", methods=(MethodId.gamma_armijo_n_anderson,),
                              config=replace(SolverConfig(), r=0.5))
        base = resolve_problem(spec)
        calls = {"n": 0}

        def counting(x, _inner=base.residual):
            calls["n"] += 1
            return _inner(x)

        counted = NonlinearProblem(
            name=base.name, residual=counting, jacobian=base.jacobian,
            start=base.start, bounds=base.bounds,
        )
        out = solve(counted, MethodId.gamma_armijo_n_anderson, spec.config)
        expected = out.iterations + 1 + sum(rec.ls_evals for rec in out.trace)
        assert calls["n"] == expected
        assert out.f_evals == calls["n"]
        assert sum(rec.ls_evals for rec in out.trace) > 0  # searches actually ran

    def test_f_evals_count_proj_lm_steps_without_candidate(self):
        # J^T J + mu I is singular in floating point for every mu on the
        # ladder (2e-8, 2, 1), so no LM candidate is evaluated and each step
        # is a projected-gradient search; iterations + 1 + sum(ls_evals)
        # would overcount by one per step
        from nasolve.core import NonlinearProblem
        from nasolve.linalg import DenseJacobian
        from nasolve.solvers import solve

        calls = {"n": 0}

        def constant(x):
            calls["n"] += 1
            return np.ones(2)

        p = NonlinearProblem(
            name="flat", residual=constant,
            jacobian=lambda x: DenseJacobian(np.full((2, 2), 1e10)), start=np.zeros(2),
        )
        out = solve(p, MethodId.proj_lm, SolverConfig(max_iters=3))
        assert [rec.step_kind for rec in out.trace] == ["projected_gradient"] * 3
        assert out.f_evals == calls["n"] == 1 + sum(rec.ls_evals for rec in out.trace)

    def test_method_failure_recorded_not_raised(self):
        spec = ExperimentSpec(problem="multipoly", methods=(MethodId.newton,), n=50, k=2,
                              config=SolverConfig(max_iters=2))
        report = run_experiment(spec)
        assert not report.rows[0].converged


    def test_untranscribed_problem_gives_skipped_rows(self):
        methods = (MethodId.newton, MethodId.proj_lm)
        report = run_experiment(ExperimentSpec(problem="Dayton10", methods=methods))
        assert report.problem == "Dayton10"
        assert [row.method for row in report.rows] == list(methods)
        assert all(row.skipped and row.outcome is None for row in report.rows)
        assert "not transcribed" in report.rows[0].error

    def test_defaults_are_the_problem_spec_defaults(self):
        for problem, build, spec in (
            ("heq", h_equation, HEquationSpec()), ("multipoly", multipoly, MultipolySpec()),
        ):
            p = harness.resolve_problem(ExperimentSpec(problem=problem, methods=tuple(MethodId)))
            assert p.name == build(spec).name  # the names carry n and omega or k

    @pytest.mark.parametrize("problem, name, value", [
        ("heq", "k", 3), ("multipoly", "omega", 0.5),
        ("Himmelbau", "n", 5), ("Decker1", "n", 5),  # transcribed or not
    ])
    def test_parameter_not_taken_rejected(self, problem, name, value):
        spec = ExperimentSpec(problem=problem, methods=(MethodId.newton,), **{name: value})
        with pytest.raises(ValueError, match=f"^{problem} does not take {name}$"):
            harness.resolve_problem(spec)


class TestRunRegistry:
    def test_untranscribed_reported_as_skipped(self):
        reports = run_registry((MethodId.newton,))
        by_name = {r.problem: r for r in reports}
        assert by_name["Dayton10"].rows[0].skipped
        assert not by_name["Himmelbau"].rows[0].skipped
        recs = summary_records([by_name["Dayton10"]])
        assert recs[0]["iterations"] == "F" and recs[0]["lm_ls_pg"] == "skipped"

    def test_names_select_entries(self):
        assert run_registry((MethodId.newton,), names=()) == []
        reports = run_registry((MethodId.newton,), names=("Himmelbau", "Dayton10"))
        assert [r.problem for r in reports] == ["Himmelbau", "Dayton10"]


class TestEmitReport:
    def test_csv_layout_and_roundtrip(self, tmp_path):
        spec = ExperimentSpec(problem="Himmelbau", methods=(MethodId.proj_lm,),
                              config=replace(SolverConfig(), r=0.5))
        report = run_experiment(spec)
        paths = emit_report(report, "csv", tmp_path)
        summary = [p for p in paths if "summary" in p.name][0]
        with open(summary) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["problem", "algorithm", "iterations", "f_evals",
                                 "final_res", "lm_ls_pg"]
        row = rows[0]
        assert row["problem"] == "Himmelbau"
        assert row["algorithm"] == "proj_lm"
        assert row["iterations"] == "6"
        assert row["f_evals"] == "7"
        assert row["lm_ls_pg"] == "6/0/0"
        assert float(row["final_res"]) < 1e-8
        # 17-significant-digit float round-trip
        recovered = float(row["final_res"])
        assert format(recovered, ".17g") == row["final_res"]
        hist = [p for p in paths if "history" in p.name][0]
        with open(hist) as fh:
            hrows = list(csv.DictReader(fh))
        assert list(hrows[0]) == ["k", "res_norm", "step_norm", "gamma_raw", "lambda",
                                  "gamma_used", "theta", "step_kind", "ls_evals"]
        assert [int(r["k"]) for r in hrows] == list(range(len(hrows)))

    def test_json_and_csv_encode_identical_values(self, tmp_path):
        spec = ExperimentSpec(problem="multipoly", methods=(MethodId.newton,), n=50, k=2)
        report = run_experiment(spec)
        csv_paths = emit_report(report, "csv", tmp_path / "c")
        json_paths = emit_report(report, "json", tmp_path / "j")
        csv_summary = [p for p in csv_paths if "summary" in p.name][0]
        json_summary = [p for p in json_paths if "summary" in p.name][0]
        with open(csv_summary) as fh:
            from_csv = list(csv.DictReader(fh))
        from_json = json.loads(json_summary.read_text())
        assert from_csv == from_json

    def test_failed_run_renders_f(self, tmp_path):
        spec = ExperimentSpec(problem="multipoly", methods=(MethodId.newton,), n=50, k=2,
                              config=SolverConfig(max_iters=2))
        report = run_experiment(spec)
        recs = summary_records([report])
        assert recs[0]["iterations"] == "F"
        assert recs[0]["f_evals"] == "-" and recs[0]["final_res"] == "-"

    def test_io_error_has_path_context(self, tmp_path):
        spec = ExperimentSpec(problem="multipoly", methods=(MethodId.newton,), n=50, k=2)
        report = run_experiment(spec)
        blocked = tmp_path / f"{report.problem}_summary.csv"
        blocked.mkdir()  # a directory where the summary file goes
        with pytest.raises(OSError) as info:
            emit_report(report, "csv", tmp_path)
        assert str(blocked) in str(info.value)

    def test_unknown_format_rejected(self, tmp_path):
        spec = ExperimentSpec(problem="multipoly", methods=(MethodId.newton,), n=50, k=2)
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            emit_report(run_experiment(spec), "xml", tmp_path)


class TestCompareTable:
    def test_empty_input(self):
        assert compare_table([]) == ""

    def test_single_report_renders(self):
        spec = ExperimentSpec(problem="multipoly", methods=(MethodId.newton,), n=50, k=2)
        text = compare_table([run_experiment(spec)])
        assert "multipoly_k2_n50" in text and "newton" in text

    def test_failed_rows_render_dashes(self):
        spec = ExperimentSpec(problem="multipoly", methods=(MethodId.newton,), n=50, k=2,
                              config=SolverConfig(max_iters=2))
        text = compare_table([run_experiment(spec)])
        line = [ln for ln in text.splitlines() if "newton" in ln][0]
        assert " F " in f" {line} " or line.split()[-1] == "-"


def _table_cells(text: str, method: str) -> list[str]:
    return [ln for ln in text.splitlines() if f" {method} " in f" {ln} "][0].split()


class TestRowRendering:
    """The F/dash placeholders and LM/LS/PG counts each kind of row renders."""

    def test_raising_method_renders_f_and_records_error(self, tmp_path, monkeypatch):
        def raising(*args, **kwargs):
            raise RuntimeError("no step")

        monkeypatch.setattr(harness, "solve", raising)
        spec = ExperimentSpec(problem="multipoly", methods=(MethodId.newton,), n=50, k=2)
        report = run_experiment(spec)
        row = report.rows[0]
        assert row.outcome is None and not row.skipped
        assert row.error == "RuntimeError: no step"
        assert (row.converged, row.iterations, row.f_evals) == (False, 0, 0)
        assert math.isnan(row.final_res)
        paths = emit_report(report, "csv", tmp_path)
        assert paths == [tmp_path / "multipoly_k2_n50_summary.csv"]  # no history file
        lines = paths[0].read_text().splitlines()
        assert lines[1] == "multipoly_k2_n50,newton,F,-,-,-"
        assert _table_cells(compare_table([report]), "newton") == [
            "multipoly_k2_n50", "newton", "F", "-", "-", "-"
        ]

    @pytest.mark.parametrize("method, cell", [
        (MethodId.newton, "-"),
        (MethodId.proj_lm, "-"),
        (MethodId.armijo_n_anderson, "-/-/-"),
        (MethodId.gamma_armijo_n_anderson, "-/-/-"),
    ])
    def test_failed_method_placeholder(self, method, cell):
        spec = ExperimentSpec(problem="multipoly", methods=(method,), n=50, k=2,
                              config=SolverConfig(max_iters=1))
        report = run_experiment(spec)
        assert report.rows[0].outcome.status == "max_iters"
        rec = summary_records([report])[0]
        assert (rec["iterations"], rec["f_evals"], rec["final_res"], rec["lm_ls_pg"]) == (
            "F", "-", "-", cell
        )
        assert _table_cells(compare_table([report]), method.value)[2:] == ["F", "-", "-", cell]

    def test_skipped_row_renders_skipped(self):
        reports = run_registry((MethodId.proj_lm,), names=("Dayton10",))
        rec = summary_records(reports)[0]
        assert (rec["iterations"], rec["f_evals"], rec["final_res"], rec["lm_ls_pg"]) == (
            "F", "-", "-", "skipped"
        )
        assert _table_cells(compare_table(reports), "proj_lm") == [
            "Dayton10", "proj_lm", "F", "-", "-", "skipped"
        ]

    def test_registry_counts_column(self):
        # Bullard-Biegler at r = 0.5 has a converged row of every rule and
        # two failed Newton-Anderson rows
        reports = run_registry(tuple(MethodId), replace(SolverConfig(), r=0.5),
                               names=("Bullard-Biegler",))
        got = {rec["algorithm"]: (rec["iterations"], rec["lm_ls_pg"])
               for rec in summary_records(reports)}
        assert got == {
            "newton": ("11", "-"),
            "n_anderson": ("F", "-"),
            "gamma_n_anderson": ("11", "-"),
            "armijo_n_anderson": ("F", "-/-/-"),
            "gamma_armijo_n_anderson": ("13", "-/6/-"),
            "proj_lm": ("13", "10/3/0"),
        }


class TestCli:
    def test_experiment_run(self, tmp_path, capsys):
        rc = cli.main([
            "--problem", "multipoly", "--n", "80", "--k", "2",
            "--method", "newton", "--method", "gamma_n_anderson",
            "--r", "0.7", "--out", str(tmp_path), "--format", "csv",
        ])
        assert rc == 0
        assert (tmp_path / "multipoly_k2_n80_summary.csv").exists()
        assert (tmp_path / "multipoly_k2_n80_newton_history.csv").exists()
        out = capsys.readouterr().out
        assert "gamma_n_anderson" in out

    def test_registry_run_reports_skipped(self, tmp_path, capsys):
        rc = cli.main([
            "--problem", "registry", "--method", "newton",
            "--r", "0.5", "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "skipped (not transcribed)" in out
        assert "Dayton10" in out
        assert (tmp_path / "registry_summary.csv").exists()

    def test_defaults_are_the_dataclass_defaults(self, tmp_path, capsys):
        args = cli.build_parser().parse_args(["--problem", "heq"])
        cfg = SolverConfig()
        assert (args.r, args.tol, args.max_iters) == (cfg.r, cfg.tol, cfg.max_iters)
        # the problem names carry n and omega or k
        for problem, name in (("heq", h_equation(HEquationSpec()).name),
                              ("multipoly", multipoly(MultipolySpec()).name)):
            rc = cli.main(["--problem", problem, "--method", "newton", "--out", str(tmp_path)])
            assert rc == 0
            assert (tmp_path / f"{name}_summary.csv").exists()

    def test_single_untranscribed_problem_reports_skipped(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc = cli.main(["--problem", "Decker1", "--out", str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("skipped") == len(MethodId) + 1
        assert out.rstrip().endswith("skipped (not transcribed): Decker1")
        assert not out_dir.exists()

    def test_unknown_problem_is_error_exit(self, tmp_path, capsys):
        for params in ([], ["--n", "5"]):
            rc = cli.main(["--problem", "NoSuchProblem", *params, "--out", str(tmp_path)])
            assert rc == 2
            assert capsys.readouterr().err == "error: unknown registry problem 'NoSuchProblem'\n"

    @pytest.mark.parametrize("problem, name, value", [
        ("registry", "n", "0"), ("Himmelbau", "n", "5"), ("Decker1", "n", "5"),
        ("heq", "k", "3"), ("multipoly", "omega", "0.5"),
    ])
    def test_parameter_not_taken_is_error_exit(self, problem, name, value, tmp_path, capsys):
        rc = cli.main(["--problem", problem, f"--{name}", value, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.endswith(f" does not take {name}\n")
        assert not (tmp_path / "out").exists()

    def test_invalid_config_is_error_exit(self, tmp_path, capsys):
        rc = cli.main(["--problem", "Himmelbau", "--r", "1.5", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "got 1.5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_write_failure_is_exit_1(self, tmp_path, capsys):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        rc = cli.main(["--problem", "Himmelbau", "--method", "newton", "--out", str(blocked)])
        assert rc == 1
        assert str(blocked) in capsys.readouterr().err

    @pytest.mark.parametrize("problem, least", [("heq", 1), ("multipoly", 2)])
    def test_zero_size_is_error_exit(self, problem, least, tmp_path, capsys):
        rc = cli.main(["--problem", problem, "--n", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert f"need n >= {least}, got 0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


def test_write_summary_combines_reports(tmp_path):
    cfg = replace(SolverConfig(), r=0.5)
    reports = run_registry((MethodId.newton,), cfg, names=("Himmelbau", "Dayton10"))
    path = write_summary(reports, tmp_path / "combined.csv")
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["problem"] for r in rows] == ["Himmelbau", "Dayton10"]
