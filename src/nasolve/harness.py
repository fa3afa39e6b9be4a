"""Experiment runner: executes method x problem cells and serializes summary
tables and per-method residual histories."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from .core import NonlinearProblem, SolveOutcome, SolverConfig
from .problems import (
    HEquationSpec,
    MultipolySpec,
    ProblemUnavailable,
    h_equation,
    multipoly,
    registry_entry,
)
from .solvers import MethodId, solve

HISTORY_COLUMNS = (
    "k",
    "res_norm",
    "step_norm",
    "gamma_raw",
    "lambda",
    "gamma_used",
    "theta",
    "step_kind",
    "ls_evals",
)
SUMMARY_COLUMNS = ("problem", "algorithm", "iterations", "f_evals", "final_res", "lm_ls_pg")


@dataclass(frozen=True)
class ExperimentSpec:
    """One problem run under a list of methods from a shared start."""

    problem: str
    methods: tuple[MethodId, ...]
    n: int | None = None
    omega: float = 1.0
    k: int = 2
    config: SolverConfig = field(default_factory=SolverConfig)
    keep_history: bool = False

    def __post_init__(self):
        if not self.methods:
            raise ValueError("at least one method is required")
        object.__setattr__(self, "methods", tuple(MethodId(m) for m in self.methods))


@dataclass
class MethodRow:
    method: MethodId
    converged: bool
    iterations: int
    f_evals: int
    final_res: float
    lm_count: int
    ls_count: int
    pg_count: int
    outcome: SolveOutcome | None
    error: str | None = None
    skipped: bool = False


@dataclass
class RunReport:
    problem: str
    rows: list[MethodRow]


def resolve_problem(spec: ExperimentSpec) -> NonlinearProblem:
    if spec.problem == "heq":
        return h_equation(HEquationSpec(n=spec.n or 500, omega=spec.omega))
    if spec.problem == "multipoly":
        return multipoly(MultipolySpec(n=spec.n or 10_000, k=spec.k))
    return registry_entry(spec.problem)


def _run_method(p: NonlinearProblem, method: MethodId, spec: ExperimentSpec) -> MethodRow:
    try:
        outcome = solve(p, method, spec.config, keep_history=spec.keep_history)
    except Exception as exc:  # a failed cell must not abort the run
        return MethodRow(
            method=method, converged=False, iterations=0, f_evals=0,
            final_res=float("nan"), lm_count=0, ls_count=0, pg_count=0,
            outcome=None, error=f"{type(exc).__name__}: {exc}",
        )
    kinds = [rec.step_kind for rec in outcome.trace]
    if method is MethodId.proj_lm:
        lm = kinds.count("lm")
        ls = kinds.count("lm_linesearch")
        pg = kinds.count("projected_gradient")
    else:
        lm = pg = 0
        ls = sum(1 for rec in outcome.trace if rec.ls_evals > 0)
    return MethodRow(
        method=method,
        converged=outcome.converged,
        iterations=outcome.iterations,
        f_evals=outcome.f_evals,
        final_res=outcome.final_res,
        lm_count=lm,
        ls_count=ls,
        pg_count=pg,
        outcome=outcome,
    )


def run_experiment(spec: ExperimentSpec) -> RunReport:
    """Run every method of the spec on its problem from the same start."""
    p = resolve_problem(spec)
    return RunReport(problem=p.name, rows=[_run_method(p, m, spec) for m in spec.methods])


def run_registry(
    methods,
    config: SolverConfig | None = None,
    names=None,
) -> list[RunReport]:
    """Run the method list over the registry; untranscribed entries come back
    as reports whose rows are marked skipped."""
    from .problems import REGISTRY_NAMES

    config = config or SolverConfig()
    reports = []
    for name in names or REGISTRY_NAMES:
        try:
            spec = ExperimentSpec(problem=name, methods=tuple(methods), config=config)
            reports.append(run_experiment(spec))
        except ProblemUnavailable as exc:
            rows = [
                MethodRow(
                    method=MethodId(m), converged=False, iterations=0, f_evals=0,
                    final_res=float("nan"), lm_count=0, ls_count=0, pg_count=0,
                    outcome=None, error=str(exc), skipped=True,
                )
                for m in methods
            ]
            reports.append(RunReport(problem=name, rows=rows))
    return reports


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _lm_ls_pg(row: MethodRow) -> str:
    if row.skipped:
        return "skipped"
    if not row.converged and row.error is not None:
        return "-"
    if row.method is MethodId.proj_lm:
        if not row.converged:
            return "-"
        return f"{row.lm_count}/{row.ls_count}/{row.pg_count}"
    if row.method in (MethodId.armijo_n_anderson, MethodId.gamma_armijo_n_anderson):
        if not row.converged:
            return "-/-/-"
        return f"-/{row.ls_count}/-"
    return "-"


def summary_records(reports: list[RunReport]) -> list[dict]:
    """Rows of the summary table with paper-style F/dash placeholders."""
    records = []
    for report in reports:
        for row in report.rows:
            ok = row.converged and not row.skipped
            records.append(
                {
                    "problem": report.problem,
                    "algorithm": row.method.value,
                    "iterations": str(row.iterations) if ok else "F",
                    "f_evals": str(row.f_evals) if ok else "-",
                    "final_res": _fmt_float(row.final_res) if ok else "-",
                    "lm_ls_pg": _lm_ls_pg(row),
                }
            )
    return records


def history_records(outcome: SolveOutcome) -> list[dict]:
    rows = []
    for rec in outcome.trace:
        rows.append(
            {
                "k": str(rec.k),
                "res_norm": _fmt_float(rec.res_norm),
                "step_norm": _fmt_float(rec.step_norm),
                "gamma_raw": _fmt_float(rec.gamma_raw),
                "lambda": _fmt_float(rec.lam),
                "gamma_used": _fmt_float(rec.gamma_used),
                "theta": _fmt_float(rec.theta),
                "step_kind": rec.step_kind,
                "ls_evals": str(rec.ls_evals),
            }
        )
    return rows


def _write_rows(path: Path, fieldnames, records, fmt: str):
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=fieldnames)
                writer.writeheader()
                writer.writerows(records)
        elif fmt == "json":
            with open(path, "w") as fh:
                json.dump(records, fh, indent=1)
                fh.write("\n")
        else:
            raise ValueError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise OSError(f"failed writing report file {path}: {exc}") from exc


def emit_report(report: RunReport, fmt: str = "csv", out_dir="results") -> list[Path]:
    """Write one summary file plus one iteration-history file per method.

    Field order is fixed and floats carry 17 significant digits, so reruns
    of a deterministic pipeline produce bit-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    safe_problem = report.problem.replace("/", "_").replace(" ", "_")
    paths = []
    summary_path = out / f"{safe_problem}_summary.{fmt}"
    _write_rows(summary_path, SUMMARY_COLUMNS, summary_records([report]), fmt)
    paths.append(summary_path)
    for row in report.rows:
        if row.outcome is None:
            continue
        hist_path = out / f"{safe_problem}_{row.method.value}_history.{fmt}"
        _write_rows(hist_path, HISTORY_COLUMNS, history_records(row.outcome), fmt)
        paths.append(hist_path)
    return paths


def write_summary(reports: list[RunReport], path, fmt: str = "csv") -> Path:
    """Write a combined summary file for a list of reports."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_rows(path, SUMMARY_COLUMNS, summary_records(reports), fmt)
    return path


def compare_table(reports: list[RunReport]) -> str:
    """Aligned text table grouped by problem, one method per row."""
    header = ("Problem", "Algorithm", "Iterations", "f-evals", "||f(x)||", "LM/LS/PG")
    rows = [header]
    for report in reports:
        for row in report.rows:
            ok = row.converged and not row.skipped
            rows.append(
                (
                    report.problem,
                    row.method.value,
                    str(row.iterations) if ok else "F",
                    str(row.f_evals) if ok else "-",
                    f"{row.final_res:.3e}" if ok else "-",
                    _lm_ls_pg(row),
                )
            )
    if len(rows) == 1:
        return ""
    widths = [max(len(r[j]) for r in rows) for j in range(len(header))]
    out = io.StringIO()
    prev_problem = None
    for i, r in enumerate(rows):
        cells = list(r)
        if i > 0:
            if cells[0] == prev_problem:
                cells[0] = ""
            else:
                prev_problem = cells[0]
        out.write("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
        out.write("\n")
    return out.getvalue()
