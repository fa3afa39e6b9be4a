"""Experiment runner: executes method x problem cells and serializes summary
tables and per-method residual histories."""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path

from .core import IterationRecord, NonlinearProblem, SolveOutcome, SolverConfig
from .problems import (
    REGISTRY_NAMES,
    HEquationSpec,
    MultipolySpec,
    ProblemUnavailable,
    h_equation,
    multipoly,
    registry_entry,
)
from .solvers import LINESEARCH_METHODS, MethodId, solve

HISTORY_COLUMNS = tuple("lambda" if f.name == "lam" else f.name for f in fields(IterationRecord))
SUMMARY_COLUMNS = ("problem", "algorithm", "iterations", "f_evals", "final_res", "lm_ls_pg")


@dataclass(frozen=True)
class ExperimentSpec:
    """One problem run under a list of methods from a shared start."""

    problem: str
    methods: tuple[MethodId, ...]
    n: int | None = None  # None, here and below: the problem spec's default
    omega: float | None = None
    k: int | None = None
    config: SolverConfig = field(default_factory=SolverConfig)
    keep_history: bool = False

    def __post_init__(self):
        if not self.methods:
            raise ValueError("at least one method is required")
        object.__setattr__(self, "methods", tuple(MethodId(m) for m in self.methods))
        if len(set(self.methods)) < len(self.methods):
            raise ValueError("each method may be given once")


@dataclass
class MethodRow:
    """One method's result on a problem.  A row whose solve raised, or whose
    problem is not transcribed, has no outcome and reads as not converged."""

    method: MethodId
    outcome: SolveOutcome | None
    error: str | None = None
    skipped: bool = False

    @property
    def converged(self) -> bool:
        return self.outcome is not None and self.outcome.converged

    @property
    def iterations(self) -> int:
        return self.outcome.iterations if self.outcome is not None else 0

    @property
    def f_evals(self) -> int:
        return self.outcome.f_evals if self.outcome is not None else 0

    @property
    def final_res(self) -> float:
        return self.outcome.final_res if self.outcome is not None else float("nan")


@dataclass
class RunReport:
    problem: str
    rows: list[MethodRow]


_SCALEABLE = {"heq": (HEquationSpec, h_equation), "multipoly": (MultipolySpec, multipoly)}


def resolve_problem(spec: ExperimentSpec) -> NonlinearProblem:
    """Build the spec's problem from the parameters the caller set.  A problem
    in _SCALEABLE takes the fields of its spec class, a registry problem none.
    An unknown name raises KeyError, a parameter not taken ValueError."""
    if spec.problem not in _SCALEABLE and spec.problem not in REGISTRY_NAMES:
        return registry_entry(spec.problem)  # raises the unknown name's KeyError
    spec_cls, build = _SCALEABLE.get(spec.problem, (None, None))
    taken = [f.name for f in fields(spec_cls)] if spec_cls else []
    params = {key: getattr(spec, key) for key in ("n", "omega", "k")
              if getattr(spec, key) is not None}
    if extra := [key for key in params if key not in taken]:
        raise ValueError(f"{spec.problem} does not take {', '.join(extra)}")
    return build(spec_cls(**params)) if spec_cls else registry_entry(spec.problem)


def _run_method(p: NonlinearProblem, method: MethodId, spec: ExperimentSpec) -> MethodRow:
    try:
        outcome = solve(p, method, spec.config, keep_history=spec.keep_history)
    except Exception as exc:  # a failed cell must not abort the run
        return MethodRow(method, None, error=f"{type(exc).__name__}: {exc}")
    return MethodRow(method, outcome)


def run_experiment(spec: ExperimentSpec) -> RunReport:
    """Run every method of the spec on its problem from the same start; an
    untranscribed registry problem gives a report whose rows are all skipped."""
    try:
        p = resolve_problem(spec)
    except ProblemUnavailable as exc:
        rows = [MethodRow(m, None, error=str(exc), skipped=True) for m in spec.methods]
        return RunReport(problem=spec.problem, rows=rows)
    return RunReport(problem=p.name, rows=[_run_method(p, m, spec) for m in spec.methods])


def run_registry(methods, config: SolverConfig | None = None, names=None) -> list[RunReport]:
    """Run the method list over the registry entries ``names`` (all of them
    if None), as run_experiment does for each."""
    config = config or SolverConfig()
    return [
        run_experiment(ExperimentSpec(problem=name, methods=tuple(methods), config=config))
        for name in (REGISTRY_NAMES if names is None else names)
    ]


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _lm_ls_pg(row: MethodRow) -> str:
    """The LM/LS/PG cell: proj_lm's step kinds, the armijo methods' searched
    steps, each counted from the trace of a converged run."""
    if row.skipped:
        return "skipped"
    if row.outcome is None:
        return "-"
    trace = row.outcome.trace
    if row.method is MethodId.proj_lm:
        if not row.converged:
            return "-"
        kinds = Counter(rec.step_kind for rec in trace)
        return f"{kinds['lm']}/{kinds['lm_linesearch']}/{kinds['projected_gradient']}"
    if row.method in LINESEARCH_METHODS:
        if not row.converged:
            return "-/-/-"
        return f"-/{sum(1 for rec in trace if rec.ls_evals > 0)}/-"
    return "-"


def _cells(problem: str, row: MethodRow, fmt_res) -> tuple[str, ...]:
    """One row in SUMMARY_COLUMNS order, with paper-style F/dash placeholders
    for a run that did not converge; ``fmt_res`` formats the final residual."""
    ok = row.converged
    return (
        problem,
        row.method.value,
        str(row.iterations) if ok else "F",
        str(row.f_evals) if ok else "-",
        fmt_res(row.final_res) if ok else "-",
        _lm_ls_pg(row),
    )


def _summary_rows(reports: list[RunReport]) -> list[tuple[str, ...]]:
    return [_cells(report.problem, row, _fmt_float) for report in reports for row in report.rows]


def summary_records(reports: list[RunReport]) -> list[dict]:
    """Rows of the summary table with paper-style F/dash placeholders."""
    return [dict(zip(SUMMARY_COLUMNS, row)) for row in _summary_rows(reports)]


def _history_rows(outcome: SolveOutcome) -> list[list[str]]:
    """One row per step in HISTORY_COLUMNS order; a number (int fields
    included, which .17g prints as str does) gets 17 significant digits."""
    return [
        [v if isinstance(v, str) else _fmt_float(v) for v in vars(rec).values()]
        for rec in outcome.trace
    ]


def _write_rows(path: Path, columns, rows, fmt: str):
    """Write ``rows``, sequences of cells in ``columns`` order: CSV rows as
    they are, JSON as one object per row."""
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(columns)
                writer.writerows(rows)
        elif fmt == "json":
            with open(path, "w") as fh:
                json.dump([dict(zip(columns, row)) for row in rows], fh, indent=1)
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
    safe_problem = report.problem.replace("/", "_").replace(" ", "_")
    paths = [write_summary([report], out / f"{safe_problem}_summary.{fmt}", fmt)]
    for row in report.rows:
        if row.outcome is None:
            continue
        hist_path = out / f"{safe_problem}_{row.method.value}_history.{fmt}"
        _write_rows(hist_path, HISTORY_COLUMNS, _history_rows(row.outcome), fmt)
        paths.append(hist_path)
    return paths


def write_summary(reports: list[RunReport], path, fmt: str = "csv") -> Path:
    """Write a combined summary file for a list of reports."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_rows(path, SUMMARY_COLUMNS, _summary_rows(reports), fmt)
    return path


def compare_table(reports: list[RunReport]) -> str:
    """Aligned text table grouped by problem, one method per row."""
    header = ("Problem", "Algorithm", "Iterations", "f-evals", "||f(x)||", "LM/LS/PG")
    rows = [header] + [
        _cells(report.problem, row, "{:.3e}".format)
        for report in reports
        for row in report.rows
    ]
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
