"""Workload grids of the nasolve benchmark and the pass that runs one.

A pass calls the package the way ``nasolve.cli.main`` does: ``run_experiment``
or ``run_registry``, then ``emit_report`` / ``write_summary`` into an output
directory, plus ``diagnose_run`` where the workload asks for diagnostics.

Importing this module imports neither numpy nor nasolve, so that
``setup_time.py`` can time that import itself.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ALL_METHODS = (
    "newton",
    "n_anderson",
    "gamma_n_anderson",
    "armijo_n_anderson",
    "gamma_armijo_n_anderson",
    "proj_lm",
)
# proj_lm densifies the n x n Jacobian, which multipoly at n = 10^5 cannot afford
NA_METHODS = ALL_METHODS[:5]

# One entry per run_experiment call (or one run_registry call).  The problems
# are the published fixed systems, so a seed only permutes the order.
WORKLOADS = {
    "multipoly": [
        {"problem": "multipoly", "n": 100_000, "k": k, "methods": NA_METHODS, "keep_history": True}
        for k in (2, 3, 7)
    ],
    "heq": [
        {"problem": "heq", "n": 2000, "omega": 0.5, "methods": ALL_METHODS},
        {"problem": "heq", "n": 2000, "omega": 1.0, "methods": ALL_METHODS},
        # the only cell on the chunked-kernel path (n > 2000)
        {"problem": "heq", "n": 3000, "omega": 1.0, "methods": ("gamma_n_anderson",)},
    ],
    "registry": [{"problem": "registry", "methods": ALL_METHODS}],
}
# diagnose_run runs on this method's outcomes (they need keep_history)
DIAGNOSED = {"multipoly": "gamma_n_anderson"}
# problem size used by the untimed warm-up pass
WARMUP_N = {"multipoly": 2000, "heq": 200}


def use_checkout_source() -> None:
    """Import nasolve from the checkout's src/ and nowhere else."""
    if not (SRC / "nasolve" / "__init__.py").is_file():
        raise SystemExit(f"error: nasolve sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def seeded_order(workload: str, seed: int, n: int | None = None) -> list[dict]:
    """The workload's experiments with method and registry-name order
    permuted by the seed; ``n`` overrides the problem size.

    Experiments keep the grid's order: on heq, running n = 3000 first lowered
    peak RSS from 319 MB to 278 MB (glibc's mmap threshold grows after the
    first 32 MB array is freed), which would tie peak_rss_mb to the seed.
    """
    from nasolve.problems import REGISTRY_NAMES

    rng = random.Random(seed)
    exps = [dict(e) for e in WORKLOADS[workload]]
    for e in exps:
        e["methods"] = tuple(rng.sample(e["methods"], len(e["methods"])))
        if e["problem"] == "registry":
            e["names"] = tuple(rng.sample(REGISTRY_NAMES, len(REGISTRY_NAMES)))
        elif n is not None:
            e["n"] = n
    return exps


def experiment_specs(exp: dict) -> list:
    """The ExperimentSpec(s) an experiment runs; a registry experiment gives
    one per registry name, as run_registry builds them."""
    from nasolve.harness import ExperimentSpec

    if exp["problem"] == "registry":
        return [ExperimentSpec(problem=name, methods=exp["methods"]) for name in exp["names"]]
    extra = {key: exp[key] for key in ("n", "k", "omega", "keep_history") if key in exp}
    return [ExperimentSpec(problem=exp["problem"], methods=exp["methods"], **extra)]


def build_problems(exps: list[dict]) -> None:
    """Construct every problem of the experiments, as the harness would."""
    from nasolve.harness import resolve_problem
    from nasolve.problems import ProblemUnavailable

    for exp in exps:
        for spec in experiment_specs(exp):
            try:
                resolve_problem(spec)
            except ProblemUnavailable:
                pass


@dataclass
class Cell:
    """What one (problem, method) cell of a pass produced, without its vectors."""

    cell: str
    spec: object
    converged: bool
    iterations: int
    f_evals: int
    final_res: float
    error: str | None
    wall_time: float
    summary: dict
    ls_trials: int = 0
    ls_fired: int = 0
    kinds: Counter = field(default_factory=Counter)
    history_bytes: int = 0
    diag_error: str | None = None


@dataclass
class Pass:
    wall_s: float
    cells: dict[str, Cell]
    # output file name -> the cells whose rows or history it holds
    files: dict[str, list[str]]


def _cells(report, spec) -> list[Cell]:
    from nasolve.harness import summary_records

    out = []
    for row, summary in zip(report.rows, summary_records([report])):
        if row.skipped:
            continue
        cell = Cell(
            cell=f"{report.problem}/{row.method.value}", spec=spec,
            converged=row.converged, iterations=row.iterations, f_evals=row.f_evals,
            final_res=row.final_res, error=row.error,
            wall_time=row.outcome.wall_time if row.outcome else 0.0, summary=summary,
        )
        if row.outcome is not None:
            trace = row.outcome.trace
            cell.ls_trials = sum(rec.ls_evals for rec in trace)
            cell.ls_fired = sum(1 for rec in trace if rec.ls_evals > 0)
            cell.kinds = Counter(rec.step_kind for rec in trace)
            history = row.outcome.iterate_history or ()
            cell.history_bytes = sum(x.nbytes for x in history)
        out.append(cell)
    return out


def _note_files(files, paths, report, cells):
    """Map the paths emit_report returned (summary first, then one history
    per row that has an outcome) to the cells they hold."""
    names = [c.cell for c in cells]
    files[paths[0].name] = names
    with_outcome = [f"{report.problem}/{row.method.value}" for row in report.rows if row.outcome]
    for path, cell in zip(paths[1:], with_outcome):
        files[path.name] = [cell]


def _run_experiment(exp, out_dir, files, tracer, timed) -> list[Cell]:
    # a function of its own so the report and its iterate histories are
    # freed before the next experiment starts
    from nasolve import harness
    from nasolve.diagnostics import diagnose_run

    (spec,) = experiment_specs(exp)
    report = harness.run_experiment(spec)
    cells = _cells(report, spec)
    paths = timed("harness.report", harness.emit_report, report, "csv", out_dir)
    _note_files(files, paths, report, cells)
    method = DIAGNOSED.get(exp["problem"])
    for row, cell in zip(report.rows, cells):
        if row.method.value != method:
            continue
        problem = harness.resolve_problem(spec)
        if tracer:
            tracer.cell = "diag:" + cell.cell
        try:
            timed("diagnostics.diagnose_run", diagnose_run, problem, row.outcome)
        except Exception as exc:  # a failed diagnosis fails its cell, not the run
            cell.diag_error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.cell = None
    return cells


def run_pass(exps: list[dict], out_dir: Path, tracer=None) -> Pass:
    """Run the experiments once, writing reports to ``out_dir``.

    With a tracer, report writing and diagnostics are recorded as spans; the
    layers inside the solves are probed by the tracer's own rebinding.
    """
    from nasolve import harness

    def timed(name, fn, *args):
        return tracer.call(name, fn, *args) if tracer else fn(*args)

    cells: dict[str, Cell] = {}
    files: dict[str, list[str]] = {}
    t0 = perf_counter()
    for exp in exps:
        if exp["problem"] == "registry":
            specs = experiment_specs(exp)
            reports = harness.run_registry(exp["methods"], names=exp["names"])
            summary = timed("harness.report", harness.write_summary, reports,
                            out_dir / "registry_summary.csv")
            all_cells = []
            for spec, report in zip(specs, reports):
                rc = _cells(report, spec)
                all_cells += rc
                if rc:
                    paths = timed("harness.report", harness.emit_report, report, "csv", out_dir)
                    _note_files(files, paths, report, rc)
            files[summary.name] = [c.cell for c in all_cells]
            cells.update((c.cell, c) for c in all_cells)
            continue
        cells.update((c.cell, c) for c in _run_experiment(exp, out_dir, files, tracer, timed))
    return Pass(wall_s=perf_counter() - t0, cells=cells, files=files)
