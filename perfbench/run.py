"""nasolve benchmark: one workload per invocation, measured from outside.

    python3 perfbench/run.py --workload multipoly --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one client that runs one cell at a time.
A pass runs the workload's whole grid once (see workloads.py); the run
repeats passes while the next one is expected to end within ``--seconds``,
and always runs at least one.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass, prints the per-layer metrics, and writes the
spans of the first traced pass to ``perfbench/_traces/``.

Every cell is checked against ``fingerprint.json`` (converged flag,
iterations, f-evals), converged cells must meet the tolerance, and report
files must be byte-identical across the passes of a run.  The last line of
standard output is one JSON object; the exit code is 1 when any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

from workloads import ROOT, WARMUP_N, WORKLOADS, run_pass, seeded_order, use_checkout_source

HERE = Path(__file__).resolve().parent
FINGERPRINT = HERE / "fingerprint.json"
NPROC = len(os.sched_getaffinity(0))
# set-up is sampled in fresh interpreters, half before the passes and half
# after them, so that one slow stretch of the machine does not set the median
SETUP_SAMPLES = 3


def cap_blas_threads() -> None:
    """Cap BLAS threads at the cores this process may use.  Takes effect
    only before numpy is first imported; the set-up subprocesses inherit it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        n = int(cur) if cur.isdigit() and int(cur) > 0 else NPROC
        os.environ[var] = str(min(n, NPROC))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-fingerprint", action="store_true",
        help="first record one pass's per-cell counts in fingerprint.json",
    )
    return parser.parse_args(argv)


# -- environment --------------------------------------------------------------


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, found through /proc/self/maps."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "commit": _git_commit(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads": _blas_threads(),
    }


# -- measurement --------------------------------------------------------------


def setup_seconds(workload: str) -> list[float]:
    """Set-up time of fresh interpreters, one sample each."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_time.py"), workload],
            capture_output=True, text=True, timeout=120, cwd=ROOT, env=os.environ.copy(),
        )
        if out.returncode != 0:
            raise RuntimeError(f"setup_time.py failed: {out.stderr.strip()}")
        samples.append(float(out.stdout.split()[-1]))
    return samples


def digest(out_dir: Path, names) -> tuple[dict, int]:
    """sha256 of each named report file, and the bytes they hold."""
    digests, size = {}, 0
    for name in names:
        data = (out_dir / name).read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return digests, size


def repeat_passes(seconds: float, one_pass) -> list:
    """Call ``one_pass`` at least once, and again while the next call is
    expected to end within ``seconds`` of the first."""
    from time import perf_counter

    t0 = perf_counter()
    results = []
    while True:
        start = perf_counter()
        results.append(one_pass())
        now = perf_counter()
        if now - t0 + (now - start) > seconds:
            return results


def tail(samples: list[float]) -> str:
    """The sample with ten samples above it, as a percentile of the run."""
    n = len(samples)
    if n < 11:
        return f"n/a ({n} samples; a tail needs at least 11)"
    ordered = sorted(samples)
    rank = 100.0 * (n - 11) / (n - 1)
    return f"p{rank:.1f} = {ordered[n - 11]:.6f} s (10 of {n} samples above it)"


# -- correctness --------------------------------------------------------------


class Checker:
    """Checks each pass as it completes, so a run need not keep its passes.

    A cell fails when it raised, when diagnosing it raised, when its
    (converged, iterations, f_evals) differs from the fingerprint, when it
    converged to a residual not below the tolerance, or when a report file
    or summary row holding it differs from the first pass.
    """

    def __init__(self, workload: str, fingerprint: dict):
        from nasolve.core import SolverConfig

        self.tol = SolverConfig().tol  # every cell runs at the default config
        self.expected = fingerprint.get(workload)
        self.first = self.first_digests = None
        self.passes = self.attempted = self.failed = 0
        self.messages = []
        if self.expected is None:
            self.messages.append(f"fingerprint.json has no entry for {workload}")

    def add(self, run, digests) -> None:
        if self.first is None:
            self.first, self.first_digests = run, digests
            if self.expected is not None and set(self.expected) != set(run.cells):
                diff = sorted(set(self.expected) ^ set(run.cells))
                self.messages.append(f"cells differ from fingerprint: {diff}")
        bad = {}
        for name, holders in run.files.items():
            if digests.get(name) != self.first_digests.get(name):
                for cell in holders:
                    bad.setdefault(cell, f"{name} differs from the first pass")
        for name, cell in run.cells.items():
            got = [cell.converged, cell.iterations, cell.f_evals]
            if cell.error:
                bad.setdefault(name, f"raised {cell.error}")
            if cell.diag_error:
                bad.setdefault(name, f"diagnose_run raised {cell.diag_error}")
            if self.expected is not None and self.expected.get(name) != got:
                bad.setdefault(name, f"fingerprint {self.expected.get(name)} but got {got}")
            if cell.converged and not cell.final_res < self.tol:
                bad.setdefault(name, f"converged with final_res {cell.final_res!r} >= {self.tol}")
            first = self.first.cells.get(name)
            if first is None or cell.summary != first.summary:
                bad.setdefault(name, "summary row differs from the first pass")
        self.attempted += len(run.cells)
        self.failed += len(bad)
        self.messages += [f"pass {self.passes}: {c}: {why}" for c, why in sorted(bad.items())]
        self.passes += 1

    def add_result(self, what: str, attempted: int, failed: int, messages: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.messages += [f"{what}: {m}" for m in messages]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.messages


def repeat_cell(first, digests, out_dir: Path) -> tuple[str, bool]:
    """Re-run the quickest cell of a single-pass run and compare its history
    file and summary row with the pass's."""
    from dataclasses import replace

    from nasolve.harness import emit_report, run_experiment, summary_records

    cell = min(first.cells.values(), key=lambda c: c.wall_time)
    method = cell.cell.rsplit("/", 1)[1]
    report = run_experiment(replace(cell.spec, methods=(method,)))
    paths = emit_report(report, "csv", out_dir)
    history = [p.name for p in paths[1:]]
    again, _ = digest(out_dir, history)
    same = all(again[name] == digests.get(name) for name in history)
    return cell.cell, same and summary_records([report])[0] == cell.summary


# -- per-layer metrics --------------------------------------------------------


LAYER_SPANS = (
    "problems.build", "problems.residual", "problems.jacobian",
    "linalg.solve", "linalg.matvec", "linalg.to_dense",
    "solvers.solve", "solvers.gamma",
)
MB = float(1 << 20)


def layer_metrics(run, spans, counts, report_bytes, overhead_s) -> tuple[dict, dict, list[str]]:
    """Per-layer ``{name: (value, unit)}`` of one traced pass, the accounting
    of each cell, and any span nesting problems.

    A cell's accounting holds its reported f-evals, the residual calls the
    probe counted inside its solve span and their difference (the f-eval
    gap), and its solve span split into child spans and self time.
    """
    from nasolve.core import STEP_KINDS
    from probe import summarize

    layers, traced, problems = summarize(spans)
    none = (0, 0.0, 0.0)
    cells = list(run.cells.values())
    values = {}
    for name in LAYER_SPANS:
        calls, secs, _ = layers.get(name, none)
        values[f"{name}.calls"] = (calls, "count")
        values[f"{name}.s"] = (secs, "s")
    values["linalg.solve.singular"] = (counts["linalg.solve.singular"], "count")
    values["solvers.self_s"] = (layers.get("solvers.solve", none)[2], "s")
    values["solvers.ls.trials"] = (sum(c.ls_trials for c in cells), "count")
    values["solvers.ls.fired"] = (sum(c.ls_fired for c in cells), "count")
    for name in ("solvers.safeguard.scaled", "solvers.safeguard.newton_fallback"):
        values[name] = (counts[name], "count")
    for kind in STEP_KINDS:
        values[f"solvers.step.{kind}"] = (sum(c.kinds[kind] for c in cells), "count")
    values["diagnostics.diagnose_run.s"] = (layers.get("diagnostics.diagnose_run", none)[1], "s")
    values["diagnostics.diagnose_run.linsolves"] = (
        sum(t["linsolves"] for name, t in traced.items() if name.startswith("diag:")), "count"
    )
    values["diagnostics.history_mb"] = (sum(c.history_bytes for c in cells) / MB, "MB")
    values["harness.report.s"] = (layers.get("harness.report", none)[1], "s")
    values["harness.report.bytes"] = (report_bytes, "bytes")
    values["harness.report.files"] = (len(run.files), "count")
    accounts = {}
    for c in cells:
        t = traced.get(c.cell, Counter())
        accounts[c.cell] = {
            "f_evals": c.f_evals, "residual_calls": t["residual"],
            "f_evals_gap": c.f_evals - t["residual"], "solve_s": t["span"],
            "children_s": t["children"], "self_s": t["span"] - t["children"],
        }
    values["harness.f_evals_gap"] = (
        sum(a["f_evals_gap"] for name, a in accounts.items() if run.cells[name].error is None),
        "count",
    )
    values["bench.trace_overhead_s"] = (overhead_s, "s")
    return values, accounts, problems


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_blas_threads()
    use_checkout_source()
    setup = [] if args.trace else setup_seconds(args.workload)

    import nasolve  # noqa: F401

    env = environment()
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  trace: {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    fingerprint = json.loads(FINGERPRINT.read_text()) if FINGERPRINT.exists() else {}

    work = HERE / "_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    out_dir = work / "out"
    out_dir.mkdir(parents=True)
    try:
        run_pass(seeded_order(args.workload, args.seed, WARMUP_N.get(args.workload)),
                 work / "warmup")
        exps = seeded_order(args.workload, args.seed)
        if args.write_fingerprint:
            _write_fingerprint(args.workload, run_pass(exps, out_dir))
            fingerprint = json.loads(FINGERPRINT.read_text())
        if args.trace:
            return traced_run(args, exps, out_dir, env, fingerprint)
        return timed_run(args, exps, out_dir, setup, fingerprint)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _one_pass(exps, out_dir, tracer=None):
    gc.collect()
    run = run_pass(exps, out_dir, tracer)
    digests, size = digest(out_dir, run.files)
    return run, digests, size


def _cell_table(run) -> None:
    print(f"{'cell':44} {'conv':>5} {'iters':>5} {'f_evals':>7} {'final_res':>10} {'wall_s':>9}")
    for name in sorted(run.cells):
        c = run.cells[name]
        print(f"{name:44} {str(c.converged):>5} {c.iterations:5d} {c.f_evals:7d} "
              f"{c.final_res:10.3e} {c.wall_time:9.4f}")


def _finish(checker: Checker, metrics: dict) -> int:
    for line in checker.messages:
        print("FAIL " + line)
    print(json.dumps({"correct": checker.correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if checker.correct else 1


def _write_fingerprint(workload, run) -> None:
    data = json.loads(FINGERPRINT.read_text()) if FINGERPRINT.exists() else {}
    data[workload] = {name: [c.converged, c.iterations, c.f_evals]
                      for name, c in run.cells.items()}
    # one line per cell, so a changed count shows as a one-line diff
    lines = []
    for w in sorted(data):
        cells = [f"  {json.dumps(name)}: {json.dumps(fp)}" for name, fp in sorted(data[w].items())]
        lines.append(f" {json.dumps(w)}: {{\n" + ",\n".join(cells) + "\n }")
    FINGERPRINT.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def timed_run(args, exps, out_dir, setup, fingerprint) -> int:
    checker = Checker(args.workload, fingerprint)
    walls, rates = [], []

    def one_pass():
        run, digests, _ = _one_pass(exps, out_dir)
        checker.add(run, digests)
        walls.append(run.wall_s)
        cells = run.cells.values()
        rates.append(sum(c.iterations for c in cells) / sum(c.wall_time for c in cells))

    repeat_passes(args.seconds, one_pass)
    setup += setup_seconds(args.workload)
    first = checker.first
    if checker.passes == 1:
        cell, same = repeat_cell(first, checker.first_digests, out_dir / "repeat")
        checker.add_result(f"repeat of {cell}", 1, 0 if same else 1,
                           [] if same else ["report differs from the first pass"])
    _cell_table(first)
    print(f"passes: {len(walls)}  wall_s median {statistics.median(walls):.6f} s, "
          f"tail {tail(walls)}")
    print(f"setup_s samples: {[round(s, 6) for s in setup]}")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "iters_per_s": (statistics.median(rates), "1/s"),
        "iterations": (sum(c.iterations for c in first.cells.values()), "count"),
        "f_evals": (sum(c.f_evals for c in first.cells.values()), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"failed_frac: {checker.failed}/{checker.attempted} cells")
    return _finish(checker, {name: {"value": value, "unit": unit}
                             for name, (value, unit) in metrics.items()})


def traced_run(args, exps, out_dir, env, fingerprint) -> int:
    import selftest
    from probe import Tracer, installed

    checker = Checker(args.workload, fingerprint)
    checker.add_result("selftest", *selftest.differential(args.workload))
    tracer = Tracer()
    per_pass, walls = [], []
    first = {}

    def traced_pass():
        with installed(tracer):
            return _one_pass(exps, out_dir, tracer)

    def pair():
        # alternate which side goes first, so neither always runs warmer
        if len(walls) % 2:
            traced = traced_pass()
            plain = _one_pass(exps, out_dir)
        else:
            plain = _one_pass(exps, out_dir)
            traced = traced_pass()
        for run, digests, _ in (plain, traced):
            checker.add(run, digests)
        counts, tracer.counts = tracer.counts, Counter()
        spans = tracer.take()
        run, _, size = traced
        values, accounts, problems = layer_metrics(
            run, spans, counts, size, run.wall_s - plain[0].wall_s
        )
        checker.add_result(f"traced pass {len(walls)}", 0, 0, problems)
        if not first:
            first.update(spans=spans, accounts=accounts)
        per_pass.append(values)
        walls.append((plain[0].wall_s, run.wall_s))

    repeat_passes(args.seconds, pair)
    print(f"{'cell':44} {'f_evals':>7} {'counted':>7} {'gap':>4} {'solve_s':>9} "
          f"{'children':>9} {'self_s':>9}")
    for cell, a in sorted(first["accounts"].items()):
        print(f"{cell:44} {a['f_evals']:7d} {a['residual_calls']:7d} {a['f_evals_gap']:4d} "
              f"{a['solve_s']:9.4f} {a['children_s']:9.4f} {a['self_s']:9.4f}")
    trace_dir = HERE / "_traces"
    trace_dir.mkdir(exist_ok=True)
    trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "environment": env,
        "cells": first["accounts"],
        "span_fields": ["name", "start", "end", "parent", "cell"], "spans": first["spans"],
    }))
    print(f"traced pairs: {len(walls)}  median wall_s untraced "
          f"{statistics.median(w[0] for w in walls):.6f} s, traced "
          f"{statistics.median(w[1] for w in walls):.6f} s")
    print(f"spans of the first traced pass: {trace_file.relative_to(ROOT)}")
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        value = statistics.median(v[name][0] for v in per_pass)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:40} {value:14.6f} {unit}")
    return _finish(checker, metrics)


if __name__ == "__main__":
    raise SystemExit(main())
