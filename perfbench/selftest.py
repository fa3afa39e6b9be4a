"""Self-test of the benchmark's probe and seed handling.

- Differential: on one small cell per workload, a solve run under the probe
  (probe.installed) gives bit-identical trace, final_res, x and iterate
  history to an unprobed one, for every method of the cell.
- Seed: two seeds give the same per-cell counts on the registry workload.

run.py runs the differential part at the start of every traced run.
Standalone, from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
from pathlib import Path

from workloads import ALL_METHODS, NA_METHODS, experiment_specs, run_pass, seeded_order

SMALL = {
    "multipoly": {"problem": "multipoly", "n": 2000, "k": 3, "methods": NA_METHODS,
                  "keep_history": True},
    "heq": {"problem": "heq", "n": 300, "omega": 1.0, "methods": ALL_METHODS},
    "registry": {"problem": "Bullard-Biegler", "methods": ALL_METHODS},
}


def _bits(outcome) -> tuple:
    history = outcome.iterate_history or ()
    return (
        repr([dataclasses.astuple(rec) for rec in outcome.trace]),
        outcome.final_res.hex(),
        outcome.x.tobytes(),
        b"".join(x.tobytes() for x in history),
    )


def differential(workload: str) -> tuple[int, int, list[str]]:
    """Returns (cells attempted, cells failed, messages)."""
    from nasolve import harness

    from probe import Tracer, installed

    (spec,) = experiment_specs(SMALL[workload])
    original = harness.solve
    plain = harness.run_experiment(spec)
    tracer = Tracer()
    with installed(tracer):
        probed = harness.run_experiment(spec)
    messages = []
    if harness.solve is not original:
        messages.append("probe.installed did not restore nasolve.harness.solve")
    solves = sum(1 for span in tracer.spans if span[0] == "solvers.solve")
    if solves != len(spec.methods):
        messages.append(f"probe saw {solves} solves, expected {len(spec.methods)}")
    failed = 0
    for a, b in zip(plain.rows, probed.rows):
        if a.outcome is None or b.outcome is None or _bits(a.outcome) != _bits(b.outcome):
            failed += 1
            messages.append(f"selftest {plain.problem}/{a.method.value}: probed solve differs")
    return len(plain.rows), failed, messages


def seed_invariance(out_dir: Path) -> list[str]:
    counts = []
    for seed in (1, 2):
        run = run_pass(seeded_order("registry", seed), out_dir / str(seed))
        counts.append({name: (c.converged, c.iterations, c.f_evals)
                       for name, c in run.cells.items()})
    return [] if counts[0] == counts[1] else ["seeds 1 and 2 give different registry counts"]


def main() -> int:
    from workloads import use_checkout_source

    use_checkout_source()
    messages = []
    for workload in SMALL:
        attempted, failed, msgs = differential(workload)
        print(f"differential {workload}: {attempted - failed}/{attempted} cells bit-identical")
        messages += msgs
    out_dir = Path(__file__).resolve().parent / "_work" / f"selftest-{os.getpid()}"
    try:
        messages += seed_invariance(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for line in messages:
        print("FAIL " + line)
    print("selftest " + ("failed" if messages else "passed"))
    return 1 if messages else 0


if __name__ == "__main__":
    sys.exit(main())
