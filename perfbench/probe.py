"""Outside-in tracing of one nasolve pass.

Nothing here edits the package.  While ``installed(tracer)`` is active the
tracer rebinds a few module attributes that the package looks up at call
time:

- ``nasolve.harness.resolve_problem`` builds the problem and returns a copy
  (``dataclasses.replace`` on the frozen ``NonlinearProblem``) whose
  ``residual`` and ``jacobian`` are timed, and whose Jacobians are proxied so
  ``solve``, ``matvec`` and ``to_dense`` are timed too;
- ``nasolve.harness.solve`` opens the span of one cell's solve;
- ``nasolve.solvers.{lstsq_gamma, gamma_safeguard, anderson_combine}`` are
  the gamma / safeguard / recombination step.

Every call becomes a span ``[name, start, end, parent, cell]`` kept in memory;
``parent`` indexes the enclosing span (-1 at the top) and ``cell`` names the
(problem, method) cell the span belongs to.  A span's self time is its
duration minus that of its children, which never overlap because the pass
runs on one thread.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.cell: str | None = None
        self._open: list[int] = []

    def call(self, name, fn, *args):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.cell]
        self.spans.append(span)
        self._open.append(idx)
        span[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    # -- probes -------------------------------------------------------------

    def probe_problem(self, p):
        residual, jacobian = p.residual, p.jacobian

        def traced_residual(x):
            return self.call("problems.residual", residual, x)

        def traced_jacobian(x):
            return JacobianProbe(self.call("problems.jacobian", jacobian, x), self)

        return dataclasses.replace(p, residual=traced_residual, jacobian=traced_jacobian)

    def _resolve_problem(self, original):
        def resolve_problem(spec):
            return self.probe_problem(self.call("problems.build", original, spec))

        return resolve_problem

    def _solve(self, original):
        def solve(p, method, cfg=None, keep_history=False):
            self.cell = f"{p.name}/{method.value}"
            try:
                return self.call("solvers.solve", original, p, method, cfg, keep_history)
            finally:
                self.cell = None

        return solve

    def _gamma(self, original):
        def gamma_step(*args):
            return self.call("solvers.gamma", original, *args)

        return gamma_step

    def _safeguard(self, original):
        def gamma_safeguard(*args):
            decision = self.call("solvers.gamma", original, *args)
            if decision.took_newton_step:
                self.counts["solvers.safeguard.newton_fallback"] += 1
            elif decision.lam < 1.0:
                self.counts["solvers.safeguard.scaled"] += 1
            return decision

        return gamma_safeguard


class JacobianProbe:
    """Stands in for a ``JacobianMatrix`` and times its operations."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.n = inner.n
        self._tracer = tracer

    def solve(self, b):
        from nasolve.linalg import SingularMatrix

        try:
            return self._tracer.call("linalg.solve", self.inner.solve, b)
        except SingularMatrix:
            self._tracer.counts["linalg.solve.singular"] += 1
            raise

    def matvec(self, v):
        return self._tracer.call("linalg.matvec", self.inner.matvec, v)

    def to_dense(self):
        return self._tracer.call("linalg.to_dense", self.inner.to_dense)

    def max_abs(self):
        return self.inner.max_abs()


@contextmanager
def installed(tracer: Tracer):
    """Rebind the probed package attributes for the duration of the block."""
    from nasolve import harness, solvers

    targets = [
        (harness, "resolve_problem", tracer._resolve_problem),
        (harness, "solve", tracer._solve),
        (solvers, "lstsq_gamma", tracer._gamma),
        (solvers, "anderson_combine", tracer._gamma),
        (solvers, "gamma_safeguard", tracer._safeguard),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in targets]
    for module, name, make in targets:
        setattr(module, name, make(getattr(module, name)))
    try:
        yield tracer
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def summarize(spans: list[list]) -> tuple[dict, dict, list[str]]:
    """Per-layer totals, per-cell counts and nesting violations of one pass.

    Returns ``(layers, cells, problems)``: ``layers`` maps a span name to
    ``[calls, seconds, self seconds]``; ``cells`` maps a cell to its counted
    ``residual`` calls, its ``linsolves`` and its solve ``span`` and
    ``children`` seconds; ``problems`` lists spans that leak out of their
    parent or whose children outlast them.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    layers: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    cells: dict[str, Counter] = defaultdict(Counter)
    problems = []
    for i, (name, start, end, parent, cell) in enumerate(spans):
        dur = end - start
        layer = layers[name]
        layer[0] += 1
        layer[1] += dur
        layer[2] += dur - child_s[i]
        if parent >= 0 and not (spans[parent][1] <= start <= end <= spans[parent][2]):
            problems.append(f"span {i} ({name}) leaks out of span {parent}")
        if child_s[i] > dur:
            problems.append(f"children of span {i} ({name}) outlast it")
        if cell is None:
            continue
        if name == "problems.residual":
            cells[cell]["residual"] += 1
        elif name == "linalg.solve":
            cells[cell]["linsolves"] += 1
        elif name == "solvers.solve":
            cells[cell]["span"] += dur
            cells[cell]["children"] += child_s[i]
    return dict(layers), dict(cells), problems
