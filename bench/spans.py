"""In-memory span tracer for the benchmark's traced run.

While installed, the tracer replaces the module attributes through which the
varda pipeline calls its public functions with wrappers that record one span
per call: name, start, end, parent span and task id.  It also swaps the
callbacks of the ProblemSpec that `varda.cli.resolve_problem` returns for
counting callables.  Callbacks run tens of thousands of times per task, so
they are counted and timed in aggregate on the span that made the call, not
recorded as spans of their own.  Building the counting ProblemSpec with
`dataclasses.replace` runs its `__post_init__` spot check again; that is the
benchmark's work, so it gets a span of its own, WRAP, which is left out of
the root span's self time and of the tracing overhead.

A span's self time is its duration minus the time its child spans cover and
minus the time spent in callbacks made directly inside it.  The pipeline is
single-threaded, so the child spans of one span never overlap and their
durations simply add up.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

# ProblemSpec fields that hold callbacks.
CALLBACK_FIELDS = ("a", "a0", "f", "y_d", "y_d_t", "Ay_d", "y_b")


def _observe_solve(args, kwargs, result) -> dict:
    system = args[0] if args else kwargs["system"]
    return {
        "unknowns": int(system.A.shape[0]),
        "nnz": int(system.A.nnz),
        "residual": float(result.solver_residual),
    }


# (module, attribute, span name, observer).  The span name is the layer's
# module and the public function; `bisect_intervals` is wrapped where
# adaptivity binds it by name, because that is the name the loop calls.
TRACED_CALLS = (
    ("varda.assimilation", "assimilate", "assimilation.assimilate", None),
    ("varda.assimilation", "rmse", "assimilation.rmse", None),
    ("varda.elliptic", "assemble", "elliptic.assemble", None),
    ("varda.elliptic", "solve_sparse", "elliptic.solve_sparse", _observe_solve),
    ("varda.fem1d", "assemble_spatial_matrices", "fem1d.assemble_spatial_matrices", None),
    ("varda.forward", "solve_state", "forward.solve_state", None),
    ("varda.adaptivity", "adapt_loop", "adaptivity.adapt_loop", None),
    ("varda.adaptivity", "compute_indicators", "adaptivity.compute_indicators", None),
    ("varda.adaptivity", "mark", "adaptivity.mark", None),
    ("varda.adaptivity", "uniform_initial_errors", "adaptivity.uniform_initial_errors", None),
    ("varda.adaptivity", "bisect_intervals", "mesh.bisect_intervals", None),
)

# Name of the root span of a task: the whole `varda.cli.main` call.
ROOT = "cli"
# Name of the span that builds the counting ProblemSpec.
WRAP = "bench.wrap_spec"


@dataclasses.dataclass
class Span:
    id: int
    name: str
    task: int
    parent: int | None
    start: float
    end: float = 0.0
    callback_calls: int = 0
    callback_points: int = 0
    callback_s: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)


class Tracer:
    """Collects spans of the tasks run under `task()` while `installed()`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._task = -1

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, self._task, parent, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def task(self, task_id: int):
        """Open the root span of one task."""
        self._task = task_id
        with self.span(ROOT) as root:
            yield root

    def _traced(self, name: str, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if observe is not None:
                    s.attrs.update(observe(args, kwargs, result))
                return result

        return traced

    def _counted(self, fn):
        def counted(*args):
            start = time.perf_counter()
            out = fn(*args)
            elapsed = time.perf_counter() - start
            s = self._stack[-1]
            s.callback_calls += 1
            s.callback_points += int(np.size(out))
            s.callback_s += elapsed
            return out

        return counted

    def _counting_resolver(self, resolve):
        @functools.wraps(resolve)
        def resolve_counted(cfg):
            spec, exact_p = resolve(cfg)
            with self.span(WRAP):
                counted = {name: self._counted(getattr(spec, name)) for name in CALLBACK_FIELDS}
                spec = dataclasses.replace(spec, **counted)
            return spec, exact_p

        return resolve_counted

    @contextlib.contextmanager
    def installed(self):
        """Patch the traced attributes for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, observe in TRACED_CALLS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._traced(name, original, observe))
            cli = importlib.import_module("varda.cli")
            saved.append((cli, "resolve_problem", cli.resolve_problem))
            cli.resolve_problem = self._counting_resolver(cli.resolve_problem)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def task_metrics(self, task_id: int) -> dict[str, float]:
        """Per-layer metrics of one task, keyed by metric name.

        `<span>.calls` counts calls, `<span>.s` sums their durations and
        `<span>.self_s` their self times; the `problems.*` metrics sum the
        callbacks and the `elliptic.*` sizes are the largest solved system.
        """
        spans = [s for s in self.spans if s.task == task_id]
        child_s: defaultdict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_s[s.parent] += s.end - s.start
        calls: Counter[str] = Counter()
        total: defaultdict[str, float] = defaultdict(float)
        self_s: defaultdict[str, float] = defaultdict(float)
        for s in spans:
            duration = s.end - s.start
            calls[s.name] += 1
            total[s.name] += duration
            self_s[s.name] += duration - child_s[s.id] - s.callback_s
        metrics: dict[str, float] = {}
        for name in calls.keys() | {n for _, _, n, _ in TRACED_CALLS}:
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.s"] = total[name]
            metrics[f"{name}.self_s"] = self_s[name]
        solves = [s.attrs for s in spans if s.name == "elliptic.solve_sparse"]
        metrics["elliptic.unknowns"] = max((a["unknowns"] for a in solves), default=0)
        metrics["elliptic.nnz"] = max((a["nnz"] for a in solves), default=0)
        metrics["elliptic.solver_residual.max"] = max((a["residual"] for a in solves), default=0.0)
        program = [s for s in spans if s.name != WRAP]
        metrics["problems.callback_calls"] = sum(s.callback_calls for s in program)
        metrics["problems.callback_points"] = sum(s.callback_points for s in program)
        metrics["problems.callback_s"] = sum(s.callback_s for s in program)
        metrics[f"{WRAP}.s"] = total[WRAP]
        return metrics

    def dump(self) -> list[dict]:
        """Spans as plain dicts, for writing out when the run ends."""
        return [dataclasses.asdict(s) for s in self.spans]
