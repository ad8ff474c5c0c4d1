"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's own code only: around the
calls it makes itself (the ``compile`` request, ``frontend.lift``) and
by temporarily wrapping the public functions and methods each compiler
layer exposes (``build_ruleset``, ``Runner.run``, ``Extractor.extract``,
``lower_spec_program`` ...).  Nothing under ``src/`` knows it is being
timed; :meth:`Tracer.restore` puts every wrapped attribute back.

A span is ``(id, name, start, end, parent, request)``; spans of one
request share its id, and a child inherits its parent's request.  A
layer's *self time* is its span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "Tracer", "self_times", "compiler_layers"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; parents are tracked per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[Tuple[int, Optional[str]]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None, **attrs) -> Iterator[Span]:
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, None)
        record = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent,
            request=request if request is not None else inherited,
            attrs=dict(attrs),
        )
        stack.append((record.id, record.request))
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def add(self, name: str, start: float, end: float, request: Optional[str] = None,
            parent: Optional[int] = None, **attrs) -> Span:
        """Record a span whose interval was measured by the caller."""
        record = Span(next(self._ids), name, start, end, parent, request, dict(attrs))
        with self._lock:
            self.spans.append(record)
        return record

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` until :meth:`restore` puts the original back."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that runs inside a span
        named ``name``."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        self.patch(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([asdict(s) for s in sorted(self.spans, key=lambda s: s.start)],
                      handle)
            handle.write("\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time covered by its children."""
    child_time: Dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_time.get(s.id, 0.0) for s in spans}


@contextlib.contextmanager
def compiler_layers(tracer: Tracer) -> Iterator[Tracer]:
    """Trace every layer entry point ``compile_spec`` reaches until the
    block exits.  Module-level names are patched where the compiler and
    the phase executor look them up."""
    import repro.compiler as compiler
    import repro.phases.execute as phase_exec
    from repro.egraph.egraph import EGraph
    from repro.egraph.extract import Extractor
    from repro.egraph.runner import Runner

    try:
        for owner, attr, name in [
            (compiler, "build_ruleset", "rules.build"),
            (phase_exec, "build_ruleset", "rules.build"),
            (EGraph, "add_term", "egraph.seed"),
            # The constructor runs the cost fixpoint; extract() builds the term.
            (Extractor, "__init__", "egraph.extract"),
            (Extractor, "extract", "egraph.extract"),
            (compiler, "unique_size", "phases.select"),
            (compiler, "execute_plan", "phases.execute_plan"),
            (compiler, "lower_spec_program", "backend.lower"),
            (compiler, "lvn_optimize", "backend.lvn"),
            (compiler, "emit_c", "backend.codegen"),
            (compiler, "validate", "validation.validate"),
        ]:
            tracer.wrap(owner, attr, name)
        _trace_runner(tracer, Runner)
        yield tracer
    finally:
        tracer.restore()


def _rule_totals(stats) -> Tuple[float, int, int]:
    values = list(stats.values())
    return (
        sum(s.search_time for s in values),
        sum(s.classes_visited for s in values),
        sum(s.matches for s in values),
    )


def _trace_runner(tracer: Tracer, runner_class) -> None:
    """``Runner.run`` as an ``egraph.saturate`` span carrying this run's
    own counters.  A phase round's scheduler starts from the rule
    statistics of earlier rounds, so the run's share is the difference
    between its report and the statistics it started with."""
    original = runner_class.run

    def run(runner, egraph):
        start = runner.scheduler.stats if runner.scheduler is not None else {}
        before = _rule_totals(start)
        with tracer.span("egraph.saturate") as span:
            report = original(runner, egraph)
        after = _rule_totals(report.rule_stats)
        span.attrs.update(
            search_s=after[0] - before[0],
            classes_visited=after[1] - before[1],
            matches=after[2] - before[2],
            unions=sum(it.unions for it in report.iterations),
            iterations=len(report.iterations),
            peak_nodes=max((it.nodes for it in report.iterations), default=0),
        )
        return report

    tracer.patch(runner_class, "run", run)
