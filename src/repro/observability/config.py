"""Observability configuration and the per-compile session.

Two layers, split so the sandboxed-worker path keeps working:

* :class:`Observability` -- a **frozen, picklable** configuration
  dataclass carried on :class:`repro.compiler.CompileOptions`.  It
  crosses the fork/pipe boundary with the task.
* :class:`ObservabilitySession` -- the **live** tracer / metrics
  registry / flight recorder built from the config inside whichever
  process runs the compile.  It is never pickled; its
  :meth:`~ObservabilitySession.export` produces the picklable
  :class:`ObservabilityData` that rides back on the
  ``CompileResult``, where a supervisor can re-parent the worker's
  spans into its own trace (:meth:`repro.observability.trace.Tracer.adopt`).

Instrumentation sites use the module-level :func:`span`, :func:`event`,
:func:`count` and :func:`gauge` helpers, which consult a context
variable holding the active session.  When observability is off (the
default) the context variable is ``None`` and every helper is a single
load + ``None`` check -- the pipeline constructs no tracer, no
registry, no recorder, and records nothing (asserted by
``tests/test_observability.py``).
"""

from __future__ import annotations

import contextvars
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from .metrics import (  # noqa: F401
    MetricsRegistry,
    parse_prometheus,
    render_prometheus,
)
from .recorder import FlightRecorder
from .trace import Span, Tracer, to_chrome, to_json

__all__ = [
    "OBS_SCHEMA",
    "Observability",
    "ObservabilityData",
    "ObservabilitySession",
    "current_session",
    "activate",
    "span",
    "event",
    "count",
    "gauge",
]

OBS_SCHEMA = "repro_observability/v1"


@dataclass(frozen=True)
class Observability:
    """Observability switchboard, carried on ``CompileOptions``.

    ``enabled=False`` (the default) keeps the entire subsystem inert.
    The three component flags allow partial capture (e.g. recorder-only
    post-mortems on a production sweep where full tracing would be too
    chatty).
    """

    enabled: bool = False
    trace: bool = True
    metrics: bool = True
    recorder: bool = True
    #: Ring-buffer capacity of the flight recorder (last-N iterations).
    recorder_capacity: int = 128
    #: When set, every compile writes ``<trace_dir>/<kernel>.trace.json``
    #: (Chrome trace-event format) on completion -- the evaluation
    #: CLI's ``--trace-out`` plumbs into this.
    trace_dir: Optional[str] = None
    #: When set, a failed / timed-out / degraded compile writes
    #: ``<postmortem_dir>/<kernel>.postmortem.json`` (flight-recorder
    #: dump) even when the compile raises.
    postmortem_dir: Optional[str] = None

    @staticmethod
    def on(**overrides: Any) -> "Observability":
        """Shorthand for a fully-enabled configuration."""
        return Observability(enabled=True, **overrides)


@dataclass
class ObservabilityData:
    """Picklable export of one session (rides on ``CompileResult``)."""

    schema: str = OBS_SCHEMA
    spans: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    recorder: Dict[str, Any] = field(default_factory=dict)

    @property
    def prometheus(self) -> str:
        """Exposition text, rendered on demand from the JSON snapshot
        so the per-compile export path never pays for string assembly."""
        return render_prometheus(self.metrics)

    def chrome_trace(self) -> Dict[str, Any]:
        return to_chrome(self.spans)

    def trace_json(self) -> Dict[str, Any]:
        return to_json(self.spans)

    def span_named(self, name: str) -> Optional[Dict[str, Any]]:
        for s in self.spans:
            if s["name"] == name:
                return s
        return None


class ObservabilitySession:
    """Live tracer + metrics + recorder for one process."""

    def __init__(self, config: Optional[Observability] = None) -> None:
        self.config = config or Observability(enabled=True)
        self.tracer: Optional[Tracer] = (
            Tracer() if self.config.trace else None
        )
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if self.config.metrics else None
        )
        self.recorder: Optional[FlightRecorder] = (
            FlightRecorder(self.config.recorder_capacity)
            if self.config.recorder
            else None
        )

    def export(self) -> ObservabilityData:
        return ObservabilityData(
            spans=self.tracer.export() if self.tracer else [],
            metrics=self.metrics.to_json() if self.metrics else {},
            recorder=self.recorder.dump() if self.recorder else {},
        )

    # -- convenience pass-throughs ------------------------------------

    def record_event(self, kind: str, **details: Any) -> None:
        if self.recorder is not None:
            self.recorder.record_event(kind, **details)
        if self.tracer is not None:
            self.tracer.event(kind, **details)


# ----------------------------------------------------------------------
# Ambient session (instrumentation sites)
# ----------------------------------------------------------------------

_ACTIVE: "contextvars.ContextVar[Optional[ObservabilitySession]]" = (
    contextvars.ContextVar("repro_observability_session", default=None)
)


def current_session() -> Optional[ObservabilitySession]:
    return _ACTIVE.get()


@contextmanager
def activate(session: Optional[ObservabilitySession]) -> Iterator[None]:
    """Make ``session`` the ambient session for the dynamic extent.
    ``activate(None)`` deactivates (used to assert the disabled path)."""
    token = _ACTIVE.set(session)
    try:
        yield
    finally:
        _ACTIVE.reset(token)


class _NullHandle:
    """No-op span context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> Optional[Span]:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_HANDLE = _NullHandle()


def span(name: str, **attributes: Any):
    """Open a span on the ambient tracer (no-op when disabled).

    The returned context manager yields the live :class:`Span`, or
    ``None`` when observability is off -- guard attribute writes with
    ``if s is not None``.
    """
    session = _ACTIVE.get()
    if session is None or session.tracer is None:
        return _NULL_HANDLE
    return session.tracer.span(name, **attributes)


def event(kind: str, **details: Any) -> None:
    """Record a point event on the ambient session (trace + recorder)."""
    session = _ACTIVE.get()
    if session is not None:
        session.record_event(kind, **details)


def count(name: str, help_text: str, amount: float = 1, **labels: str) -> None:
    """Add ``amount`` to a counter on the ambient metrics registry (no-op
    without a session that records metrics); ``labels`` pick the child."""
    session = _ACTIVE.get()
    if session is None or session.metrics is None:
        return
    counter = session.metrics.counter(name, help_text, tuple(sorted(labels)))
    (counter.labels(**labels) if labels else counter).inc(amount)


def gauge(name: str, help_text: str, value: float) -> None:
    """Set a gauge on the ambient metrics registry (no-op without a
    session that records metrics)."""
    session = _ACTIVE.get()
    if session is not None and session.metrics is not None:
        session.metrics.gauge(name, help_text).set(value)


def write_compile_artifacts(
    data: ObservabilityData,
    config: Observability,
    kernel: str,
    *,
    failed: bool,
) -> List[str]:
    """Write the per-compile artifact files the config asks for.

    Returns the paths written.  Never raises: artifact persistence must
    not turn a successful compile into a failure (write errors are
    reported as a recorder event in the returned data instead).
    """
    written: List[str] = []
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in kernel)
    try:
        if config.trace_dir:
            os.makedirs(config.trace_dir, exist_ok=True)
            path = os.path.join(config.trace_dir, f"{safe}.trace.json")
            _dump_json(path, data.chrome_trace())
            written.append(path)
        if config.postmortem_dir and failed and data.recorder:
            os.makedirs(config.postmortem_dir, exist_ok=True)
            path = os.path.join(
                config.postmortem_dir, f"{safe}.postmortem.json"
            )
            _dump_json(path, data.recorder)
            written.append(path)
    except OSError as exc:  # pragma: no cover - disk-full etc.
        data.recorder.setdefault("write_errors", []).append(str(exc))
    return written


def _dump_json(path: str, payload: Dict[str, Any]) -> None:
    import json

    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
