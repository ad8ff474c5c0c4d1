"""Observability subsystem: tracing, metrics, flight recording, reports.

The pipeline's diagnostic layer (DESIGN.md §9):

* :mod:`~repro.observability.trace` -- nested span tracer with JSON
  and Chrome trace-event exporters; fork-safe (worker spans re-parent
  into the supervisor's trace);
* :mod:`~repro.observability.metrics` -- counters / gauges /
  fixed-bucket histograms with Prometheus text exposition;
* :mod:`~repro.observability.recorder` -- ring-buffered saturation
  flight recorder dumped on success *and* failure;
* :mod:`~repro.observability.report` -- terminal/HTML rendering
  (``repro trace <kernel>``);
* :mod:`~repro.observability.config` -- the :class:`Observability`
  switchboard threaded through ``CompileOptions`` (default: off, zero
  construction), the live :class:`ObservabilitySession`, and the
  ambient-session helpers instrumentation sites use.
"""

from .config import (
    OBS_SCHEMA,
    Observability,
    ObservabilityData,
    ObservabilitySession,
    activate,
    count,
    current_session,
    event,
    gauge,
    span,
    write_compile_artifacts,
)
from .metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    parse_prometheus,
    render_prometheus,
)
from .recorder import RECORDER_SCHEMA, FlightRecorder
from .report import render_html, render_text
from .trace import (
    TRACE_SCHEMA,
    Span,
    Tracer,
    parse_json,
    to_chrome,
    to_json,
    validate_chrome_trace,
    validate_chrome_trace_file,
    validate_spans,
)

__all__ = [
    "OBS_SCHEMA",
    "TRACE_SCHEMA",
    "METRICS_SCHEMA",
    "RECORDER_SCHEMA",
    "Observability",
    "ObservabilityData",
    "ObservabilitySession",
    "MetricsRegistry",
    "FlightRecorder",
    "Tracer",
    "Span",
    "activate",
    "current_session",
    "span",
    "event",
    "count",
    "gauge",
    "write_compile_artifacts",
    "render_text",
    "render_html",
    "to_json",
    "to_chrome",
    "parse_json",
    "parse_prometheus",
    "render_prometheus",
    "validate_spans",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
]
