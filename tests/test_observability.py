"""Tests for the observability subsystem (tracing, metrics, recorder,
reports) and its integration with the compile pipeline.

Covers the ISSUE's required scenarios: trace and metrics exports
round-trip through their text formats, a disabled-observability
pipeline run constructs no session and records no spans, and a
deadline-expired compile still dumps a flight-recorder post-mortem.
"""

import dataclasses
import json
import os
import threading

import pytest

from repro.compiler import CompileOptions, compile_spec
from repro.kernels import get_kernel
from repro.observability import (
    METRICS_SCHEMA,
    RECORDER_SCHEMA,
    TRACE_SCHEMA,
    FlightRecorder,
    MetricsRegistry,
    Observability,
    ObservabilitySession,
    Tracer,
    activate,
    current_session,
    event,
    parse_json,
    parse_prometheus,
    span,
    to_chrome,
    to_json,
    validate_chrome_trace,
    validate_chrome_trace_file,
    validate_spans,
)
from repro.observability.report import render_html, render_text, stage_waterfall


def _small_spec():
    return get_kernel("matmul-2x2-2x2").spec()


# ---------------------------------------------------------------------------
# Tracer


class TestTracer:
    def test_nested_spans_parentage(self):
        tracer = Tracer()
        with tracer.span("outer", kernel="k") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        spans = tracer.export()
        assert len(spans) == 2
        validate_spans(spans)
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        assert by_name["outer"]["duration"] >= by_name["inner"]["duration"]

    def test_span_exception_marks_not_ok(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("bad"):
                raise ValueError("boom")
        (s,) = tracer.export()
        assert s["ok"] is False
        assert "boom" in s["attributes"]["error"]

    def test_trace_json_roundtrip(self):
        tracer = Tracer()
        with tracer.span("a", x=1):
            with tracer.span("b"):
                tracer.event("tick", n=2)
        payload = to_json(tracer.export())
        assert payload["schema"] == TRACE_SCHEMA
        text = json.dumps(payload)
        spans = parse_json(json.loads(text))
        assert spans == tracer.export()

    def test_parse_json_refuses_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            parse_json({"schema": "something/v9", "spans": []})

    def test_chrome_trace_export(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.event("marker")
        chrome = to_chrome(tracer.export())
        n = validate_chrome_trace(chrome)
        assert n == 2  # one X event, one i event
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(chrome))
        assert validate_chrome_trace_file(str(path)) == 2

    def test_threaded_spans_do_not_interleave(self):
        tracer = Tracer()
        errors = []

        def work(i):
            try:
                with tracer.span(f"thread-{i}"):
                    with tracer.span(f"child-{i}") as child:
                        assert child.parent_id is not None
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        spans = tracer.export()
        assert len(spans) == 16
        validate_spans(spans)
        by_id = {s["span_id"]: s for s in spans}
        for s in spans:
            if s["name"].startswith("child-"):
                i = s["name"].split("-")[1]
                assert by_id[s["parent_id"]]["name"] == f"thread-{i}"

    def test_adopt_reparents_foreign_roots(self):
        worker = Tracer()
        with worker.span("compile"):
            with worker.span("saturation"):
                pass
        supervisor = Tracer()
        with supervisor.span("service.attempt") as att:
            supervisor.adopt(worker.export(), att.span_id)
        spans = supervisor.export()
        by_name = {s["name"]: s for s in spans}
        assert by_name["compile"]["parent_id"] == by_name["service.attempt"]["span_id"]
        # Non-root worker spans keep their worker-local parent.
        assert by_name["saturation"]["parent_id"] == by_name["compile"]["span_id"]
        validate_spans(spans)


# ---------------------------------------------------------------------------
# Metrics


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", "jobs", labels=("status",))
        c.labels(status="ok").inc()
        c.labels(status="ok").inc(2)
        c.labels(status="fail").inc()
        g = reg.gauge("depth", "queue depth")
        g.set(5)
        g.dec(2)
        h = reg.histogram("latency_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(10.0)
        samples = {(n, tuple(sorted(l.items()))): v for n, l, v in reg.samples()}
        assert samples[("jobs_total", (("status", "ok"),))] == 3
        assert samples[("jobs_total", (("status", "fail"),))] == 1
        assert samples[("depth", ())] == 3
        assert samples[("latency_seconds_count", ())] == 3
        assert samples[("latency_seconds_bucket", (("le", "0.1"),))] == 1
        assert samples[("latency_seconds_bucket", (("le", "1"),))] == 2
        assert samples[("latency_seconds_bucket", (("le", "+Inf"),))] == 3

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("x_total", "x").inc(-1)

    def test_prometheus_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "a", labels=("k",)).labels(k="v1").inc(7)
        reg.gauge("b", "b").set(2.5)
        reg.histogram("c_seconds", "c", buckets=(1.0,)).observe(0.5)
        text = reg.to_prometheus()
        parsed = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in parse_prometheus(text)
        }
        expected = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in reg.samples()
        }
        assert parsed == expected

    def test_json_export_schema(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "a").inc()
        payload = reg.to_json()
        assert payload["schema"] == METRICS_SCHEMA
        assert json.loads(json.dumps(payload)) == payload

    def test_idempotent_declaration(self):
        reg = MetricsRegistry()
        c1 = reg.counter("a_total", "a")
        c2 = reg.counter("a_total", "a")
        assert c1 is c2
        with pytest.raises(ValueError):
            reg.gauge("a_total", "different kind")


# ---------------------------------------------------------------------------
# Flight recorder


class TestFlightRecorder:
    def test_ring_buffer_drops_oldest(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record_iteration(
                i, nodes=i * 10, classes=i, matches=0, applied=0,
                unions=0, elapsed=0.0,
            )
        dump = rec.dump()
        assert dump["schema"] == RECORDER_SCHEMA
        assert dump["iterations_seen"] == 10
        assert dump["iterations_dropped"] == 6
        assert [s["index"] for s in dump["snapshots"]] == [6, 7, 8, 9]
        assert rec.growth_curve() == [60, 70, 80, 90]

    def test_events_and_stop_reason(self, tmp_path):
        rec = FlightRecorder()
        rec.record_event("watchdog_trip", limit=100, nodes=150)
        rec.record_event("scheduler_ban", rule="assoc")
        rec.record_stop("node_limit")
        assert [e["kind"] for e in rec.events_of("watchdog_trip")] == [
            "watchdog_trip"
        ]
        path = tmp_path / "rec.json"
        rec.dump_to(str(path))
        dump = json.loads(path.read_text())
        assert dump["stop_reason"] == "node_limit"
        assert len(dump["events"]) == 2


# ---------------------------------------------------------------------------
# Ambient session helpers


class TestAmbientSession:
    def test_helpers_are_noops_without_session(self):
        assert current_session() is None
        with span("anything", x=1) as s:
            assert s is None
        event("ignored")  # must not raise

    def test_activate_scopes_the_session(self):
        session = ObservabilitySession(Observability.on())
        with activate(session):
            assert current_session() is session
            with span("inside") as s:
                assert s is not None
        assert current_session() is None
        assert [s["name"] for s in session.tracer.export()] == ["inside"]


# ---------------------------------------------------------------------------
# Pipeline integration


class TestPipelineIntegration:
    def test_disabled_observability_records_nothing(self):
        # No config at all: the result carries no observability data
        # and no ambient session is ever activated.
        result = compile_spec(_small_spec(), CompileOptions())
        assert result.observability is None
        assert current_session() is None

    def test_enabled_false_config_records_nothing(self):
        result = compile_spec(
            _small_spec(),
            CompileOptions(observability=Observability(enabled=False)),
        )
        assert result.observability is None

    def test_enabled_pipeline_produces_full_bundle(self):
        obs = Observability.on()
        result = compile_spec(
            _small_spec(), CompileOptions(observability=obs)
        )
        data = result.observability
        assert data is not None
        names = {s["name"] for s in data.spans}
        assert {"compile", "saturation", "extraction", "lowering",
                "backend.lower", "backend.lvn", "backend.codegen",
                "validation", "validation.validate"} <= names
        validate_spans(data.spans)
        validate_chrome_trace(data.chrome_trace())
        # Stage spans nest under the compile root.
        root = data.span_named("compile")
        sat = data.span_named("saturation")
        assert sat["parent_id"] == root["span_id"]
        # Metrics round-trip through the Prometheus exposition.
        parsed = parse_prometheus(data.prometheus)
        assert parsed  # non-empty
        names = {n for n, _, _ in parsed}
        assert "repro_compile_seconds_count" in names
        assert "repro_stage_seconds_count" in names
        assert "repro_validation_lanes_total" in names
        # Recorder saw every saturation iteration.
        assert data.recorder["iterations_seen"] == len(
            result.report.iterations
        )

    def test_options_and_data_are_picklable(self):
        import pickle

        obs = Observability.on(trace_dir="/tmp/x")
        opts = CompileOptions(observability=obs)
        assert pickle.loads(pickle.dumps(opts)).observability == obs
        result = compile_spec(_small_spec(), CompileOptions(observability=Observability.on()))
        clone = pickle.loads(pickle.dumps(result.observability))
        assert clone.spans == result.observability.spans

    def test_deadline_timeout_dumps_postmortem(self, tmp_path):
        pm_dir = tmp_path / "pm"
        obs = Observability.on(
            postmortem_dir=str(pm_dir), trace_dir=str(tmp_path / "tr")
        )
        # Warm, 2dconv-3x3-3x3 saturates in about 21 ms: a 20 ms limit
        # left it room to finish.
        options = CompileOptions(
            time_limit=0.005, observability=obs, validate=False
        )
        result = compile_spec(get_kernel("2dconv-3x3-3x3").spec(), options)
        assert result.timed_out
        (pm_file,) = list(pm_dir.iterdir())
        dump = json.loads(pm_file.read_text())
        assert dump["schema"] == RECORDER_SCHEMA
        assert dump["stop_reason"] == "time_limit"
        # The deadline can fire between iterations (deadline_expired)
        # or inside the apply loop (watchdog_trip with the time limit).
        assert any(
            e["kind"] == "deadline_expired"
            or (
                e["kind"] == "watchdog_trip"
                and e["details"].get("limit") == "time_limit"
            )
            for e in dump["events"]
        )
        # The trace artifact is written too.
        assert validate_chrome_trace_file(
            str(tmp_path / "tr" / "2dconv-3x3-3x3.trace.json")
        )

    def test_scheduler_bans_land_in_recorder(self):
        # A tiny match budget forces bans on the AC rules.
        obs = Observability.on()
        options = CompileOptions(
            observability=obs, match_limit=1, validate=False,
            time_limit=None, iter_limit=6, node_limit=5_000,
        )
        result = compile_spec(_small_spec(), options)
        bans = [
            e for e in result.observability.recorder["events"]
            if e["kind"] == "scheduler_ban"
        ]
        assert bans, "expected at least one scheduler ban event"
        assert {"rule", "matches", "threshold"} <= set(bans[0]["details"])


# ---------------------------------------------------------------------------
# Report rendering


class TestReports:
    def _data(self):
        result = compile_spec(
            _small_spec(), CompileOptions(observability=Observability.on())
        )
        return result.observability

    def test_stage_waterfall(self):
        data = self._data()
        stages = stage_waterfall(data)
        names = [name for name, _, _ in stages]
        assert "saturation" in names and "lowering" in names
        for _, offset, duration in stages:
            assert offset >= 0 and duration >= 0

    def test_render_text(self):
        text = render_text(self._data(), kernel="matmul-2x2-2x2")
        assert "matmul-2x2-2x2" in text
        assert "stage waterfall" in text
        assert "saturation" in text

    def test_render_html(self):
        html = render_html(self._data(), kernel="matmul-2x2-2x2")
        assert html.lower().startswith("<!doctype html>")
        assert "matmul-2x2-2x2" in html
        assert "saturation" in html


# ---------------------------------------------------------------------------
# Overhead


def test_enabled_overhead_is_bounded():
    """Tracing on vs off on one kernel, compared by work, not wall time:
    the traced compile emits the same program after the same
    iterations, and records a few spans per stage and a few events per
    iteration -- never one per match, which would make tracing cost
    more than noise."""
    spec = get_kernel("2dconv-3x3-2x2").spec()
    base = CompileOptions(validate=False, time_limit=None, iter_limit=12,
                          node_limit=30_000)
    plain = compile_spec(spec, base)
    traced = compile_spec(
        spec, dataclasses.replace(base, observability=Observability.on())
    )
    assert traced.program.fingerprint() == plain.program.fingerprint()

    def work(result):
        return [
            dataclasses.replace(it, elapsed=0.0)
            for it in result.report.iterations
        ]

    assert work(traced) == work(plain)
    iterations = len(plain.report.iterations)
    matches = sum(it.matches for it in plain.report.iterations)
    data = traced.observability
    events = sum(len(s["events"]) for s in data.spans)
    events += len(data.recorder["events"])
    # Here: 8 iterations and 534 matches; 7 spans and 11 events.
    assert len(data.spans) <= 16
    assert events <= 2 * iterations + 4 < matches
