"""Observability across the process-isolation boundary.

Worker spans captured inside a forked sandbox must come back on the
pickled ``CompileResult`` and re-parent into the supervisor's trace;
a worker that dies uncleanly must leave its stderr tail in the failure
record and in the flight recorder.
"""

import pytest

from tests.conftest import HANG_SECONDS, worker_fault
from repro.chaos import FaultPlan
from repro.compiler import CompileOptions
from repro.errors import WorkerCrashError, WorkerTimeoutError
from repro.kernels import get_kernel
from repro.observability import (
    Observability,
    ObservabilitySession,
    activate,
    validate_spans,
)
from repro.service import CompileService, RetryPolicy, WorkerLimits


def _spec():
    return get_kernel("matmul-2x2-2x2").spec()


class TestForkReparenting:
    def test_worker_spans_adopted_into_supervisor_trace(self):
        service = CompileService(isolate=True)
        session = ObservabilitySession(Observability.on())
        with activate(session):
            result = service.compile_spec(
                _spec(),
                CompileOptions(observability=Observability.on()),
            )
        # The worker's own export still rides on the result...
        assert result.observability is not None
        assert result.observability.span_named("compile") is not None

        # ...and was merged under the supervisor's attempt span.
        spans = session.tracer.export()
        validate_spans(spans)
        by_name = {s["name"]: s for s in spans}
        assert {"service.compile", "service.attempt", "compile",
                "saturation"} <= set(by_name)
        attempt = by_name["service.attempt"]
        compile_root = by_name["compile"]
        assert compile_root["parent_id"] == attempt["span_id"]
        # The adopted spans really came from another process.
        assert compile_root["pid"] != attempt["pid"]
        # Worker-internal parentage survives adoption.
        assert by_name["saturation"]["parent_id"] == compile_root["span_id"]

    def test_in_process_service_also_adopts(self):
        service = CompileService(isolate=False)
        session = ObservabilitySession(Observability.on())
        with activate(session):
            service.compile_spec(
                _spec(), CompileOptions(observability=Observability.on())
            )
        by_name = {s["name"]: s for s in session.tracer.export()}
        assert by_name["compile"]["parent_id"] == (
            by_name["service.attempt"]["span_id"]
        )

    def test_service_spans_without_worker_observability(self):
        # Service-level tracing works even when the compile itself runs
        # with observability off (no worker spans to adopt).
        service = CompileService(isolate=True)
        session = ObservabilitySession(Observability.on())
        with activate(session):
            result = service.compile_spec(_spec(), CompileOptions())
        assert result.observability is None
        names = {s["name"] for s in session.tracer.export()}
        assert {"service.compile", "service.attempt"} <= names
        assert "compile" not in names


class TestStderrTail:
    def test_sigkill_crash_carries_stderr_tail(self):
        service = CompileService(
            isolate=True, policy=RetryPolicy(max_attempts=1)
        )
        session = ObservabilitySession(Observability.on())
        with activate(session), pytest.raises(WorkerCrashError) as info:
            service.compile_spec(
                _spec(), CompileOptions(),
                FaultPlan([worker_fault("sigkill")]),
            )
        exc = info.value
        assert exc.stderr_tail is not None
        assert "injected chaos fault: sigkill at worker.start" in exc.stderr_tail
        # The tail is part of the printed failure record...
        assert "worker stderr" in str(exc)
        # ...and of the flight-recorder event stream.
        (crash,) = session.recorder.events_of("worker_crash")
        assert "sigkill" in crash["details"]["stderr_tail"]

    def test_raise_mode_tail_contains_traceback(self):
        service = CompileService(
            isolate=True, policy=RetryPolicy(max_attempts=1)
        )
        with pytest.raises(Exception) as info:
            service.compile_spec(
                _spec(), CompileOptions(),
                FaultPlan([worker_fault("raise")]),
            )
        # The worker survived long enough to ship an encoded error; its
        # stderr traceback lands in the reconstructed error's partials.
        tail = info.value.partial.get("stderr_tail", "")
        assert "injected chaos fault" in tail
        assert "InjectedFaultError" in tail

    def test_kill_timeout_carries_stderr_tail(self):
        service = CompileService(
            isolate=True,
            policy=RetryPolicy(max_attempts=1),
            limits=WorkerLimits(kill_timeout=1.0),
        )
        session = ObservabilitySession(Observability.on())
        with activate(session), pytest.raises(WorkerTimeoutError) as info:
            service.compile_spec(
                _spec(), CompileOptions(),
                FaultPlan([worker_fault("sleep", seconds=HANG_SECONDS)]),
            )
        assert "injected chaos fault: sleep at worker.start" in (
            info.value.stderr_tail or ""
        )
        (ev,) = session.recorder.events_of("worker_timeout")
        assert ev["details"]["kill_timeout"] == 1.0

    def test_healthy_worker_leaves_no_tail_artifacts(self, tmp_path):
        import glob
        import tempfile

        service = CompileService(isolate=True)
        service.compile_spec(_spec(), CompileOptions())
        leftovers = glob.glob(
            tempfile.gettempdir() + "/repro-worker-matmul-2x2-2x2*"
        )
        assert leftovers == []


class TestServiceMetrics:
    def test_retry_and_crash_counters(self):
        service = CompileService(
            isolate=True, policy=RetryPolicy(max_attempts=2, backoff_base=0.01)
        )
        session = ObservabilitySession(Observability.on())
        with activate(session):
            # Crash on attempt 0, succeed on attempt 1.
            result = service.compile_spec(
                _spec(), CompileOptions(),
                FaultPlan([worker_fault("sigkill")]),
            )
        assert result.diagnostics.attempts == 2
        samples = {
            name: value for name, labels, value in session.metrics.samples()
        }
        assert samples["repro_service_worker_crashes_total"] == 1
        assert samples["repro_service_retries_total"] == 1
