"""Graceful shutdown / drain of the compile service.

The satellite bugfix under test: a SIGTERM (or an explicit
``shutdown()``) must kill and *reap* in-flight workers -- no zombies,
no orphaned stderr scratch files -- refuse new work with a typed
:class:`~repro.errors.ShutdownError`, never count drain casualties as
circuit-breaker strikes, and support resuming afterwards.
"""

import glob
import os
import signal
import tempfile
import threading
import time

import pytest

from tests.conftest import HANG_SECONDS, worker_fault
from repro.chaos import FaultPlan, active_plan
from repro.compiler import CompileOptions
from repro.errors import CompileError, ShutdownError
from repro.frontend.lift import lift
from repro.service import (
    CompileService,
    RetryPolicy,
    WorkerLimits,
)

FAST = CompileOptions(
    time_limit=5.0, node_limit=20_000, iter_limit=8, validate=False
)
QUICK = RetryPolicy(max_attempts=2, backoff_base=0.01, backoff_jitter=0.0)
#: A first-attempt worker that hangs until it is killed.
HANG = worker_fault("sleep", seconds=HANG_SECONDS)


def _spec(name="shutdown-k"):
    def body(a, b, out):
        for i in range(2):
            out[i] = a[i] * b[i] + a[i]

    return lift(name, body, [("a", 2), ("b", 2)], [("out", 2)])


def _worker_scratch_files():
    return glob.glob(os.path.join(tempfile.gettempdir(), "repro-worker-*"))


def test_draining_service_refuses_new_work():
    service = CompileService(cache=None, isolate=False, policy=QUICK)
    service.shutdown()
    assert service.draining
    with pytest.raises(ShutdownError) as info:
        service.compile_spec(_spec(), FAST)
    assert isinstance(info.value, CompileError)  # typed, taxonomy error
    service.resume()
    assert not service.draining
    assert service.compile_spec(_spec(), FAST).program


def test_shutdown_kills_and_reaps_inflight_workers():
    """Drain mid-compile: the hanging worker is SIGKILLed and reaped by
    its supervising thread, the caller gets ShutdownError (not a raw
    crash), no strike is recorded, and no scratch files survive."""
    spec = _spec("shutdown-hang")
    service = CompileService(
        cache=None,
        isolate=True,
        policy=QUICK,
        limits=WorkerLimits(kill_timeout=120.0),
    )
    before = set(_worker_scratch_files())
    errors = []

    def compile_one():
        try:
            service.compile_spec(spec, FAST, FaultPlan([HANG]))
        except BaseException as exc:  # noqa: BLE001 - inspected below
            errors.append(exc)

    thread = threading.Thread(target=compile_one)
    thread.start()
    deadline = time.monotonic() + 10.0
    while not service._live and time.monotonic() < deadline:
        time.sleep(0.01)
    assert service._live, "worker never spawned"
    proc = service._live[0]

    service.shutdown()
    thread.join(timeout=15.0)
    assert not thread.is_alive(), "drain did not unblock the supervisor"

    assert len(errors) == 1 and isinstance(errors[0], ShutdownError)
    # The worker was reaped, not zombified: the supervising thread
    # joined and *closed* the process object (close() raises while the
    # child is unreaped), and the live registry is empty.
    assert service._live == []
    with pytest.raises(ValueError, match="closed"):
        proc.is_alive()
    # A drain is not the kernel's fault.
    assert service.strikes(spec.name) == 0
    assert not any(
        e["event"] == "strike" and e["kernel"] == spec.name
        for e in service.breaker_log
    )
    # No orphaned stderr scratch files.
    assert set(_worker_scratch_files()) <= before


def test_worker_forked_during_drain_is_killed():
    """A drain that sweeps the live workers while another one is still
    forking must not miss it: the late worker is killed as soon as it
    registers, instead of hanging until its kill-timeout."""
    spec = _spec("shutdown-late")
    service = CompileService(
        cache=None,
        isolate=True,
        policy=QUICK,
        limits=WorkerLimits(kill_timeout=20.0),
    )
    register = service._register

    def register_after_drain(proc):
        service.shutdown()  # the sweep runs before this worker is live
        register(proc)

    service._register = register_after_drain
    start = time.monotonic()
    with pytest.raises(ShutdownError):
        service.compile_spec(spec, FAST, FaultPlan([HANG]))
    assert time.monotonic() - start < 10.0
    assert service._live == []


def test_drain_casualties_are_not_retried():
    """With retries available, a drained compile still fails immediately
    with ShutdownError instead of burning shrunk-budget attempts."""
    spec = _spec("shutdown-once")
    service = CompileService(
        cache=None,
        isolate=True,
        policy=RetryPolicy(max_attempts=5, backoff_base=0.01, backoff_jitter=0.0),
        limits=WorkerLimits(kill_timeout=120.0),
    )
    result = {}

    def compile_one():
        try:
            service.compile_spec(spec, FAST, FaultPlan([HANG]))
        except BaseException as exc:  # noqa: BLE001
            result["error"] = exc

    thread = threading.Thread(target=compile_one)
    thread.start()
    deadline = time.monotonic() + 10.0
    while not service._live and time.monotonic() < deadline:
        time.sleep(0.01)
    service.shutdown()
    thread.join(timeout=15.0)
    assert isinstance(result.get("error"), ShutdownError)
    assert service.stats.retries == 0


def test_signal_handler_drains_and_chains(monkeypatch):
    """``install_signal_handlers`` wires SIGTERM to ``shutdown`` and
    chains a callable previous handler; uninstall restores it."""
    service = CompileService(cache=None, isolate=False, policy=QUICK)
    chained = []
    previous = signal.signal(signal.SIGTERM, lambda s, f: chained.append(s))
    try:
        installed = service.install_signal_handlers((signal.SIGTERM,))
        assert signal.SIGTERM in installed
        os.kill(os.getpid(), signal.SIGTERM)
        # CPython delivers the signal on the main thread at the next
        # bytecode boundary; the sleep yields one.
        time.sleep(0.05)
        assert service.draining
        assert chained == [signal.SIGTERM], "previous handler must chain"
        service.uninstall_signal_handlers()
        handler = signal.getsignal(signal.SIGTERM)
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(0.05)
        assert chained == [signal.SIGTERM, signal.SIGTERM]
    finally:
        signal.signal(signal.SIGTERM, previous)
    service.resume()


def test_install_signal_handlers_is_noop_off_main_thread():
    service = CompileService(cache=None, isolate=False, policy=QUICK)
    out = {}

    def worker():
        out["result"] = service.install_signal_handlers()

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert out["result"] == {}


def test_compile_many_drains_cleanly():
    """Shutdown during a batch: every unfinished item fails with
    ShutdownError, nothing hangs, and the pool winds down."""
    specs = [_spec(f"shutdown-batch-{i}") for i in range(4)]
    service = CompileService(
        cache=None,
        isolate=True,
        policy=QUICK,
        max_workers=2,
        limits=WorkerLimits(kill_timeout=120.0),
    )
    done = {}

    def run_batch():
        with active_plan(FaultPlan([HANG])):
            done["items"] = service.compile_many(specs, FAST)

    thread = threading.Thread(target=run_batch)
    thread.start()
    deadline = time.monotonic() + 10.0
    while not service._live and time.monotonic() < deadline:
        time.sleep(0.01)
    service.shutdown()
    thread.join(timeout=30.0)
    assert not thread.is_alive(), "batch did not drain"
    items = done["items"]
    assert len(items) == 4
    assert all(not item.ok for item in items)
    assert all(isinstance(item.error, ShutdownError) for item in items)
    assert service._live == []
