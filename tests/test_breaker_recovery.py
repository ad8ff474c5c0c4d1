"""Circuit-breaker recovery and retry-budget floor tests.

PR 6 satellites: the breaker must *close* again -- strikes -> open ->
``reset_breaker`` -> success -- including under concurrent
``compile_many`` traffic, with every transition recorded legally in
``breaker_log``; and ``RetryPolicy.shrunk_options`` must never shrink
budgets below the documented floors.
"""

import dataclasses

import pytest

from tests.conftest import worker_fault
from repro.chaos import FaultPlan, active_plan
from repro.chaos.invariants import check_breaker_log
from repro.compiler import MIN_NODE_LIMIT, MIN_TIME_LIMIT, CompileOptions
from repro.errors import CircuitOpenError, WorkerCrashError
from repro.frontend.lift import lift
from repro.service import CompileService, RetryPolicy

FAST = CompileOptions(
    time_limit=5.0, node_limit=20_000, iter_limit=8, validate=False
)
#: One attempt, two strikes to open, near-zero backoff.
POLICY = RetryPolicy(
    max_attempts=1,
    backoff_base=0.0,
    backoff_jitter=0.0,
    strike_threshold=2,
)
#: In-process "worker death" on every attempt (see _run_once).
CRASH = worker_fault("sigkill", attempts=tuple(range(16)))


def _spec(name="breaker-k"):
    def body(a, b, out):
        out[0] = a[0] * b[0] + a[1] * b[1]

    return lift(name, body, [("a", 2), ("b", 2)], [("out", 1)])


def _service(**kwargs):
    kwargs.setdefault("policy", POLICY)
    return CompileService(cache=None, isolate=False, **kwargs)


def test_breaker_opens_resets_and_closes():
    spec = _spec()
    service = _service()

    for _ in range(2):
        with pytest.raises(WorkerCrashError):
            service.compile_spec(spec, FAST, FaultPlan([CRASH]))
    assert service.strikes(spec.name) == 2
    with pytest.raises(CircuitOpenError):
        service.compile_spec(spec, FAST)
    assert service.stats.breaker_trips == 1

    # Operator intervention reopens the path...
    service.reset_breaker(spec.name)
    assert service.strikes(spec.name) == 0
    result = service.compile_spec(spec, FAST)
    assert result.program and not result.degraded

    # ...and a success after a non-opening strike closes the breaker.
    with pytest.raises(WorkerCrashError):
        service.compile_spec(spec, FAST, FaultPlan([CRASH]))
    assert service.strikes(spec.name) == 1
    service.compile_spec(spec, FAST)
    assert service.strikes(spec.name) == 0

    events = [e["event"] for e in service.breaker_log]
    assert events == [
        "strike", "strike", "open", "reject", "reset", "strike", "close",
    ]
    # The recorded history replays as a legal protocol.
    assert check_breaker_log("t", service.breaker_log, POLICY.strike_threshold) == []


def test_reset_all_kernels():
    spec_a, spec_b = _spec("brk-a"), _spec("brk-b")
    service = _service()
    for spec in (spec_a, spec_b):
        with pytest.raises(WorkerCrashError):
            service.compile_spec(spec, FAST, FaultPlan([CRASH]))
    service.reset_breaker()  # no kernel argument: reset everything
    assert service.strikes(spec_a.name) == 0
    assert service.strikes(spec_b.name) == 0
    resets = [e for e in service.breaker_log if e["event"] == "reset"]
    assert {e["kernel"] for e in resets} == {spec_a.name, spec_b.name}


def test_breaker_under_concurrent_compile_many():
    """A poisoned kernel repeated across a concurrent batch strikes out
    and gets rejected, the healthy kernel still compiles, and the
    interleaved transition log stays legal."""
    bad = _spec("brk-poison")
    good = _spec("brk-good")
    service = _service(max_workers=4)
    poison = FaultPlan([dataclasses.replace(CRASH, kernel=bad.name)])
    with active_plan(poison):
        items = service.compile_many([bad, good, bad, bad, bad], FAST)

    assert items[1].ok and items[1].result.program
    bad_items = [items[0], *items[2:]]
    assert all(not item.ok for item in bad_items)
    for item in bad_items:
        assert isinstance(item.error, (WorkerCrashError, CircuitOpenError))
    # At least one compile was refused outright by the open breaker.
    assert any(
        isinstance(item.error, CircuitOpenError) for item in bad_items
    )
    assert check_breaker_log(
        "t", service.breaker_log, POLICY.strike_threshold
    ) == []

    # Recovery also works after concurrent damage (the plan is gone,
    # so the kernel is no longer poisoned -- the drill is over).
    service.reset_breaker(bad.name)
    assert service.compile_spec(bad, FAST).program


# ------------------------------------------------------- shrink floors


def test_shrunk_options_respects_documented_floors():
    policy = RetryPolicy(shrink_factor=0.5)
    options = dataclasses.replace(FAST, node_limit=100_000, time_limit=10.0)
    previous = options
    for attempt in range(1, 12):
        shrunk = policy.shrunk_options(options, attempt)
        assert shrunk.node_limit >= MIN_NODE_LIMIT == 1_000
        assert shrunk.time_limit >= MIN_TIME_LIMIT == 0.25
        # monotone non-increasing budgets across attempts
        assert shrunk.node_limit <= previous.node_limit
        assert shrunk.time_limit <= previous.time_limit
        previous = shrunk
    # Deep attempts bottom out exactly at the floors.
    deep = policy.shrunk_options(options, 40)
    assert deep.node_limit == MIN_NODE_LIMIT
    assert deep.time_limit == MIN_TIME_LIMIT


def test_shrunk_options_never_crosses_floor_even_from_tiny_budgets():
    policy = RetryPolicy(shrink_factor=0.1)
    options = dataclasses.replace(FAST, node_limit=1_200, time_limit=0.3)
    shrunk = policy.shrunk_options(options, 1)
    assert shrunk.node_limit == MIN_NODE_LIMIT
    assert shrunk.time_limit == MIN_TIME_LIMIT


def test_attempt_zero_runs_at_full_budget():
    policy = RetryPolicy()
    assert policy.shrunk_options(FAST, 0) is FAST
