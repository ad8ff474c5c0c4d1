"""End-to-end deadline propagation under chaos.

Satellite of the gateway PR (extends the drain patterns of
``test_service_shutdown.py``): a client deadline riding
``CompileOptions.deadline`` must be honored at every layer --

* ``compile_spec`` refuses an already-expired deadline before work;
* the saturation ``time_limit`` is clamped to the residual budget;
* the supervisor sheds pre-fork when the residual is below its floor,
  clamps retry backoff sleeps, and kills a deadline-ignoring worker
  shortly after the budget runs out;
* the gateway enforces each waiter's own residual on shared futures.

The chaos case is the load-bearing one: a fault-injected stall at the
worker's saturation seam must surface as a *typed* deadline-family
error within seconds of the deadline -- never minutes later -- with the
worker reaped and no queue debris.
"""

import dataclasses
import time

import pytest

from repro.chaos.inject import FaultPlan, FaultSpec, active_plan
from repro.compiler import CompileOptions, compile_spec
from repro.compiler import _clamp_to_deadline
from repro.errors import (
    CompileError,
    DeadlineExceededError,
    is_resource_failure,
)
from repro.frontend.lift import lift
from repro.service import CompileService, RetryPolicy, WorkerLimits

FAST = CompileOptions(
    time_limit=5.0, node_limit=20_000, iter_limit=8, validate=False
)
QUICK = RetryPolicy(max_attempts=2, backoff_base=0.01, backoff_jitter=0.0)


def _spec(name="deadline-k"):
    def body(a, b, out):
        for i in range(2):
            out[i] = a[i] * b[i] + a[i]

    return lift(name, body, [("a", 2), ("b", 2)], [("out", 2)])


# --------------------------------------------------------- compiler layer


def test_expired_deadline_refused_before_any_work():
    options = dataclasses.replace(FAST, deadline=time.time() - 1.0)
    with pytest.raises(DeadlineExceededError) as info:
        compile_spec(_spec(), options)
    err = info.value
    assert isinstance(err, CompileError)
    assert err.stage == "deadline"
    assert err.residual is not None and err.residual <= 0


def test_time_limit_clamped_to_residual_budget():
    options = dataclasses.replace(FAST, time_limit=50.0, deadline=time.time() + 2.0)
    clamped = _clamp_to_deadline(_spec(), options)
    assert clamped.time_limit <= 2.0
    # A shorter explicit limit is kept as-is.
    options = dataclasses.replace(FAST, time_limit=0.5, deadline=time.time() + 2.0)
    assert _clamp_to_deadline(_spec(), options).time_limit == 0.5


def test_deadline_excluded_from_cache_key():
    from repro.service.cache import options_fingerprint

    base = FAST
    with_deadline = dataclasses.replace(FAST, deadline=time.time() + 9.0)
    assert options_fingerprint(base) == options_fingerprint(with_deadline)


# -------------------------------------------------------- supervisor layer


def test_supervisor_sheds_pre_fork_below_budget_floor():
    service = CompileService(cache=None, isolate=False, policy=QUICK)
    options = dataclasses.replace(FAST, deadline=time.time() + 0.01)
    with pytest.raises(DeadlineExceededError):
        service.compile_spec(_spec(), options)
    assert service.stats.deadline_sheds == 1
    assert service.stats.compiles == 0  # shed before any attempt


def test_generous_deadline_compiles_normally():
    service = CompileService(cache=None, isolate=False, policy=QUICK)
    options = dataclasses.replace(FAST, deadline=time.time() + 30.0)
    result = service.compile_spec(_spec(), options)
    assert result.program
    assert service.stats.deadline_sheds == 0


def test_phased_compile_honours_deadline(tmp_path):
    """A deadline bounds a phased compile as a whole: each round's clock
    is clamped to the residual budget and no round or phase starts once
    it has passed.  The rushed result reports a timeout, so the service
    does not cache it under the deadline-free key."""
    from repro.kernels import get_kernel
    from repro.service import ArtifactCache

    spec = get_kernel("2dconv-8x8-4x4").spec()
    cache = ArtifactCache(str(tmp_path / "cache"))
    service = CompileService(cache=cache, isolate=False, policy=QUICK)
    options = CompileOptions(validate=False, deadline=time.time() + 0.2)
    result = service.compile_spec(spec, options)
    assert result.phases is not None
    assert result.timed_out
    assert result.report.stop_reason == "time_limit"
    assert cache.stats.stores == 0


def test_chaos_stall_surfaces_typed_deadline_error_within_bound():
    """The satellite's chaos case: a 30s injected sleep at the runner's
    iteration seam inside a sandboxed worker, against a ~1.5s deadline.
    The supervisor's deadline-clamped kill-timeout must SIGKILL the
    stalled worker shortly after the budget expires, the retry must be
    shed pre-fork (no backoff sleep past the deadline), and the caller
    sees a typed deadline error chaining the resource failure -- all
    within a few seconds, with the worker reaped."""
    spec = _spec("deadline-stall")
    service = CompileService(
        cache=None,
        isolate=True,
        policy=QUICK,
        limits=WorkerLimits(kill_timeout=120.0),  # deadline must override
    )
    plan = FaultPlan(
        [FaultSpec("runner.iteration", "sleep", nth=1, seconds=30.0)], seed=0
    )
    options = dataclasses.replace(FAST, deadline=time.time() + 1.5)
    start = time.monotonic()
    with active_plan(plan):
        with pytest.raises(DeadlineExceededError) as info:
            service.compile_spec(spec, options)
    elapsed = time.monotonic() - start
    err = info.value
    assert elapsed < 8.0, f"deadline error took {elapsed:.1f}s to surface"
    assert err.stage == "deadline"
    # The typed error chains what actually burned the budget.
    assert err.__cause__ is not None and is_resource_failure(err.__cause__)
    assert service.stats.worker_timeouts >= 1
    assert service.stats.deadline_sheds == 1
    assert service._live == []  # the stalled worker was reaped
    service.shutdown()


def test_retry_backoff_never_sleeps_past_deadline():
    """With a large backoff_base and a failing first attempt, a naive
    retry would sleep 5s; the clamp must fail the request at the
    deadline instead."""
    spec = _spec("deadline-backoff")
    service = CompileService(
        cache=None,
        isolate=True,
        policy=RetryPolicy(
            max_attempts=3, backoff_base=5.0, backoff_jitter=0.0
        ),
    )
    plan = FaultPlan(
        [FaultSpec("runner.iteration", "sleep", nth=1, seconds=30.0)], seed=0
    )
    options = dataclasses.replace(FAST, deadline=time.time() + 1.5)
    start = time.monotonic()
    with active_plan(plan):
        with pytest.raises(DeadlineExceededError):
            service.compile_spec(spec, options)
    elapsed = time.monotonic() - start
    # kill at ~residual+2s grace; a 5s backoff sleep on top would blow
    # this bound.
    assert elapsed < 8.0, f"retry slept past the deadline ({elapsed:.1f}s)"
    service.shutdown()
