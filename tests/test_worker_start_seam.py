"""The ``worker.start`` chaos seam: the one way to inject a fault into
a compile service's worker.

It is hit once per worker attempt, counted per kernel and given the
attempt explicitly, so a spec aimed at one kernel fires the same way
however ``compile_many``'s threads interleave.  In process it runs in
the supervisor's thread, where ``sigkill`` and ``oom`` raise
``WorkerCrashError``; ``oom`` allocates only under a finite
``RLIMIT_AS``; and ``CompileService.compile_spec`` installs a per-call
plan for that call only.
"""

import resource

import pytest

from tests.conftest import worker_fault
from repro.chaos import SITES, FaultPlan, FaultSpec, active_plan, chaos_point
from repro.chaos import clear_plan, current_plan
from repro.chaos import inject as inject_module
from repro.chaos.inject import chaos_worker_start
from repro.compiler import CompileOptions
from repro.errors import InjectedFaultError, WorkerCrashError
from repro.frontend.lift import lift
from repro.service import CompileService, RetryPolicy

FAST = CompileOptions(
    time_limit=5.0, node_limit=20_000, iter_limit=8, validate=False
)
POLICY = RetryPolicy(max_attempts=3, backoff_base=0.0, backoff_jitter=0.0)
NAMES = ("seam-a", "seam-b", "seam-c", "seam-d")


@pytest.fixture(autouse=True)
def _no_ambient_plan():
    clear_plan()
    yield
    clear_plan()


def _spec(name):
    def body(a, b, out):
        out[0] = a[0] * b[0] + a[1] * b[1]

    return lift(name, body, [("a", 2), ("b", 2)], [("out", 1)])


def _targeted_plan():
    """seam-b dies on its first hit; seam-d on its first hit and again
    on its second.  First-hit and ``nth`` specs both depend on one
    kernel's own hit count."""
    return FaultPlan(
        [
            FaultSpec("worker.start", "sigkill", kernel="seam-b"),
            FaultSpec("worker.start", "sigkill", kernel="seam-d"),
            FaultSpec("worker.start", "sigkill", kernel="seam-d", nth=2),
        ]
    )


def _in_process_batch():
    service = CompileService(isolate=False, policy=POLICY, max_workers=4)
    plan = _targeted_plan()
    with active_plan(plan):
        items = service.compile_many([_spec(n) for n in NAMES], FAST)
    assert all(item.ok for item in items)
    attempts = {i.name: i.result.diagnostics.attempts for i in items}
    fired = sorted(plan.fired, key=lambda f: (f["kernel"], f["hit"]))
    return attempts, fired, service.stats


def test_kernel_targeting_in_process_is_independent_of_thread_order():
    runs = [_in_process_batch() for _ in range(2)]
    (attempts, fired, stats), (attempts2, fired2, _) = runs
    assert attempts == {"seam-a": 1, "seam-b": 2, "seam-c": 1, "seam-d": 3}
    assert [(f["kernel"], f["hit"], f["attempt"]) for f in fired] == [
        ("seam-b", 1, 0),
        ("seam-d", 1, 0),
        ("seam-d", 2, 1),
    ]
    assert stats.retries == 3
    assert (attempts2, fired2) == (attempts, fired)


def test_kernel_targeting_in_an_isolated_batch():
    """Each attempt's worker starts from the parent's counters, so in a
    sandbox a kernel's first-hit spec fires on every attempt it allows:
    seam-b and seam-d die on attempt 0 only, and no other kernel dies."""
    plan_specs = [
        FaultSpec("worker.start", "sigkill", kernel=name, attempts=(0,))
        for name in ("seam-b", "seam-d")
    ]
    runs = []
    for _ in range(2):
        service = CompileService(isolate=True, policy=POLICY, max_workers=2)
        with active_plan(FaultPlan(plan_specs)):
            items = service.compile_many([_spec(n) for n in NAMES], FAST)
        assert all(item.ok for item in items)
        runs.append(
            (
                {i.name: i.result.diagnostics.attempts for i in items},
                service.stats.worker_crashes,
            )
        )
    attempts = {"seam-a": 1, "seam-b": 2, "seam-c": 1, "seam-d": 2}
    assert runs == [(attempts, 2), (attempts, 2)]


def test_the_seams_attempt_overrides_the_ambient_one():
    """``compile_many``'s threads share the plan's ambient attempt, so
    the seam fires on the attempt it is given."""
    plan = FaultPlan([worker_fault("raise", attempts=(1,))])
    with active_plan(plan):  # ambient attempt 0
        chaos_worker_start("seam-a", 0)
        with pytest.raises(InjectedFaultError):
            chaos_worker_start("seam-a", 1)
    assert [(f["hit"], f["attempt"]) for f in plan.fired] == [(2, 1)]


@pytest.mark.parametrize("site", sorted(set(SITES) - {"worker.start"}))
def test_kernel_on_any_other_seam_is_rejected(site):
    with pytest.raises(ValueError, match="only worker.start"):
        FaultSpec(site, "raise", kernel="seam-a")


@pytest.mark.parametrize("action", ["sigkill", "oom"])
def test_in_process_crash_is_a_retried_worker_crash(action):
    service = CompileService(isolate=False, policy=POLICY)
    spec = _spec("seam-a")
    result = service.compile_spec(spec, FAST, FaultPlan([worker_fault(action)]))
    assert result.diagnostics.attempts == 2
    assert service.stats.retries == 1
    every = FaultPlan([worker_fault(action, attempts=(0, 1, 2))])
    with pytest.raises(WorkerCrashError, match=f"injected {action}"):
        service.compile_spec(spec, FAST, every)


def test_oom_without_an_address_space_limit_fails_at_once(monkeypatch):
    monkeypatch.setattr(
        resource,
        "getrlimit",
        lambda which: (resource.RLIM_INFINITY, resource.RLIM_INFINITY),
    )

    def no_allocation(*args):
        raise AssertionError("oom allocated without RLIMIT_AS")

    # Module globals shadow the builtin the allocation loop calls.
    monkeypatch.setattr(inject_module, "bytearray", no_allocation, raising=False)
    with active_plan(FaultPlan([FaultSpec("extract.start", "oom")])):
        with pytest.raises(MemoryError, match="no RLIMIT_AS"):
            chaos_point("extract.start")


def test_per_call_plan_is_installed_for_that_call_only():
    service = CompileService(isolate=False, policy=POLICY)
    spec = _spec("seam-a")
    ambient = FaultPlan([])
    with active_plan(ambient):
        failing = FaultPlan([worker_fault("raise")])
        with pytest.raises(InjectedFaultError):
            service.compile_spec(spec, FAST, failing)
        assert current_plan() is ambient
        assert failing.hits("worker.start", kernel=spec.name) == 1

        quiet = FaultPlan([])
        assert service.compile_spec(spec, FAST, quiet).program
        assert current_plan() is ambient
        assert quiet.hits("worker.start", kernel=spec.name) == 1
        assert ambient.hits("worker.start", kernel=spec.name) == 0

        # The third positional parameter is the plan; None keeps the
        # ambient one, as perfbench's traced served run calls it.
        assert service.compile_spec(spec, FAST, None).program
        assert ambient.hits("worker.start", kernel=spec.name) == 1
    assert current_plan() is None
