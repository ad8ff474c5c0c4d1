"""Tests for the process-isolated compilation service.

Covers the supervisor's contract end to end: isolated workers return
the same artifacts as in-process compilation, SIGKILLed / OOMing /
hanging workers are contained and retried with shrinking budgets, the
circuit breaker fails fast on repeat offenders, batches report per-item
errors, and a table1 sweep survives injected worker deaths with the
cache left uncorrupted.
"""

import dataclasses
import importlib
import time

import pytest

from tests.conftest import HANG_SECONDS, run_and_compare, worker_fault
from repro.chaos import FaultPlan, active_plan
from repro.compiler import (
    MIN_NODE_LIMIT,
    MIN_TIME_LIMIT,
    CompileOptions,
    compile_spec,
)
from repro.errors import (
    CircuitOpenError,
    CompileError,
    WorkerCrashError,
    WorkerTimeoutError,
    is_resource_failure,
)
from repro.egraph.rewrite import CustomRewrite, SyntacticRewrite, rewrite
from repro.evaluation.common import Budget, SweepError
from repro.evaluation.table1 import run_table1
from repro.kernels import make_matmul, table1_kernels
from repro.rules import _shipped_rules, build_ruleset
from repro.service import (
    ArtifactCache,
    CompileService,
    RetryPolicy,
    WorkerLimits,
)
from repro.service import supervisor as supervisor_module

#: The module, not the ``rewrite`` function ``repro.egraph`` exports.
rewrite_module = importlib.import_module("repro.egraph.rewrite")

FAST = CompileOptions(time_limit=5.0, node_limit=30_000, iter_limit=25, validate=False)
#: Near-zero backoff keeps retry tests fast without changing the logic.
QUICK_RETRY = RetryPolicy(backoff_base=0.01, backoff_jitter=0.0)
TINY_BUDGET = Budget(paper_seconds=180, seconds=2.0, node_limit=20_000, iter_limit=15)


@pytest.fixture(scope="module")
def kernel():
    return make_matmul(2, 2, 2)


def _service(**kwargs):
    kwargs.setdefault("policy", QUICK_RETRY)
    return CompileService(**kwargs)


# ----------------------------------------------------------------------
# Isolation basics
# ----------------------------------------------------------------------


class TestIsolatedCompile:
    def test_isolated_result_matches_in_process(self, kernel):
        reference = compile_spec(kernel.spec(), FAST)
        result = _service(isolate=True).compile_spec(kernel.spec(), FAST)
        assert result.cost == reference.cost
        assert len(result.program) == len(reference.program)
        assert result.diagnostics.attempts == 1
        assert not result.diagnostics.cache_hit
        run_and_compare(kernel, result.program)

    def test_in_process_mode_also_works(self, kernel):
        result = _service(isolate=False).compile_spec(kernel.spec(), FAST)
        assert result.diagnostics.attempts == 1
        run_and_compare(kernel, result.program)

    def test_worker_error_is_reconstructed_with_stage(self, kernel):
        """A worker-side logic error comes back as a staged CompileError
        carrying the original type name, and is not retried."""
        service = _service(isolate=True)
        plan = FaultPlan([worker_fault("raise", attempts=(0, 1, 2))])
        with pytest.raises(CompileError) as exc_info:
            service.compile_spec(kernel.spec(), FAST, plan)
        assert "InjectedFaultError" in str(exc_info.value)
        assert not is_resource_failure(exc_info.value)
        assert service.stats.compiles == 1  # fail fast, no retry
        assert service.stats.retries == 0


def _untimed(result):
    """``result`` without its spec and with every wall-clock field
    zeroed, for comparing two compiles of one kernel."""
    report = result.report
    report = dataclasses.replace(
        report,
        total_time=0.0,
        iterations=[dataclasses.replace(it, elapsed=0.0) for it in report.iterations],
        rule_stats={
            name: dataclasses.replace(stats, search_time=0.0)
            for name, stats in report.rule_stats.items()
        },
    )
    diagnostics = dataclasses.replace(
        result.diagnostics,
        stages=[
            dataclasses.replace(stage, elapsed=0.0)
            for stage in result.diagnostics.stages
        ],
    )
    return dataclasses.replace(
        result, spec=None, compile_time=0.0, report=report, diagnostics=diagnostics
    )


def _no_search(egraph):
    return []


class TestOnePayload:
    """A worker's result travels as the cache's record payload, without
    the spec, and comes back carrying the caller's."""

    def test_isolated_result_equals_in_process_but_timings(self, kernel):
        spec = kernel.spec()
        reference = compile_spec(spec, FAST)
        reference.diagnostics.attempts = 1
        result = _service(isolate=True).compile_spec(spec, FAST)
        assert result.spec is spec
        assert _untimed(result) == _untimed(reference)

    def test_unpicklable_extra_rule_still_returns(self, kernel, tmp_path):
        """A closure in the options does not pickle: the worker strips
        the extra rules and sends the result, which is cached."""
        spec = kernel.spec()
        closure = CustomRewrite("closure-rule", lambda egraph: [])
        options = dataclasses.replace(FAST, extra_rules=(closure,))
        cache = ArtifactCache(str(tmp_path / "cache"))
        service = _service(cache=cache, isolate=True)
        result = service.compile_spec(spec, options)
        assert result.spec is spec
        assert result.options.extra_rules == ()
        assert "closure-rule" in result.report.rule_stats
        assert service.stats.worker_crashes == 0
        assert cache.stats.stores == 1
        again = service.compile_spec(spec, options)
        assert again.diagnostics.cache_hit and again.spec is spec

    def test_undecodable_payload_is_a_worker_crash(self, kernel, monkeypatch):
        """A payload that does not decode counts as a crash, as a lost
        message does, and the retry recovers."""
        real = supervisor_module.decode_result
        calls = []

        def flaky(payload, spec):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("truncated payload")
            return real(payload, spec)

        monkeypatch.setattr(supervisor_module, "decode_result", flaky)
        service = _service(isolate=True)
        result = service.compile_spec(kernel.spec(), FAST)
        assert result.diagnostics.attempts == 2
        assert service.stats.worker_crashes == 1
        run_and_compare(kernel, result.program)


class TestWarmForks:
    """The supervisor builds the shipped rules and their matchers before
    it forks, once per configuration, so every fork inherits them."""

    @pytest.fixture
    def cold(self, monkeypatch):
        """A supervisor process that has built no rules: fresh shipped
        rule objects, no warmed configuration, and a log of what the
        supervisor builds and resolves."""
        _shipped_rules.cache_clear()
        monkeypatch.setattr(supervisor_module, "_WARM", set())
        log = {"built": 0, "resolved": []}
        real_build = supervisor_module.build_ruleset
        real_resolve = rewrite_module.matcher_for

        def build(**kwargs):
            log["built"] += 1
            return real_build(**kwargs)

        def resolve(pat, polled):
            log["resolved"].append((pat, polled))
            return real_resolve(pat, polled)

        monkeypatch.setattr(supervisor_module, "build_ruleset", build)
        monkeypatch.setattr(rewrite_module, "matcher_for", resolve)
        yield log
        _shipped_rules.cache_clear()

    def test_first_fork_warms_once(self, kernel, cold):
        service = _service(isolate=True)
        service.compile_spec(kernel.spec(), FAST)
        syntactic = [
            rule for rule in build_ruleset(width=FAST.vector_width)
            if isinstance(rule, SyntacticRewrite)
        ]
        assert syntactic
        # FAST has a time limit, so the worker's searches poll it.
        assert sorted(cold["resolved"], key=repr) == sorted(
            ((rule.lhs, True) for rule in syntactic), key=repr
        )
        assert cold["built"] == 1
        resolved = len(cold["resolved"])
        service.compile_spec(kernel.spec(), dataclasses.replace(FAST, seed=7))
        assert cold["built"] == 1
        assert len(cold["resolved"]) == resolved

    def test_each_deadline_variant_warms_once(self, kernel, cold):
        service = _service(isolate=True)
        unpolled = dataclasses.replace(FAST, time_limit=None)
        service.compile_spec(kernel.spec(), unpolled)
        assert {polled for _, polled in cold["resolved"]} == {False}
        service.compile_spec(kernel.spec(), FAST)
        assert {polled for _, polled in cold["resolved"]} == {False, True}
        assert cold["built"] == 2

    def test_extra_rules_stay_in_the_worker(self, kernel, cold):
        """An extra rule is neither resolved nor searched in the
        supervisor; the worker searches it."""
        searched = []

        def searcher(egraph):
            searched.append(egraph)
            return []

        extra = rewrite("extra-double", "(* ?a 2)", "(+ ?a ?a)")
        spy = CustomRewrite("extra-spy", searcher)
        options = dataclasses.replace(FAST, extra_rules=(extra, spy))
        result = _service(isolate=True).compile_spec(kernel.spec(), options)
        assert extra.lhs not in [pat for pat, _ in cold["resolved"]]
        assert extra._generated == {}
        assert searched == []
        assert {"extra-double", "extra-spy"} <= set(result.report.rule_stats)

    def test_compile_many_threads_warm_once(self, cold):
        specs = [make_matmul(2, 2, 2).spec(), make_matmul(2, 3, 2).spec()]
        items = _service(isolate=True, max_workers=2).compile_many(specs, FAST)
        assert all(item.ok for item in items)
        assert cold["built"] == 1


# ----------------------------------------------------------------------
# Fault containment + retries
# ----------------------------------------------------------------------


class TestFaultContainment:
    def test_sigkill_is_retried_and_recovers(self, kernel):
        service = _service(isolate=True)
        plan = FaultPlan([worker_fault("sigkill")])
        result = service.compile_spec(kernel.spec(), FAST, plan)
        assert result.diagnostics.attempts == 2
        assert service.stats.worker_crashes == 1
        assert service.stats.retries == 1
        run_and_compare(kernel, result.program)

    def test_hang_is_killed_at_the_deadline(self, kernel):
        service = _service(
            isolate=True,
            limits=WorkerLimits(kill_timeout=1.0),
            policy=dataclasses.replace(QUICK_RETRY, max_attempts=1),
        )
        plan = FaultPlan([worker_fault("sleep", seconds=HANG_SECONDS)])
        start = time.perf_counter()
        with pytest.raises(WorkerTimeoutError) as exc_info:
            service.compile_spec(kernel.spec(), FAST, plan)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0  # killed, not waited out
        assert exc_info.value.signal == 9
        assert is_resource_failure(exc_info.value)
        assert service.stats.worker_timeouts == 1

    def test_oom_is_contained_by_rlimit_and_classified(self, kernel):
        """An allocation bomb hits RLIMIT_AS inside the worker, comes
        back as a memory-staged failure, and counts as a resource
        failure (so the service retried it at shrunk budgets)."""
        service = _service(
            isolate=True,
            limits=WorkerLimits(
                address_space_bytes=512 * 1024 * 1024, kill_timeout=30.0
            ),
            policy=dataclasses.replace(QUICK_RETRY, max_attempts=2),
        )
        plan = FaultPlan([worker_fault("oom", attempts=(0, 1))])
        with pytest.raises(Exception) as exc_info:
            service.compile_spec(kernel.spec(), FAST, plan)
        assert is_resource_failure(exc_info.value)
        assert service.stats.compiles == 2  # retried once
        assert service.stats.failures == 1

    def test_retry_budgets_shrink_and_seed_shifts(self):
        options = CompileOptions(time_limit=8.0, node_limit=40_000, seed=10)
        shrunk = QUICK_RETRY.shrunk_options(options, attempt=2)
        assert shrunk.node_limit == 10_000
        assert shrunk.time_limit == 2.0
        assert shrunk.seed == 12
        assert QUICK_RETRY.shrunk_options(options, attempt=0) is options

    def test_shrink_respects_floors(self):
        options = CompileOptions(time_limit=0.4, node_limit=1_500)
        shrunk = QUICK_RETRY.shrunk_options(options, attempt=3)
        assert shrunk.node_limit == MIN_NODE_LIMIT == 1_000
        assert shrunk.time_limit == MIN_TIME_LIMIT == 0.25

    def test_backoff_is_jittered_exponential(self):
        import random

        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_jitter=0.5)
        rng = random.Random(0)
        d1 = [policy.backoff_delay(1, rng) for _ in range(50)]
        d2 = [policy.backoff_delay(2, rng) for _ in range(50)]
        assert all(0.05 <= d <= 0.15 for d in d1)
        assert all(0.10 <= d <= 0.30 for d in d2)
        assert len(set(d1)) > 1  # actually jittered


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


def _crash_every_attempt():
    """A worker death at every attempt's ``worker.start``."""
    return FaultPlan([worker_fault("sigkill", attempts=tuple(range(8)))])


class TestCircuitBreaker:
    def _failing_service(self, threshold=2):
        return _service(
            isolate=False,  # simulated worker crashes: fast
            policy=dataclasses.replace(
                QUICK_RETRY, max_attempts=2, strike_threshold=threshold
            ),
        )

    def test_breaker_opens_after_strikes(self, kernel):
        service = self._failing_service()
        crash = _crash_every_attempt()
        with pytest.raises(WorkerCrashError):
            service.compile_spec(kernel.spec(), FAST, crash)  # 2 strikes
        assert service.strikes(kernel.name) == 2
        with pytest.raises(CircuitOpenError) as exc_info:
            service.compile_spec(kernel.spec(), FAST, crash)
        assert exc_info.value.kernel == kernel.name
        assert service.stats.breaker_trips == 1
        # The open breaker spawned no further attempts.
        assert service.stats.compiles == 2

    def test_reset_breaker_allows_new_attempts(self, kernel):
        service = self._failing_service()
        crash = _crash_every_attempt()
        with pytest.raises(WorkerCrashError):
            service.compile_spec(kernel.spec(), FAST, crash)
        service.reset_breaker(kernel.name)
        assert service.strikes(kernel.name) == 0
        with pytest.raises(WorkerCrashError):  # not CircuitOpenError
            service.compile_spec(kernel.spec(), FAST, crash)

    def test_success_resets_strikes(self, kernel):
        service = _service(
            isolate=False,
            policy=dataclasses.replace(QUICK_RETRY, strike_threshold=5),
        )
        plan = FaultPlan([worker_fault("sigkill")])
        result = service.compile_spec(kernel.spec(), FAST, plan)
        assert result is not None
        assert service.strikes(kernel.name) == 0


# ----------------------------------------------------------------------
# Cache integration
# ----------------------------------------------------------------------


class TestCacheIntegration:
    def test_second_compile_is_a_cache_hit(self, kernel, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        service = _service(cache=cache, isolate=False)
        first = service.compile_spec(kernel.spec(), FAST)
        assert not first.diagnostics.cache_hit
        second = service.compile_spec(kernel.spec(), FAST)
        assert second.diagnostics.cache_hit
        assert second.cost == first.cost
        assert service.stats.compiles == 1
        assert service.stats.cache_hits == 1

    def test_cache_survives_service_restart(self, kernel, tmp_path):
        cache_dir = str(tmp_path / "cache")
        _service(cache=ArtifactCache(cache_dir), isolate=False).compile_spec(
            kernel.spec(), FAST
        )
        fresh = _service(cache=ArtifactCache(cache_dir), isolate=False)
        result = fresh.compile_spec(kernel.spec(), FAST)
        assert result.diagnostics.cache_hit
        assert fresh.stats.compiles == 0
        run_and_compare(kernel, result.program)

    def test_different_options_do_not_hit(self, kernel, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        service = _service(cache=cache, isolate=False)
        service.compile_spec(kernel.spec(), FAST)
        other = dataclasses.replace(FAST, node_limit=25_000)
        result = service.compile_spec(kernel.spec(), other)
        assert not result.diagnostics.cache_hit
        assert service.stats.compiles == 2


# ----------------------------------------------------------------------
# Batch + sweep integration (the acceptance scenario)
# ----------------------------------------------------------------------


def _quick_kernels():
    names = ("matmul-2x2-2x2", "2dconv-3x3-2x2", "qprod-4-3-4-3")
    return [k for k in table1_kernels() if k.name in names]


class TestBatch:
    def test_compile_many_preserves_order_and_isolates_errors(self):
        kernels = _quick_kernels()
        bad = kernels[1].name
        service = _service(
            isolate=False,
            policy=dataclasses.replace(QUICK_RETRY, max_attempts=1),
        )
        with active_plan(FaultPlan([worker_fault("raise", kernel=bad)])):
            items = service.compile_many(
                [k.spec() for k in kernels], TINY_BUDGET.options()
            )
        assert [i.name for i in items] == [k.name for k in kernels]
        assert items[0].ok and items[2].ok
        assert not items[1].ok
        assert items[1].error is not None


class TestSweepWithWorkerDeaths:
    def test_table1_survives_sigkill_and_oom_with_cache_intact(self, tmp_path):
        """The acceptance scenario: one kernel's worker is SIGKILLed on
        its first attempt (recovers on retry), another is an allocation
        bomb under a tight rlimit (fails every attempt).  The sweep must
        complete, record exactly the OOM kernel as a SweepError with its
        retries acknowledged, and leave every cache entry readable."""
        kernels = _quick_kernels()
        sigkilled, oomed = kernels[0].name, kernels[1].name
        cache = ArtifactCache(str(tmp_path / "cache"))
        service = _service(
            cache=cache,
            isolate=True,
            limits=WorkerLimits(
                address_space_bytes=512 * 1024 * 1024, kill_timeout=60.0
            ),
            policy=dataclasses.replace(QUICK_RETRY, max_attempts=2),
        )
        plan = FaultPlan(
            [
                worker_fault("sigkill", kernel=sigkilled),
                worker_fault("oom", attempts=(0, 1), kernel=oomed),
            ]
        )
        errors = []
        with active_plan(plan):
            rows = run_table1(
                TINY_BUDGET, kernels, track_memory=False,
                errors=errors, service=service,
            )

        # Sweep completed: survivors have rows, the OOM kernel a SweepError.
        assert [r.kernel for r in rows] == [k.name for k in kernels if k.name != oomed]
        assert len(errors) == 1
        assert isinstance(errors[0], SweepError)
        assert errors[0].kernel == oomed
        assert errors[0].retried  # resource failure, went through retries
        assert service.stats.worker_crashes >= 1  # the SIGKILL
        assert service.stats.retries >= 1

        # Cache uncorrupted: only successes stored, all entries readable.
        assert cache.stats.corrupt == 0
        entries = cache.entries()
        assert sorted(e.kernel for e in entries) == sorted(
            k.name for k in kernels if k.name != oomed
        )
        for entry in entries:
            assert cache.get(entry.key) is not None

    def test_warm_cache_rerun_does_zero_recompiles(self, tmp_path):
        """Second run of the quick table1 sweep against a warm cache
        must not compile anything."""
        kernels = _quick_kernels()
        cache_dir = str(tmp_path / "cache")
        cold = _service(cache=ArtifactCache(cache_dir), isolate=False)
        rows = run_table1(
            TINY_BUDGET, kernels, track_memory=False, service=cold
        )
        assert len(rows) == len(kernels)
        assert cold.stats.compiles == len(kernels)

        warm = _service(cache=ArtifactCache(cache_dir), isolate=False)
        rows = run_table1(
            TINY_BUDGET, kernels, track_memory=False, service=warm
        )
        assert len(rows) == len(kernels)
        assert warm.stats.compiles == 0
        assert warm.stats.cache_hits == len(kernels)
        assert warm.cache.stats.hits == len(kernels)


# ----------------------------------------------------------------------
# Seed threading (satellite)
# ----------------------------------------------------------------------


class TestSeedThreading:
    def test_budget_options_accept_seed_override(self):
        assert TINY_BUDGET.options(seed=7).seed == 7

    def test_compile_with_custom_seed_validates(self, kernel):
        options = dataclasses.replace(FAST, validate=True, seed=99)
        result = compile_spec(kernel.spec(), options)
        assert result.validated

    def test_validate_seed_is_deterministic(self, kernel):
        from repro.validation.validate import validate

        spec = kernel.spec()
        a = validate(spec, spec.term, seed=5)
        b = validate(spec, spec.term, seed=5)
        assert a.ok and b.ok
        assert a.methods_used == b.methods_used

    def test_measure_resolves_seed_from_options(self, kernel):
        from repro.evaluation.common import measure

        program = compile_spec(kernel.spec(), FAST).program
        explicit = measure(program, kernel, seed=3)
        via_options = measure(
            program, kernel, options=dataclasses.replace(FAST, seed=3)
        )
        assert explicit == via_options
