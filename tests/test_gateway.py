"""Admission control, single-flight dedup, CoDel shedding, and the
brownout ladder of the compile gateway (DESIGN.md §12).

The tentpole contract under test: a saturated gateway refuses work
with *typed* errors (RateLimitError, OverloadError with a reason,
DeadlineExceededError) instead of buffering unboundedly, and
concurrent identical requests collapse onto one compile.
"""

import asyncio
import threading
import time

import pytest

from repro.compiler import MIN_NODE_LIMIT, MIN_TIME_LIMIT, CompileOptions
from repro.errors import (
    DeadlineExceededError,
    OverloadError,
    RateLimitError,
    ShutdownError,
)
from repro.frontend.lift import lift
from repro.service import (
    CompileGateway,
    CompileService,
    GatewayConfig,
    RetryPolicy,
    TenantPolicy,
)
from repro.service.gateway import BROWNOUT_SCALES, _TokenBucket

FAST = CompileOptions(
    time_limit=5.0, node_limit=20_000, iter_limit=8, validate=False
)
QUICK = RetryPolicy(max_attempts=2, backoff_base=0.01, backoff_jitter=0.0)


def _spec(name="gw-k", scale=1):
    def body(a, b, out):
        for i in range(2):
            out[i] = a[i] * b[i] + a[i] * scale

    return lift(name, body, [("a", 2), ("b", 2)], [("out", 2)])


def _service():
    return CompileService(cache=None, isolate=False, policy=QUICK)


def _run(coro):
    return asyncio.run(coro)


class _SlowService:
    """Stands in for CompileService: counts compiles, sleeps on demand.

    The gateway only touches ``.cache`` and ``.compile_spec``."""

    cache = None

    def __init__(self, delay=0.0):
        self.delay = delay
        self.calls = 0
        self._lock = threading.Lock()
        self._real = _service()

    def compile_spec(self, spec, options):
        with self._lock:
            self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        return self._real.compile_spec(spec, FAST)


# ---------------------------------------------------------------- admission


def test_rate_limit_is_typed_and_carries_retry_after():
    async def go():
        gw = CompileGateway(
            _service(),
            tenants={"t": TenantPolicy("t", rate=0.001, burst=1)},
        )
        async with gw:
            await gw.submit(_spec(), FAST, tenant="t")
            with pytest.raises(RateLimitError) as info:
                await gw.submit(_spec(), FAST, tenant="t")
        err = info.value
        assert isinstance(err, OverloadError)  # taxonomy: a shed, typed
        assert err.reason == "rate-limit"
        assert err.tenant == "t"
        assert err.retry_after and err.retry_after > 0
        assert gw.stats.sheds == {"rate-limit": 1}
        assert gw.stats.tenants["t"].rate_limited == 1

    _run(go())


def test_queue_full_sheds_with_typed_overload_error():
    async def go():
        service = _SlowService(delay=0.3)
        gw = CompileGateway(
            service,
            # Huge codel_target: this test wants the *depth* bound to
            # fire, not the delay-based shedder.
            GatewayConfig(max_queue_depth=1, concurrency=1, codel_target=10.0),
        )
        async with gw:
            # Distinct specs so nothing coalesces: one dispatching, one
            # queued (fills the depth-1 queue), the third must shed.
            first = asyncio.ensure_future(gw.submit(_spec("gw-a"), FAST))
            await asyncio.sleep(0.1)  # dispatcher picks up the leader
            second = asyncio.ensure_future(gw.submit(_spec("gw-b"), FAST))
            await asyncio.sleep(0)  # let `second` enqueue
            with pytest.raises(OverloadError) as info:
                await gw.submit(_spec("gw-c"), FAST)
            assert info.value.reason == "queue-full"
            assert info.value.queue_depth == 1
            await asyncio.gather(first, second)
        assert gw.stats.sheds.get("queue-full") == 1
        assert gw.stats.completed == 2

    _run(go())


def test_unknown_tenant_gets_default_policy():
    async def go():
        gw = CompileGateway(_service())
        async with gw:
            result = await gw.submit(_spec(), FAST, tenant="walk-in")
        assert result.program
        assert gw.stats.tenants["walk-in"].completed == 1

    _run(go())


def test_submit_after_close_raises_shutdown_error():
    async def go():
        gw = CompileGateway(_service())
        async with gw:
            pass
        with pytest.raises(ShutdownError):
            await gw.submit(_spec(), FAST)

    _run(go())


def test_close_fails_queued_requests_with_shutdown_error():
    async def go():
        service = _SlowService(delay=0.3)
        gw = CompileGateway(
            service, GatewayConfig(max_queue_depth=8, concurrency=1)
        )
        await gw.start()
        leader = asyncio.ensure_future(gw.submit(_spec("gw-a"), FAST))
        await asyncio.sleep(0.1)  # leader is in the executor now
        queued = asyncio.ensure_future(gw.submit(_spec("gw-b"), FAST))
        await asyncio.sleep(0)
        await gw.aclose()
        assert (await leader).program  # in-flight compile finished
        with pytest.raises(ShutdownError):
            await queued

    _run(go())


# ------------------------------------------------------------ single-flight


def test_single_flight_collapses_identical_requests():
    async def go():
        service = _SlowService(delay=0.1)
        gw = CompileGateway(service)
        async with gw:
            results = await asyncio.gather(
                *(gw.submit(_spec(), FAST) for _ in range(8))
            )
        assert service.calls == 1
        assert all(r is results[0] for r in results)
        assert gw.stats.dedup_leaders == 1
        assert gw.stats.dedup_coalesced == 7
        assert gw.stats.completed == 8

    _run(go())


def test_deadlines_do_not_break_single_flight():
    """The content key excludes the deadline: two clients wanting the
    same kernel with different patience still share one compile."""

    async def go():
        service = _SlowService(delay=0.1)
        gw = CompileGateway(service)
        opts_a = CompileOptions(
            time_limit=5.0, validate=False, deadline=time.time() + 30
        )
        opts_b = CompileOptions(
            time_limit=5.0, validate=False, deadline=time.time() + 60
        )
        async with gw:
            await asyncio.gather(
                gw.submit(_spec(), opts_a), gw.submit(_spec(), opts_b)
            )
        assert service.calls == 1
        assert gw.stats.dedup_coalesced == 1

    _run(go())


def test_waiter_deadline_expires_without_cancelling_leader():
    async def go():
        service = _SlowService(delay=0.4)
        gw = CompileGateway(service)
        import dataclasses

        tight = dataclasses.replace(FAST, deadline=time.time() + 0.1)
        async with gw:
            leader = asyncio.ensure_future(gw.submit(_spec(), FAST))
            await asyncio.sleep(0.05)
            with pytest.raises(DeadlineExceededError):
                await gw.submit(_spec(), tight)
            # The shared compile survives the impatient waiter.
            assert (await leader).program
        assert gw.stats.sheds.get("deadline") == 1
        assert service.calls == 1

    _run(go())


def test_default_deadline_is_stamped_and_enforced():
    async def go():
        service = _SlowService(delay=0.5)
        gw = CompileGateway(service, GatewayConfig(default_deadline=0.15))
        async with gw:
            with pytest.raises(DeadlineExceededError):
                await gw.submit(_spec(), FAST)
        assert gw.stats.sheds.get("deadline") == 1

    _run(go())


# ------------------------------------------------------------------- CoDel


def test_codel_control_law():
    gw = CompileGateway(
        _service(),
        GatewayConfig(codel_target=0.1, codel_interval=1.0, codel_hard_factor=3.0),
    )
    now = 100.0
    # Below target: never drops, state stays reset.
    assert not gw._codel_drop(0.05, now)
    # First excursion above target starts the interval grace.
    assert not gw._codel_drop(0.15, now)
    assert not gw._codel_drop(0.15, now + 0.5)
    # Still above target after a full interval: dropping starts.
    assert gw._codel_drop(0.15, now + 1.1)
    # Head-drop: every stale dequeue sheds while dropping.
    assert gw._codel_drop(0.12, now + 1.2)
    # A fresh request (delay back under target) exits the state.
    assert not gw._codel_drop(0.05, now + 1.3)
    assert not gw._codel_drop(0.15, now + 1.4)  # grace re-arms


def test_codel_hard_ceiling_ignores_state():
    gw = CompileGateway(
        _service(),
        GatewayConfig(codel_target=0.1, codel_interval=10.0, codel_hard_factor=2.0),
    )
    # No grace interval has elapsed, but 0.25s >= 0.1 * 2.0: shed anyway.
    assert gw._codel_drop(0.25, 0.0)


# ---------------------------------------------------------------- brownout


def test_brownout_ladder_engages_and_releases_with_hysteresis():
    config = GatewayConfig(codel_target=0.1, brownout_factors=(2.0, 4.0, 8.0))
    assert config.brownout_level(0.0, current=0) == 0
    assert config.brownout_level(0.25, current=0) == 1
    assert config.brownout_level(0.45, current=1) == 2
    assert config.brownout_level(0.9, current=2) == 3
    # Hysteresis: above half the engage threshold, the level holds ...
    assert config.brownout_level(0.5, current=3) == 3
    # ... and releases only below half.
    assert config.brownout_level(0.3, current=3) == 2
    assert config.brownout_level(0.05, current=2) == 0


def test_brownout_shrinks_budgets_with_floor():
    gw = CompileGateway(_service())
    options = CompileOptions(time_limit=4.0, node_limit=10_000, validate=False)
    gw.stats.brownout_level = 2
    shrunk = gw._apply_brownout(options)
    assert shrunk.time_limit == pytest.approx(4.0 * BROWNOUT_SCALES[2])
    assert shrunk.node_limit == max(
        MIN_NODE_LIMIT, int(10_000 * BROWNOUT_SCALES[2])
    )
    # Tiny budgets bottom out at the shared floors.
    tiny = CompileOptions(time_limit=0.4, node_limit=1_500, validate=False)
    floored = gw._apply_brownout(tiny)
    assert floored.node_limit == MIN_NODE_LIMIT == 1_000
    assert floored.time_limit == MIN_TIME_LIMIT == 0.25
    gw.stats.brownout_level = 0
    assert gw._apply_brownout(options) is options


def test_cache_only_brownout_serves_hits_and_sheds_misses(tmp_path):
    from repro.service import ArtifactCache

    async def go():
        cache = ArtifactCache(str(tmp_path), lru_capacity=8)
        service = CompileService(cache=cache, isolate=False, policy=QUICK)
        gw = CompileGateway(service)
        async with gw:
            warm = await gw.submit(_spec("gw-hot"), FAST)  # primes the cache
            assert warm.program
            # Pin the ladder at level 3 with an EWMA high enough that
            # the empty-queue recovery sample cannot release it.
            gw.stats.brownout_level = 3
            gw.stats.queue_delay_ewma = gw.config.codel_target * 100
            hit = await gw.submit(_spec("gw-hot"), FAST)
            assert hit.diagnostics.cache_hit
            with pytest.raises(OverloadError) as info:
                await gw.submit(_spec("gw-cold"), FAST)
        assert info.value.reason == "cache-only"
        assert gw.stats.cache_only_hits == 1
        assert gw.stats.sheds.get("cache-only") == 1

    _run(go())


def test_cache_probe_carries_the_requests_spec(tmp_path):
    """The cache-only probe returns the request's own spec, which the
    record does not hold."""
    from repro.service import ArtifactCache

    async def go():
        cache = ArtifactCache(str(tmp_path), lru_capacity=8)
        service = CompileService(cache=cache, isolate=False, policy=QUICK)
        gw = CompileGateway(service)
        async with gw:
            await gw.submit(_spec("gw-probe"), FAST)
            request = _spec("gw-probe")
            hit = gw._cache_probe(request, FAST)
            assert hit is not None and hit.diagnostics.cache_hit
            assert hit.spec is request
            gw.stats.brownout_level = 3
            gw.stats.queue_delay_ewma = gw.config.codel_target * 100
            served = await gw.submit(request, FAST)
            assert served.spec is request

    _run(go())


def test_cache_only_mode_recovers_when_queue_drains():
    """An empty queue feeds zero-delay samples to the EWMA on submit, so
    level 3 cannot latch forever once the overload has passed."""

    async def go():
        gw = CompileGateway(_service())
        async with gw:
            gw.stats.brownout_level = 3
            # Just above the release threshold: a couple of decayed
            # samples bring it under half the engage threshold.
            gw.stats.queue_delay_ewma = gw.config.codel_target * 8.5
            for _ in range(12):
                try:
                    await gw.submit(_spec("gw-rec"), FAST)
                except OverloadError:
                    await asyncio.sleep(0)
            assert gw.stats.brownout_level < 3
            assert (await gw.submit(_spec("gw-rec"), FAST)).program

    _run(go())


# ------------------------------------------------------------ token bucket


def test_token_bucket_burst_then_refill():
    bucket = _TokenBucket(rate=100.0, burst=2)
    assert bucket.acquire() == (True, 0.0)
    assert bucket.acquire() == (True, 0.0)
    admitted, retry_after = bucket.acquire()
    if not admitted:
        assert 0 < retry_after <= 1.0 / 100.0 + 1e-6
    time.sleep(0.03)  # 100/s refills a token in 10ms
    assert bucket.acquire()[0]


def test_stats_snapshot_feeds_invariant_checkers():
    async def go():
        gw = CompileGateway(_service())
        async with gw:
            await gw.submit(_spec(), FAST, tenant="interactive")
        snap = gw.stats.snapshot()
        assert snap["queue_depth_max"] >= 0
        tenant = snap["tenants"]["interactive"]
        assert tenant["admitted"] == 1 and tenant["completed"] == 1
        assert "sheds" in snap and "brownout_level" in snap
        assert "gateway" in gw.stats.summary()

    _run(go())
