"""Overload-resilient compile gateway (DESIGN.md §12).

:class:`CompileGateway` is the asyncio front end of the service stack:
clients submit :class:`~repro.frontend.lift.Spec` compiles and the
gateway decides -- *before* a worker process is forked -- whether the
request is admitted, coalesced, degraded, or shed.  A saturated
backend must degrade by refusing work with typed errors, never by
growing an unbounded queue or timing out silently.  Four layers, in
admission order:

1. **Admission control** -- a per-tenant token bucket
   (:class:`TenantPolicy`) refuses floods with
   :class:`~repro.errors.RateLimitError`; a bounded priority queue
   refuses depth overruns with :class:`~repro.errors.OverloadError`
   (``reason="queue-full"``).  Priorities order the queue strictly
   (0 = most urgent), with a monotonic sequence number as tiebreak so
   equal-priority work stays FIFO and the chaos ``no-starvation``
   invariant is checkable.

2. **Single-flight dedup** -- concurrent requests with the same
   artifact-cache content key collapse onto one in-flight compile:
   the first becomes the *leader*, later ones await the leader's
   future.  The cache key deliberately excludes the deadline
   (:func:`repro.service.cache.options_fingerprint`), so two clients
   asking for the same kernel with different deadlines still coalesce;
   each waiter enforces its *own* residual deadline on the shared
   future.

3. **CoDel load-shedding** -- queue *delay* (not depth) is the
   overload signal, per Controlled Delay queue management: once the
   delay stays above ``codel_target`` for a full ``codel_interval``,
   the dispatcher enters a dropping state and sheds every dequeued
   request that already waited past target (``reason="queue-delay"``)
   until the delay recovers.  This is the head-drop variant: with no
   congestion-controlled sender to pace, flushing the stale backlog
   is what keeps admitted-request latency inside the SLO.

4. **Brownout ladder** -- an EWMA of queue delay drives a stepwise
   degradation: levels 1 and 2 shrink every admitted compile's node
   and time budgets (0.5x / 0.25x, through
   :meth:`~repro.compiler.CompileOptions.scaled` and its floors),
   level 3 stops compiling entirely and serves from the artifact cache
   only, shedding misses with ``reason="cache-only"``.  Levels step
   down with 2x hysteresis so the ladder does not flap.

Deadlines ride :attr:`repro.compiler.CompileOptions.deadline`
(absolute ``time.time()`` scale, fork-safe) end to end: the gateway
refuses to dispatch an expired request, the supervisor sheds pre-fork
when the residual budget is below its floor, the worker's cooperative
``time_limit`` and hard kill-timeout are clamped to the residual --
so a blown deadline surfaces as a typed
:class:`~repro.errors.DeadlineExceededError` within seconds of the
deadline, never minutes later.

Concurrency model: every gateway structure is touched only from the
event-loop thread (``submit`` and the dispatcher tasks); the blocking
``CompileService.compile_spec`` runs on a private thread pool via
``run_in_executor``.  No locks needed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..chaos.inject import chaos_point
from ..compiler import CompileOptions, CompileResult
from ..errors import (
    DeadlineExceededError,
    OverloadError,
    RateLimitError,
    ShutdownError,
)
from ..frontend.lift import Spec
from ..observability import activate, current_session, event as _obs_event
from .cache import options_fingerprint, spec_fingerprint
from .supervisor import CompileService

__all__ = [
    "TenantPolicy",
    "GatewayConfig",
    "GatewayStats",
    "CompileGateway",
    "BROWNOUT_SCALES",
]

#: Per-compile budget multiplier at each brownout level.  Level 3 does
#: not scale budgets -- it stops compiling (cache-only mode).
BROWNOUT_SCALES = (1.0, 0.5, 0.25)

#: EWMA smoothing of the brownout queue-delay signal.
_EWMA_ALPHA = 0.2


def _count(name: str, help_text: str, **labels: str) -> None:
    """Bump a gateway counter on the ambient metrics registry, if any."""
    session = current_session()
    if session is None or session.metrics is None:
        return
    counter = session.metrics.counter(
        name, help_text, labels=tuple(sorted(labels)) if labels else ()
    )
    (counter.labels(**labels) if labels else counter).inc()


def _gauge(name: str, help_text: str, value: float) -> None:
    session = current_session()
    if session is None or session.metrics is None:
        return
    session.metrics.gauge(name, help_text).set(value)


@dataclass(frozen=True)
class TenantPolicy:
    """Admission policy for one tenant.

    ``priority`` orders the queue (0 = most urgent).  ``rate`` /
    ``burst`` parameterize a token bucket in requests per second;
    ``rate=None`` means unlimited.
    """

    name: str
    priority: int = 1
    rate: Optional[float] = None
    burst: int = 10


class _TokenBucket:
    """Classic token bucket; refill is computed lazily on each probe."""

    def __init__(self, rate: float, burst: int) -> None:
        self.rate = float(rate)
        self.burst = max(1, int(burst))
        self.tokens = float(self.burst)
        self._stamp = time.monotonic()

    def acquire(self) -> Tuple[bool, float]:
        """Take one token; returns ``(admitted, retry_after_seconds)``."""
        now = time.monotonic()
        self.tokens = min(
            float(self.burst), self.tokens + (now - self._stamp) * self.rate
        )
        self._stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self.tokens) / self.rate


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs of the admission / shedding / brownout machinery."""

    #: Hard bound on queued (admitted, not yet dispatched) requests.
    max_queue_depth: int = 64
    #: Concurrent compiles (executor threads running the supervisor).
    concurrency: int = 1
    #: CoDel: acceptable standing queue delay, seconds.
    codel_target: float = 0.05
    #: CoDel: how long the delay must stay above target before the
    #: gateway starts shedding, and the base spacing of sheds.
    codel_interval: float = 0.5
    #: Hard queue-delay ceiling, as a multiple of ``codel_target``: a
    #: dequeued request that waited past ``target * hard_factor`` is
    #: shed regardless of CoDel state.  The interval grace tolerates
    #: *bursts*; it must not tolerate individual requests so stale that
    #: compiling them blows the admitted-latency SLO during the window
    #: where the dropping state is re-arming.
    codel_hard_factor: float = 2.5
    #: Deadline (seconds from submission) stamped on requests that do
    #: not carry one.  ``None`` = no default deadline.
    default_deadline: Optional[float] = None
    #: Brownout level i engages when the delay EWMA exceeds
    #: ``codel_target * brownout_factors[i-1]`` and releases below half
    #: that (hysteresis).
    brownout_factors: Tuple[float, float, float] = (2.0, 4.0, 8.0)

    def brownout_level(self, ewma: float, current: int) -> int:
        level = 0
        for index, factor in enumerate(self.brownout_factors, start=1):
            threshold = self.codel_target * factor
            # Hysteresis: keep an engaged level until the signal falls
            # below half its engage threshold.
            if ewma >= threshold or (current >= index and ewma >= threshold / 2.0):
                level = index
        return level


@dataclass
class _TenantStats:
    priority: int = 1
    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    rate_limited: int = 0
    coalesced: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(vars(self))


@dataclass
class GatewayStats:
    """Aggregate counters across one :class:`CompileGateway`."""

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    failed: int = 0
    #: Waiters collapsed onto an in-flight leader (single-flight).
    dedup_coalesced: int = 0
    #: Requests that became single-flight leaders and were dispatched.
    dedup_leaders: int = 0
    #: Requests served straight from the artifact cache in cache-only
    #: brownout mode (no queueing, no worker).
    cache_only_hits: int = 0
    #: Sheds by reason: queue-full / queue-delay / rate-limit /
    #: cache-only / deadline.
    sheds: Dict[str, int] = field(default_factory=dict)
    brownout_transitions: int = 0
    brownout_level: int = 0
    queue_delay_ewma: float = 0.0
    queue_depth_max: int = 0
    tenants: Dict[str, _TenantStats] = field(default_factory=dict)

    def shed(self, reason: str) -> None:
        self.sheds[reason] = self.sheds.get(reason, 0) + 1

    @property
    def shed_total(self) -> int:
        return sum(self.sheds.values())

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view; feeds the bench report and the chaos
        ``bounded-queue`` / ``no-starvation`` invariant checkers."""
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "dedup_coalesced": self.dedup_coalesced,
            "dedup_leaders": self.dedup_leaders,
            "cache_only_hits": self.cache_only_hits,
            "sheds": dict(self.sheds),
            "shed_total": self.shed_total,
            "brownout_transitions": self.brownout_transitions,
            "brownout_level": self.brownout_level,
            "queue_delay_ewma": self.queue_delay_ewma,
            "queue_depth_max": self.queue_depth_max,
            "tenants": {
                name: stats.to_dict() for name, stats in self.tenants.items()
            },
        }

    def summary(self) -> str:
        return (
            f"gateway: {self.submitted} submitted, {self.admitted} admitted, "
            f"{self.completed} completed, {self.shed_total} shed "
            f"({', '.join(f'{k}={v}' for k, v in sorted(self.sheds.items())) or 'none'}), "
            f"{self.dedup_coalesced} coalesced onto {self.dedup_leaders} "
            f"leaders, brownout level {self.brownout_level} "
            f"({self.brownout_transitions} transitions), "
            f"queue depth max {self.queue_depth_max}"
        )


@dataclass
class _Request:
    """One admitted single-flight leader waiting in the queue."""

    spec: Spec
    options: CompileOptions
    tenant: str
    key: str
    enqueued: float  # monotonic
    future: "asyncio.Future[CompileResult]"

    #: PriorityQueue entries must be orderable; (priority, seq) decides
    #: before comparison ever reaches the request itself.
    def __lt__(self, other: "_Request") -> bool:  # pragma: no cover
        return self.enqueued < other.enqueued


class CompileGateway:
    """Admission-controlled, deduplicating asyncio front end over a
    :class:`~repro.service.supervisor.CompileService`.

    Use as an async context manager (or call :meth:`start` /
    :meth:`aclose`); :meth:`submit` is the single entry point.
    """

    def __init__(
        self,
        service: CompileService,
        config: Optional[GatewayConfig] = None,
        tenants: Optional[Dict[str, TenantPolicy]] = None,
    ) -> None:
        self.service = service
        self.config = config or GatewayConfig()
        self.tenants: Dict[str, TenantPolicy] = dict(tenants or {})
        self.stats = GatewayStats()
        self._buckets: Dict[str, _TokenBucket] = {}
        self._inflight: Dict[str, _Request] = {}
        self._queue: Optional["asyncio.PriorityQueue"] = None
        self._dispatchers: List["asyncio.Task"] = []
        self._executor = None
        self._seq = 0
        self._closed = False
        self._obs_session = None
        # CoDel state (sole writer: dispatcher callbacks on the loop).
        self._first_above = 0.0
        self._dropping = False
        self._drop_count = 0
        self._drop_next = 0.0

    # ------------------------------------------------------- lifecycle

    async def start(self) -> "CompileGateway":
        from concurrent.futures import ThreadPoolExecutor

        if self._queue is not None:
            return self
        # Captured so executor threads see the ambient observability
        # session (contextvars do not cross run_in_executor).
        self._obs_session = current_session()
        self._queue = asyncio.PriorityQueue()
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.concurrency),
            thread_name_prefix="repro-gateway",
        )
        loop = asyncio.get_running_loop()
        for index in range(max(1, self.config.concurrency)):
            self._dispatchers.append(
                loop.create_task(self._dispatch_loop(), name=f"gw-dispatch-{index}")
            )
        return self

    async def aclose(self) -> None:
        """Stop dispatching, fail queued leaders with ShutdownError,
        wait for in-flight compiles to finish."""
        if self._closed:
            return
        self._closed = True
        for task in self._dispatchers:
            task.cancel()
        for task in self._dispatchers:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._dispatchers = []
        if self._queue is not None:
            while not self._queue.empty():
                _, _, request = self._queue.get_nowait()
                self._finish_error(
                    request,
                    ShutdownError(
                        "gateway closed before dispatch",
                        kernel=request.spec.name,
                    ),
                )
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "CompileGateway":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> bool:
        await self.aclose()
        return False

    # ------------------------------------------------------ public API

    async def submit(
        self,
        spec: Spec,
        options: Optional[CompileOptions] = None,
        tenant: str = "default",
    ) -> CompileResult:
        """Compile ``spec`` through admission control.

        Raises :class:`RateLimitError` / :class:`OverloadError` on
        refusal, :class:`DeadlineExceededError` when the (default or
        client) deadline expires first, and otherwise whatever typed
        error the compile itself produced.
        """
        if self._queue is None or self._closed:
            raise ShutdownError("gateway is not running", kernel=spec.name)
        policy = self._policy(tenant)
        tstats = self._tenant_stats(policy)
        self.stats.submitted += 1
        tstats.submitted += 1

        # 1. Token-bucket rate limit, before any other work.
        admitted, retry_after = self._bucket_probe(policy)
        if not admitted:
            self.stats.shed("rate-limit")
            tstats.shed += 1
            tstats.rate_limited += 1
            _count(
                "repro_gateway_sheds_total",
                "Requests refused by the gateway",
                reason="rate-limit",
            )
            raise RateLimitError(
                f"tenant {tenant!r} exceeded "
                f"{policy.rate:.1f} req/s (retry in {retry_after:.2f}s)",
                kernel=spec.name,
                tenant=tenant,
                retry_after=retry_after,
            )

        options = options or CompileOptions()
        if options.deadline is None and self.config.default_deadline is not None:
            options = dataclasses.replace(
                options, deadline=time.time() + self.config.default_deadline
            )

        # Brownout recovery: an empty queue means the standing delay is
        # zero *now*.  Feed that to the EWMA here, because in cache-only
        # mode nothing is dispatched and no other delay samples arrive
        # -- without this the ladder could latch at level 3 forever.
        if self._queue.empty() and not self._inflight:
            self._note_delay(0.0)

        # 2. Cache-only brownout: level 3 serves hits and sheds misses
        #    without ever touching the queue.
        if self.stats.brownout_level >= 3:
            hit = self._cache_probe(spec, options)
            if hit is not None:
                self.stats.completed += 1
                self.stats.cache_only_hits += 1
                tstats.admitted += 1
                tstats.completed += 1
                return hit
            self.stats.shed("cache-only")
            tstats.shed += 1
            _count(
                "repro_gateway_sheds_total",
                "Requests refused by the gateway",
                reason="cache-only",
            )
            raise OverloadError(
                "gateway is in cache-only brownout and the artifact "
                "cache has no entry for this request",
                kernel=spec.name,
                reason="cache-only",
                queue_delay=self.stats.queue_delay_ewma,
            )

        # 3. Single-flight: coalesce onto an in-flight identical compile.
        key = self._content_key(spec, options)
        leader = self._inflight.get(key)
        if leader is not None:
            self.stats.dedup_coalesced += 1
            self.stats.admitted += 1
            tstats.admitted += 1
            tstats.coalesced += 1
            _count(
                "repro_gateway_dedup_coalesced_total",
                "Requests collapsed onto an in-flight identical compile",
            )
            return await self._await_result(leader.future, spec, options, tstats)

        # 4. Bounded queue depth.
        depth = self._queue.qsize()
        if depth >= self.config.max_queue_depth:
            self.stats.shed("queue-full")
            tstats.shed += 1
            _count(
                "repro_gateway_sheds_total",
                "Requests refused by the gateway",
                reason="queue-full",
            )
            raise OverloadError(
                f"admission queue is full ({depth} >= "
                f"{self.config.max_queue_depth})",
                kernel=spec.name,
                reason="queue-full",
                queue_depth=depth,
            )

        # Admitted: become the single-flight leader and enqueue.
        chaos_point("gateway.enqueue")
        loop = asyncio.get_running_loop()
        request = _Request(
            spec=spec,
            options=options,
            tenant=tenant,
            key=key,
            enqueued=time.monotonic(),
            future=loop.create_future(),
        )
        self._inflight[key] = request
        self._seq += 1
        self._queue.put_nowait((policy.priority, self._seq, request))
        self.stats.admitted += 1
        self.stats.queue_depth_max = max(
            self.stats.queue_depth_max, self._queue.qsize()
        )
        tstats.admitted += 1
        _count(
            "repro_gateway_admitted_total",
            "Requests admitted into the gateway queue",
        )
        return await self._await_result(request.future, spec, options, tstats)

    # ----------------------------------------------------- admission

    def _policy(self, tenant: str) -> TenantPolicy:
        policy = self.tenants.get(tenant)
        if policy is None:
            policy = TenantPolicy(name=tenant)
            self.tenants[tenant] = policy
        return policy

    def _tenant_stats(self, policy: TenantPolicy) -> _TenantStats:
        stats = self.stats.tenants.get(policy.name)
        if stats is None:
            stats = _TenantStats(priority=policy.priority)
            self.stats.tenants[policy.name] = stats
        return stats

    def _bucket_probe(self, policy: TenantPolicy) -> Tuple[bool, float]:
        if policy.rate is None:
            return True, 0.0
        bucket = self._buckets.get(policy.name)
        if bucket is None:
            bucket = _TokenBucket(policy.rate, policy.burst)
            self._buckets[policy.name] = bucket
        return bucket.acquire()

    def _cache_probe(self, spec: Spec, options: CompileOptions):
        cache = self.service.cache
        if cache is None:
            return None
        hit = cache.get(cache.key_for(spec, options))
        if hit is not None:
            hit.diagnostics.cache_hit = True
        return hit

    def _content_key(self, spec: Spec, options: CompileOptions) -> str:
        if self.service.cache is not None:
            return self.service.cache.key_for(spec, options)
        # No artifact cache: single-flight still works off the same
        # content identity (deadline excluded by options_fingerprint).
        return spec_fingerprint(spec) + "|" + options_fingerprint(options)

    async def _await_result(
        self,
        future: "asyncio.Future[CompileResult]",
        spec: Spec,
        options: CompileOptions,
        tstats: _TenantStats,
    ) -> CompileResult:
        # shield(): a coalesced waiter abandoning (slow-loris client,
        # its own deadline) must not cancel the shared leader compile.
        try:
            if options.deadline is not None:
                residual = options.deadline - time.time()
                result = await asyncio.wait_for(
                    asyncio.shield(future), timeout=max(0.0, residual)
                )
            else:
                result = await asyncio.shield(future)
        except asyncio.TimeoutError:
            self.stats.failed += 1
            self.stats.shed("deadline")
            tstats.failed += 1
            _count(
                "repro_gateway_deadline_waits_total",
                "Waiters whose deadline expired before the shared result",
            )
            raise DeadlineExceededError(
                "deadline expired while awaiting the compile result",
                kernel=spec.name,
                deadline=options.deadline,
                residual=options.deadline - time.time(),
            ) from None
        except Exception:
            self.stats.failed += 1
            tstats.failed += 1
            raise
        self.stats.completed += 1
        tstats.completed += 1
        return result

    # ---------------------------------------------------- dispatching

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            _, _, request = await self._queue.get()
            try:
                self._dispatch_prepare(request)
            except Exception as exc:  # noqa: BLE001 - typed by construction
                self._finish_error(request, exc)
                continue
            options = self._apply_brownout(request.options)
            self.stats.dedup_leaders += 1
            exec_future = loop.run_in_executor(
                self._executor,
                self._compile_blocking,
                request.spec,
                options,
            )
            try:
                result = await asyncio.shield(exec_future)
            except asyncio.CancelledError:
                # Graceful drain: aclose() cancelled this dispatcher but
                # the compile keeps running on its executor thread.
                # Hand its eventual outcome to the waiters -- a leader
                # future left pending forever would hang every client
                # coalesced onto it.
                exec_future.add_done_callback(
                    lambda f: (
                        self._finish_error(request, f.exception())
                        if f.exception() is not None
                        else self._finish_ok(request, f.result())
                    )
                )
                raise
            except Exception as exc:  # noqa: BLE001 - service errors are typed
                self._finish_error(request, exc)
            else:
                self._finish_ok(request, result)

    def _compile_blocking(self, spec: Spec, options: CompileOptions):
        with activate(getattr(self, "_obs_session", None)):
            return self.service.compile_spec(spec, options)

    def _dispatch_prepare(self, request: _Request) -> None:
        """Delay accounting + CoDel + deadline check for one dequeued
        request; raises the typed shed error when it must not run."""
        now = time.monotonic()
        delay = now - request.enqueued
        self._note_delay(delay)
        chaos_point("gateway.dispatch")
        if self._codel_drop(delay, now):
            self.stats.shed("queue-delay")
            tstats = self.stats.tenants.get(request.tenant)
            if tstats is not None:
                tstats.shed += 1
            _count(
                "repro_gateway_sheds_total",
                "Requests refused by the gateway",
                reason="queue-delay",
            )
            _obs_event(
                "gateway_codel_shed",
                kernel=request.spec.name,
                queue_delay=delay,
                drop_count=self._drop_count,
            )
            raise OverloadError(
                f"shed by CoDel: queue delay {delay * 1e3:.0f}ms has been "
                f"above the {self.config.codel_target * 1e3:.0f}ms target "
                f"for a full interval",
                kernel=request.spec.name,
                reason="queue-delay",
                queue_delay=delay,
            )
        deadline = request.options.deadline
        if deadline is not None and deadline - time.time() <= 0:
            self.stats.shed("deadline")
            raise DeadlineExceededError(
                f"deadline expired after {delay:.3f}s in the gateway queue",
                kernel=request.spec.name,
                deadline=deadline,
                residual=deadline - time.time(),
            )

    def _finish_ok(self, request: _Request, result: CompileResult) -> None:
        self._inflight.pop(request.key, None)
        if not request.future.done():
            request.future.set_result(result)

    def _finish_error(self, request: _Request, error: BaseException) -> None:
        self._inflight.pop(request.key, None)
        if not request.future.done():
            request.future.set_exception(error)
        else:  # pragma: no cover - every waiter already gone
            pass

    # --------------------------------------------- CoDel and brownout

    def _codel_drop(self, delay: float, now: float) -> bool:
        """One step of the (simplified) CoDel control law; True = shed
        this request."""
        target = self.config.codel_target
        interval = self.config.codel_interval
        if delay >= target * self.config.codel_hard_factor:
            # Past the hard ceiling: stale beyond salvage, shed no
            # matter which state the control law is in.
            self._drop_count += 1
            return True
        if delay < target:
            self._first_above = 0.0
            self._dropping = False
            self._drop_count = 0
            return False
        if self._first_above == 0.0:
            # Delay just rose above target: give it one interval to be
            # a transient burst before shedding anything.
            self._first_above = now + interval
            return False
        if not self._dropping:
            if now >= self._first_above:
                self._dropping = True
                self._drop_count = 1
                return True
            return False
        # Head-drop variant: while in the dropping state every dequeued
        # request that already waited past target is shed.  Vanilla
        # CoDel spaces drops at interval/sqrt(n) to nudge TCP flows;
        # a compile queue has no congestion-controlled sender to signal,
        # and admitting stale work would blow the latency SLO the
        # admitted-p99 gate enforces -- so the backlog is flushed
        # instead, and fresh arrivals (delay < target) exit the state.
        self._drop_count += 1
        return True

    def _note_delay(self, delay: float) -> None:
        self.stats.queue_delay_ewma = (
            _EWMA_ALPHA * delay + (1.0 - _EWMA_ALPHA) * self.stats.queue_delay_ewma
        )
        level = self.config.brownout_level(
            self.stats.queue_delay_ewma, self.stats.brownout_level
        )
        if level != self.stats.brownout_level:
            self.stats.brownout_transitions += 1
            _count(
                "repro_gateway_brownout_transitions_total",
                "Brownout ladder level changes",
            )
            _gauge(
                "repro_gateway_brownout_level",
                "Current brownout ladder level (0 = healthy)",
                float(level),
            )
            _obs_event(
                "gateway_brownout",
                level=level,
                previous=self.stats.brownout_level,
                queue_delay_ewma=self.stats.queue_delay_ewma,
            )
            self.stats.brownout_level = level

    def _apply_brownout(self, options: CompileOptions) -> CompileOptions:
        level = min(self.stats.brownout_level, len(BROWNOUT_SCALES) - 1)
        scale = BROWNOUT_SCALES[level]
        if scale >= 1.0:
            return options
        return options.scaled(scale)
