"""Supervisor + worker pool: blast-radius containment for compiles.

:class:`CompileService` runs each :func:`repro.compiler.compile_spec`
in a sandboxed subprocess (``fork`` start method, ``resource`` rlimits,
hard kill-timeout) so an OOM, hang, or hard crash in one kernel can
never take down a sweep.  Around the worker it layers:

* **jittered exponential-backoff retries at shrinking budgets** --
  failures classified by :func:`repro.errors.is_resource_failure`
  (node-limit / memory / worker death) are retried with time *and*
  node budgets scaled by ``shrink_factor ** attempt`` and a shifted
  differential seed, after a deterministic jittered backoff sleep;
  logic errors fail fast;
* **a per-kernel circuit breaker** -- after ``strike_threshold``
  failed attempts a kernel's breaker opens and further compiles raise
  :class:`repro.errors.CircuitOpenError` immediately, so one
  pathological kernel cannot monopolize a batch;
* **the crash-safe artifact cache** (:mod:`repro.service.cache`) --
  consulted before any worker is spawned, written after any
  non-degraded success; hits are marked ``diagnostics.cache_hit``.

``compile_many`` fans a batch out over a bounded thread pool, each
thread supervising its own subprocess; results come back in input
order with per-item errors instead of a batch abort.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import random
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _mp_wait
from typing import Dict, Iterator, List, Optional, Sequence

from ..chaos.inject import chaos_flag, current_plan, set_attempt
from ..compiler import CompileOptions, CompileResult, compile_spec
from ..errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ShutdownError,
    WorkerCrashError,
    WorkerTimeoutError,
    is_resource_failure,
    stage_error,
)
from ..frontend.lift import Spec
from ..observability import current_session, event as _obs_event, span as _obs_span
from ..seeding import stable_rng
from .cache import ArtifactCache
from .worker import CompileTask, FaultInjection, WorkerLimits, worker_main

__all__ = [
    "RetryPolicy",
    "ServiceStats",
    "BatchItem",
    "BoundedLog",
    "CompileService",
]

#: Wall-clock ceiling when neither the limits nor the options give one.
_DEFAULT_KILL_TIMEOUT = 120.0

#: How much of a dead worker's stderr the supervisor keeps.
_STDERR_TAIL_LINES = 50

#: Residual budget below which a deadline-carrying compile is shed
#: *before* forking a worker -- less than this cannot produce anything
#: useful, so spending a fork + saturation startup on it is waste.
_MIN_DEADLINE_BUDGET = 0.05

#: Grace on top of the residual deadline budget before the supervisor
#: SIGKILLs a worker that ignores its cooperative deadline (a chaos
#: sleep, a tight C loop): small enough that a shed surfaces within a
#: couple of seconds of the deadline, large enough for a clean exit.
_DEADLINE_KILL_GRACE = 2.0

#: Default ring capacity of ``CompileService.breaker_log``.
_BREAKER_LOG_LIMIT = 1024


class BoundedLog:
    """Append-only ring buffer with drop accounting.

    ``CompileService.breaker_log`` used to be a bare list: every breaker
    transition of a long-lived service accumulated forever -- an
    unbounded-memory bug for exactly the deployment the gateway exists
    for.  This keeps the last ``maxlen`` entries, counts what it
    dropped (``dropped`` / ``total``), and the chaos breaker-legality
    checker uses the drop count to replay a truncated log leniently
    instead of reporting false protocol violations.
    """

    def __init__(self, maxlen: int = _BREAKER_LOG_LIMIT) -> None:
        if maxlen <= 0:
            raise ValueError("maxlen must be positive")
        self.maxlen = maxlen
        self.dropped = 0
        self.total = 0
        self._entries: deque = deque(maxlen=maxlen)

    def append(self, entry: Dict[str, object]) -> None:
        if len(self._entries) == self.maxlen:
            self.dropped += 1
        self._entries.append(entry)
        self.total += 1

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index):
        return list(self._entries)[index]

    def clear(self) -> None:
        self._entries.clear()
        self.dropped = 0
        self.total = 0


def _obs_count(name: str, help_text: str, **labels: str) -> None:
    """Bump a service counter on the ambient metrics registry, if any."""
    session = current_session()
    if session is None or session.metrics is None:
        return
    counter = session.metrics.counter(
        name, help_text, labels=tuple(sorted(labels)) if labels else ()
    )
    (counter.labels(**labels) if labels else counter).inc()


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff / shrink / circuit-breaker knobs."""

    #: Total attempts per compile call (1 = no retries).
    max_attempts: int = 3
    #: First backoff sleep in seconds; attempt ``i`` sleeps
    #: ``base * factor**(i-1)`` +- ``jitter`` fraction.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25
    #: Budget scale per retry: attempt ``i`` runs at
    #: ``shrink_factor**i`` of the original time *and* node budgets
    #: (:meth:`CompileOptions.scaled`, with its floors).
    shrink_factor: float = 0.5
    #: Failed attempts per kernel before its circuit breaker opens.
    strike_threshold: int = 5

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        base = self.backoff_base * (self.backoff_factor ** max(0, attempt - 1))
        return base * (1.0 + self.backoff_jitter * rng.uniform(-1.0, 1.0))

    def shrunk_options(self, options: CompileOptions, attempt: int) -> CompileOptions:
        if attempt == 0:
            return options
        # Shift the differential seed so a retried validation does not
        # replay the exact samples of the failed attempt.
        return dataclasses.replace(
            options.scaled(self.shrink_factor ** attempt),
            seed=options.seed + attempt,
        )


@dataclass
class ServiceStats:
    """Aggregate counters across one :class:`CompileService`."""

    #: Compilations actually executed (cache hits excluded).
    compiles: int = 0
    cache_hits: int = 0
    retries: int = 0
    worker_crashes: int = 0
    worker_timeouts: int = 0
    breaker_trips: int = 0
    failures: int = 0
    #: Compiles shed with DeadlineExceededError before a worker was
    #: forked (residual budget too small to finish).
    deadline_sheds: int = 0

    def summary(self) -> str:
        return (
            f"service: {self.compiles} compiles, {self.cache_hits} cache "
            f"hits, {self.retries} retries, {self.worker_crashes} worker "
            f"crashes, {self.worker_timeouts} kill-timeouts, "
            f"{self.breaker_trips} breaker trips, "
            f"{self.deadline_sheds} deadline sheds, "
            f"{self.failures} failures"
        )


@dataclass
class BatchItem:
    """Outcome of one kernel inside ``compile_many``."""

    name: str
    result: Optional[CompileResult] = None
    error: Optional[BaseException] = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.result is not None


class CompileService:
    """Process-isolated, cached, fault-tolerant compilation front end.

    Thread-safe: ``compile_many`` supervises several workers from a
    thread pool, and independent callers may share one instance (and
    therefore one cache and one set of circuit breakers).
    """

    def __init__(
        self,
        cache: Optional[ArtifactCache] = None,
        limits: Optional[WorkerLimits] = None,
        policy: Optional[RetryPolicy] = None,
        max_workers: Optional[int] = None,
        isolate: bool = True,
        seed: int = 0,
        inject_for: Optional[Dict[str, FaultInjection]] = None,
        checkpoint_dir: Optional[str] = None,
    ) -> None:
        self.cache = cache
        self.limits = limits or WorkerLimits()
        self.policy = policy or RetryPolicy()
        self.max_workers = max_workers or min(4, os.cpu_count() or 1)
        self.isolate = isolate
        self.seed = seed
        #: Test/CLI fault-injection surface: kernel name -> injection,
        #: delivered to that kernel's workers (see service/worker.py).
        self.inject_for = dict(inject_for or {})
        #: When set, every compile runs with persistent saturation
        #: checkpoints under this directory (unless its options already
        #: name one), so a retry after a worker death resumes from the
        #: dead worker's last end-of-iteration state (DESIGN.md §11).
        self.checkpoint_dir = checkpoint_dir
        self.stats = ServiceStats()
        self._strikes: Dict[str, int] = {}
        self._lock = threading.Lock()
        #: Ring-buffered record of circuit-breaker transitions
        #: (``strike`` / ``open`` / ``reject`` / ``close`` / ``reset``),
        #: consumed by the chaos invariant "breaker transitions are
        #: legal" (repro/chaos/invariants.py).  Bounded so a long-lived
        #: service cannot grow memory without limit; the invariant
        #: checker reads ``breaker_log.dropped`` and replays a
        #: truncated log leniently.  (The flight-recorder event stream
        #: these transitions also feed is ring-bounded by construction
        #: -- ``FlightRecorder`` uses ``deque(maxlen=...)``.)
        self.breaker_log: BoundedLog = BoundedLog(_BREAKER_LOG_LIMIT)
        #: Graceful-drain latch: once set, new compiles are refused with
        #: ShutdownError, in-flight failures stop retrying, and live
        #: workers are killed + reaped by their supervising threads.
        self._draining = threading.Event()
        self._live: List[object] = []
        self._previous_handlers: Dict[int, object] = {}
        if isolate and hasattr(multiprocessing, "get_all_start_methods") and (
            "fork" in multiprocessing.get_all_start_methods()
        ):
            self._ctx = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX fallback
            self._ctx = multiprocessing.get_context()

    # ------------------------------------------------------ public API

    def compile_spec(
        self,
        spec: Spec,
        options: Optional[CompileOptions] = None,
        inject: Optional[FaultInjection] = None,
    ) -> CompileResult:
        """Compile one spec with caching, isolation, and retries.

        Raises the final attempt's (reconstructed) staged error when
        every attempt failed, or :class:`CircuitOpenError` when the
        kernel's breaker is already open.
        """
        if self._draining.is_set():
            raise ShutdownError("service is draining", kernel=spec.name)
        options = options or CompileOptions()
        if self.checkpoint_dir is not None and options.checkpoint_dir is None:
            options = dataclasses.replace(
                options, checkpoint_dir=self.checkpoint_dir
            )
        if inject is None:
            inject = self.inject_for.get(spec.name)

        with _obs_span(
            "service.compile", kernel=spec.name, isolate=self.isolate
        ) as svc_span:
            key = None
            if self.cache is not None:
                key = self.cache.key_for(spec, options)
                cached = self.cache.get(key)
                if cached is not None:
                    cached.diagnostics.cache_hit = True
                    with self._lock:
                        self.stats.cache_hits += 1
                    _obs_count(
                        "repro_service_cache_hits_total",
                        "Artifact-cache hits served without spawning a worker",
                    )
                    if svc_span is not None:
                        svc_span.set(cache_hit=True)
                    return cached

            with self._lock:
                strikes = self._strikes.get(spec.name, 0)
                if strikes >= self.policy.strike_threshold:
                    self.stats.breaker_trips += 1
                    self._breaker_event(spec.name, "reject", strikes)
                    _obs_count(
                        "repro_service_breaker_trips_total",
                        "Compiles refused because the kernel's breaker is open",
                    )
                    _obs_event(
                        "breaker_open", kernel=spec.name, strikes=strikes
                    )
                    raise CircuitOpenError(
                        f"circuit breaker open after {strikes} strikes",
                        kernel=spec.name,
                    )

            rng = stable_rng(self.seed, "supervisor-jitter", spec.name)
            last_error: Optional[BaseException] = None
            for attempt in range(self.policy.max_attempts):
                if attempt > 0:
                    with self._lock:
                        self.stats.retries += 1
                    _obs_count(
                        "repro_service_retries_total",
                        "Shrunk-budget retry attempts after a failure",
                    )
                    # A jittered backoff must never sleep past the
                    # request's deadline: clamp to the residual budget
                    # so a doomed retry fails fast at the shed below
                    # instead of sleeping first and failing late.
                    delay = self.policy.backoff_delay(attempt, rng)
                    if options.deadline is not None:
                        delay = min(
                            delay, max(0.0, options.deadline - time.time())
                        )
                    if delay > 0:
                        time.sleep(delay)
                # Deadline propagation: shed *before* forking a worker
                # when the residual budget cannot cover a useful
                # attempt.  The typed error chains the failure that
                # consumed the budget, so a post-mortem still shows why.
                if options.deadline is not None:
                    residual = options.deadline - time.time()
                    if residual < _MIN_DEADLINE_BUDGET:
                        with self._lock:
                            self.stats.deadline_sheds += 1
                            self.stats.failures += 1
                        _obs_count(
                            "repro_service_deadline_sheds_total",
                            "Compiles shed pre-fork on an expired deadline",
                        )
                        _obs_event(
                            "deadline_shed",
                            kernel=spec.name,
                            attempt=attempt,
                            residual=residual,
                        )
                        if svc_span is not None:
                            svc_span.set(failed=True, deadline_shed=True)
                        raise DeadlineExceededError(
                            f"residual deadline budget {residual:.3f}s is "
                            f"below the {_MIN_DEADLINE_BUDGET:.2f}s floor; "
                            f"shed before forking a worker "
                            f"(attempt {attempt})",
                            kernel=spec.name,
                            deadline=options.deadline,
                            residual=residual,
                        ) from last_error
                shrunk = self.policy.shrunk_options(options, attempt)
                with self._lock:
                    self.stats.compiles += 1
                with _obs_span(
                    "service.attempt", kernel=spec.name, attempt=attempt
                ) as att_span:
                    try:
                        result = self._run_once(spec, shrunk, attempt, inject)
                    except Exception as exc:  # noqa: BLE001 - classified below
                        if self._draining.is_set():
                            # The drain killed (or preempted) this
                            # worker: retrying inside a dying supervisor
                            # is pointless, and the failure must not
                            # count as a strike against the kernel.
                            raise ShutdownError(
                                "service drained mid-compile",
                                kernel=spec.name,
                            ) from exc
                        last_error = exc
                        if att_span is not None:
                            att_span.set(
                                failed=True,
                                error=f"{type(exc).__name__}: {exc}",
                            )
                        with self._lock:
                            new_strikes = self._strikes.get(spec.name, 0) + 1
                            self._strikes[spec.name] = new_strikes
                            self._breaker_event(spec.name, "strike", new_strikes)
                            if new_strikes == self.policy.strike_threshold:
                                self._breaker_event(
                                    spec.name, "open", new_strikes
                                )
                        if not is_resource_failure(exc):
                            break
                        continue
                    self._adopt_worker_trace(result)
                with self._lock:
                    if self._strikes.get(spec.name, 0):
                        self._breaker_event(spec.name, "close", 0)
                    self._strikes[spec.name] = 0
                result.diagnostics.attempts = attempt + 1
                if self.cache is not None and key is not None:
                    # Degraded results are never cached.  Neither is a
                    # deadline-clamped compile that timed out: it produced
                    # a barely-saturated artifact, and the cache key
                    # excludes the deadline, so caching it would serve
                    # the rushed result to unconstrained requests.
                    rushed = options.deadline is not None and result.timed_out
                    if not result.degraded and not rushed:
                        self.cache.put(key, result)
                return result

            with self._lock:
                self.stats.failures += 1
            if svc_span is not None:
                svc_span.set(failed=True)
            assert last_error is not None
            raise last_error

    def compile_many(
        self,
        specs: Sequence[Spec],
        options: Optional[CompileOptions] = None,
        per_spec_options: Optional[Sequence[Optional[CompileOptions]]] = None,
    ) -> List[BatchItem]:
        """Compile a batch concurrently; results in input order."""
        from concurrent.futures import ThreadPoolExecutor

        items: List[BatchItem] = [BatchItem(name=s.name) for s in specs]

        def one(index: int) -> None:
            start = time.perf_counter()
            opts = options
            if per_spec_options is not None and per_spec_options[index] is not None:
                opts = per_spec_options[index]
            try:
                items[index].result = self.compile_spec(specs[index], opts)
            except Exception as exc:  # noqa: BLE001 - reported per item
                items[index].error = exc
            items[index].elapsed = time.perf_counter() - start

        workers = max(1, min(self.max_workers, len(specs) or 1))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(one, range(len(specs))))
        return items

    def reset_breaker(self, kernel: Optional[str] = None) -> None:
        with self._lock:
            if kernel is None:
                for name in list(self._strikes):
                    if self._strikes[name]:
                        self._breaker_event(name, "reset", 0)
                self._strikes.clear()
            else:
                if self._strikes.get(kernel, 0):
                    self._breaker_event(kernel, "reset", 0)
                self._strikes.pop(kernel, None)

    def strikes(self, kernel: str) -> int:
        with self._lock:
            return self._strikes.get(kernel, 0)

    def _breaker_event(self, kernel: str, transition: str, strikes: int) -> None:
        """Append one breaker transition (caller holds ``_lock``)."""
        self.breaker_log.append(
            {
                "kernel": kernel,
                "event": transition,
                "strikes": strikes,
                "time": time.time(),
            }
        )

    # ------------------------------------------------- graceful shutdown

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def shutdown(self, kill_inflight: bool = True) -> None:
        """Drain the service: refuse new compiles, stop retry loops, and
        (by default) SIGKILL every in-flight worker.

        Killed workers are reaped by their own supervising threads --
        the kill makes the worker's sentinel fire, ``_drive_worker``'s
        ``finally`` joins and closes the process, and ``_run_isolated``
        unlinks the stderr scratch file -- so a drained batch leaves no
        zombies and no scratch litter (asserted in tests).  Safe to call
        from a signal handler and idempotent.
        """
        self._draining.set()
        _obs_event("service_shutdown", kill_inflight=kill_inflight)
        if not kill_inflight:
            return
        with self._lock:
            procs = list(self._live)
        for proc in procs:
            try:
                self._kill(proc)
            except Exception:  # pragma: no cover - already reaped/closed
                pass

    def resume(self) -> None:
        """Clear the drain latch (tests / long-lived servers that drain
        and then accept work again)."""
        self._draining.clear()

    def install_signal_handlers(self, signums: Optional[Sequence[int]] = None):
        """Install SIGTERM/SIGINT handlers that drain this service.

        Returns the mapping of previous handlers (also remembered for
        :meth:`uninstall_signal_handlers`).  A no-op off the main thread
        -- CPython only delivers signals there, and ``signal.signal``
        raises anywhere else.  The previous handler is chained after the
        drain so embedding applications keep their own cleanup.
        """
        import signal as _signal

        if threading.current_thread() is not threading.main_thread():
            return {}
        if signums is None:
            signums = (_signal.SIGTERM, _signal.SIGINT)
        previous: Dict[int, object] = {}

        def _drain_handler(signum, frame):
            self.shutdown()
            prev = previous.get(signum)
            if callable(prev):
                prev(signum, frame)

        for signum in signums:
            previous[signum] = _signal.signal(signum, _drain_handler)
        self._previous_handlers = dict(previous)
        return previous

    def uninstall_signal_handlers(self) -> None:
        import signal as _signal

        for signum, prev in self._previous_handlers.items():
            try:
                _signal.signal(signum, prev)  # type: ignore[arg-type]
            except (TypeError, ValueError):  # pragma: no cover
                pass
        self._previous_handlers = {}

    def _register(self, proc) -> None:
        with self._lock:
            self._live.append(proc)

    def _unregister(self, proc) -> None:
        with self._lock:
            try:
                self._live.remove(proc)
            except ValueError:  # pragma: no cover - double unregister
                pass

    # --------------------------------------------------- worker driving

    @staticmethod
    def _adopt_worker_trace(result: CompileResult) -> None:
        """Re-parent the worker's exported spans under the supervisor's
        current span, so one trace shows the whole fork round-trip."""
        session = current_session()
        data = getattr(result, "observability", None)
        if session is None or session.tracer is None or data is None:
            return
        if not data.spans:
            return
        parent = session.tracer.current_span()
        session.tracer.adopt(
            data.spans, parent.span_id if parent is not None else None
        )

    def _run_once(
        self,
        spec: Spec,
        options: CompileOptions,
        attempt: int,
        inject: Optional[FaultInjection],
    ) -> CompileResult:
        # Parent-side chaos context: attempt-scoped FaultSpecs (e.g.
        # "fail only the first attempt") match against this.
        set_attempt(attempt)
        if not self.isolate:
            if inject is not None and inject.fires_on(attempt):
                if inject.mode in ("sigkill", "hang", "oom"):
                    raise WorkerCrashError(
                        f"simulated in-process {inject.mode}", kernel=spec.name
                    )
                inject.trigger()
            return compile_spec(spec, options)
        return self._run_isolated(spec, options, attempt, inject)

    def _run_isolated(
        self,
        spec: Spec,
        options: CompileOptions,
        attempt: int,
        inject: Optional[FaultInjection],
    ) -> CompileResult:
        limits = self.limits.derive(options.time_limit)
        if options.deadline is not None:
            # The kill-timeout is normally a generous 3x backstop over
            # the cooperative time limit; with a client deadline the
            # worker must die shortly after the budget runs out so the
            # typed deadline error surfaces within bound instead of
            # minutes later.
            residual = max(0.0, options.deadline - time.time())
            ceiling = residual + _DEADLINE_KILL_GRACE
            if limits.kill_timeout is None or limits.kill_timeout > ceiling:
                limits = dataclasses.replace(limits, kill_timeout=ceiling)
        stderr_path = self._stderr_scratch(spec.name, attempt)
        task = CompileTask(
            spec=spec,
            options=options,
            limits=limits,
            attempt=attempt,
            inject=inject,
            stderr_path=stderr_path,
            # The chaos plan crosses the fork so worker-side seams
            # (runner.iteration, checkpoint.write, ...) fire inside the
            # sandbox; each attempt's worker starts from the parent's
            # counter snapshot, keeping per-attempt firing deterministic.
            chaos_plan=current_plan(),
        )
        try:
            return self._drive_worker(spec, task, limits, stderr_path)
        finally:
            if stderr_path is not None:
                try:
                    os.unlink(stderr_path)
                except OSError:
                    pass

    def _drive_worker(
        self,
        spec: Spec,
        task: CompileTask,
        limits: WorkerLimits,
        stderr_path: Optional[str],
    ) -> CompileResult:
        if chaos_flag("worker.spawn"):
            raise WorkerCrashError(
                "injected worker spawn failure", kernel=spec.name
            )
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, task),
            name=f"repro-worker-{spec.name}-a{task.attempt}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._register(proc)
        if self._draining.is_set():
            # A drain that began while this worker was forking swept
            # ``_live`` before the worker was in it.
            self._kill(proc)
        kill_timeout = limits.kill_timeout or _DEFAULT_KILL_TIMEOUT
        deadline = time.monotonic() + kill_timeout
        message = None
        try:
            while message is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._kill(proc)
                    with self._lock:
                        self.stats.worker_timeouts += 1
                    _obs_count(
                        "repro_service_worker_timeouts_total",
                        "Workers SIGKILLed at the hard kill-timeout",
                    )
                    tail = self._read_stderr_tail(stderr_path)
                    _obs_event(
                        "worker_timeout",
                        kernel=spec.name,
                        attempt=task.attempt,
                        kill_timeout=kill_timeout,
                        stderr_tail=tail or "",
                    )
                    raise WorkerTimeoutError(
                        f"worker exceeded the {kill_timeout:.1f}s kill-timeout "
                        f"and was SIGKILLed",
                        kernel=spec.name,
                        signal=9,
                        stderr_tail=tail,
                    )
                ready = _mp_wait([parent_conn, proc.sentinel], timeout=remaining)
                if parent_conn in ready:
                    try:
                        message = parent_conn.recv()
                    except (EOFError, OSError):
                        break  # died between poll and send
                elif ready:  # sentinel only: process exited
                    # Drain a message sent just before death, if any.
                    if parent_conn.poll(0.25):
                        try:
                            message = parent_conn.recv()
                        except (EOFError, OSError):
                            message = None
                    break
        finally:
            self._unregister(proc)
            exitcode = self._reap(proc)
            parent_conn.close()

        if message is not None and chaos_flag("worker.result"):
            # Simulate the result message being lost on the pipe: the
            # compile follows the worker-crash path even though the
            # worker exited cleanly.
            message = None

        if message is None:
            sig = -exitcode if exitcode is not None and exitcode < 0 else None
            with self._lock:
                self.stats.worker_crashes += 1
            _obs_count(
                "repro_service_worker_crashes_total",
                "Workers that died without delivering a result",
            )
            tail = self._read_stderr_tail(stderr_path)
            _obs_event(
                "worker_crash",
                kernel=spec.name,
                attempt=task.attempt,
                exitcode=exitcode,
                signal=sig,
                stderr_tail=tail or "",
            )
            raise WorkerCrashError(
                "worker died without a result "
                + (
                    f"(signal {sig})"
                    if sig is not None
                    else f"(exit code {exitcode})"
                ),
                kernel=spec.name,
                exitcode=exitcode,
                signal=sig,
                stderr_tail=tail,
            )

        kind, payload = message
        if kind == "ok":
            return payload
        type_name, stage, text = payload
        # Reconstruct a staged error; keep the original type name in the
        # message so is_resource_failure's text taxonomy still matches
        # (e.g. a worker-side MemoryError).
        error = stage_error(stage)(f"{type_name}: {text}", kernel=spec.name)
        tail = self._read_stderr_tail(stderr_path)
        if tail:
            error.partial["stderr_tail"] = tail
        raise error

    @staticmethod
    def _stderr_scratch(kernel: str, attempt: int) -> Optional[str]:
        """A scratch file the worker dup2s its stderr onto.  ``None``
        (no capture) when the temp dir is unusable."""
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in kernel)
        try:
            fd, path = tempfile.mkstemp(
                prefix=f"repro-worker-{safe}-a{attempt}-", suffix=".stderr"
            )
            os.close(fd)
            return path
        except OSError:  # pragma: no cover - no writable tmp
            return None

    @staticmethod
    def _read_stderr_tail(
        path: Optional[str], max_lines: int = _STDERR_TAIL_LINES
    ) -> Optional[str]:
        """Last ``max_lines`` lines of the worker's stderr scratch file
        (``None`` when nothing was captured)."""
        if path is None:
            return None
        try:
            with open(path, "r", errors="replace") as handle:
                lines = handle.read().splitlines()
        except OSError:
            return None
        if not lines:
            return None
        return "\n".join(lines[-max_lines:])

    @staticmethod
    def _kill(proc) -> None:
        try:
            proc.kill()
        except (AttributeError, OSError):  # pragma: no cover
            try:
                proc.terminate()
            except OSError:
                pass

    def _reap(self, proc) -> Optional[int]:
        """Join (force-killing if stuck), close, return the exit code."""
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - stuck in uninterruptible IO
            self._kill(proc)
            proc.join(timeout=5.0)
        exitcode = proc.exitcode
        if hasattr(proc, "close"):
            try:
                proc.close()
            except ValueError:  # pragma: no cover
                pass
        return exitcode
