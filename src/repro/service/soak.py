"""Open-loop soak harness for the compile gateway (``repro serve
--bench``; DESIGN.md §12, TESTING.md).

The harness answers one question: *does the gateway survive sustained
overload the way DESIGN.md §12 promises?*  It drives
:class:`~repro.service.gateway.CompileGateway` with an **open-loop**
arrival process -- request times are precomputed from the seed and do
not wait for completions, so a slow backend faces a growing queue
exactly as a real front end would -- through four phases:

``unloaded``
    A trickle, far below capacity.  Its completed-request p99 is the
    baseline the overload gate compares against.
``sustained``
    A steady rate the backend can serve.  The single-flight dedup
    probes run here: bursts of N identical fresh-key requests fired
    concurrently, whose collapse ratio (coalesced / (N - 1)) must
    clear the ``dedup_floor``.
``burst``
    ``burst_multiplier`` x the sustained rate -- genuine overload.  The
    gateway must shed (typed errors only), and admitted requests
    completed after a one-second control-loop warm-up must keep p99
    within ``admitted_p99_factor`` x the unloaded p99.
``recovery``
    Back to the trickle: sheds stop, the brownout ladder steps down.

Two request classes: **hot** requests draw from a three-kernel pool
whose options ``seed`` rotates every ``hot_epoch_seconds`` -- within an
epoch they share one artifact-cache content key, so the first arrival
compiles and the rest coalesce (single-flight) or hit the cache/LRU;
**unique** requests carry a fresh seed each (a ~80 ms 5x5 matmul
saturation), so they always cost real compile time -- they are what
saturates the backend.  Tenants: ``interactive`` (priority 0, hot
only), ``batch`` (priority 2, rate-limited at the sustained rate so
the 4x burst trips the token bucket), plus ``flood`` / slow-loris
clients injected through the chaos seams (``gateway.flood``,
``gateway.client``) when a fault plan is installed.

The run ends with the chaos invariant checkers (typed-errors,
bounded-queue, no-starvation, breaker-legality, cache-integrity) and a
gate table; the ``serve-smoke`` CI job gates a fresh chaos soak on
every push, and ``--report`` writes the JSON report.
"""

from __future__ import annotations

import asyncio
import dataclasses
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..chaos.inject import FaultPlan, FaultSpec, active_plan, chaos_flag
from ..chaos.invariants import (
    Violation,
    check_bounded_queue,
    check_breaker_log,
    check_cache_integrity,
    check_no_starvation,
    check_typed_error,
)
from ..compiler import CompileOptions
from ..errors import (
    CompileError,
    DeadlineExceededError,
    OverloadError,
)
from ..frontend.lift import Spec, lift
from ..observability import Observability, ObservabilitySession, activate
from ..seeding import stable_rng, stable_seed
from .cache import ArtifactCache
from .gateway import CompileGateway, GatewayConfig, TenantPolicy
from .supervisor import CompileService, RetryPolicy

__all__ = [
    "SOAK_SCHEMA",
    "SoakConfig",
    "soak_kernels",
    "default_chaos_plan",
    "run_soak",
    "run_soak_sync",
    "render_soak_report",
]

SOAK_SCHEMA = "repro-soak/v1"

#: Seconds of burst excluded from the admitted-p99 gate: the shedding
#: control loop needs one CoDel interval (plus dispatch slack) to react
#: to an overload step, and requests admitted before it engages
#: complete with transient queue delay that says nothing about the
#: steady-state SLO.  The full-phase percentiles are still reported.
_BURST_WARMUP = 1.0


@dataclass(frozen=True)
class SoakConfig:
    """Shape of one soak run.  All randomness derives from ``seed``."""

    seed: int = 0
    unloaded_seconds: float = 4.0
    sustained_seconds: float = 8.0
    burst_seconds: float = 6.0
    recovery_seconds: float = 3.0
    #: Arrival rates (requests/second, open loop).
    unloaded_rate: float = 3.0
    sustained_rate: float = 12.0
    burst_multiplier: float = 4.0
    #: Fraction of arrivals drawn from the hot (dedup/cache) pool.
    hot_fraction: float = 0.7
    #: Hot-pool content keys rotate this often, so dedup and the LRU
    #: tier both stay exercised instead of everything being a disk hit.
    hot_epoch_seconds: float = 2.0
    #: Single-flight probes: ``dedup_probes`` bursts of
    #: ``dedup_probe_size`` identical fresh-key concurrent requests.
    dedup_probes: int = 3
    dedup_probe_size: int = 20
    #: Gates.
    dedup_floor: float = 0.9
    admitted_p99_factor: float = 2.0
    shed_p99_ceiling: float = 0.5
    #: Per-compile budgets (small: the kernels saturate in well under
    #: a second; the *unique* class still costs ~80 ms of real work).
    time_limit: float = 2.0
    node_limit: int = 100_000
    iter_limit: int = 10
    #: In-process LRU capacity of the artifact cache.
    lru_capacity: int = 256
    gateway: GatewayConfig = field(
        default_factory=lambda: GatewayConfig(
            max_queue_depth=16,
            concurrency=1,
            codel_target=0.04,
            codel_interval=0.2,
            default_deadline=2.0,
        )
    )

    def tenants(self) -> Dict[str, TenantPolicy]:
        return {
            "interactive": TenantPolicy("interactive", priority=0),
            # Loose enough that the 4x burst still floods the queue
            # (exercising CoDel and the brownout ladder), tight enough
            # that the token bucket visibly sheds part of it too.
            "batch": TenantPolicy(
                "batch",
                priority=2,
                rate=self.sustained_rate * 2.0,
                burst=max(8, int(self.sustained_rate * 2.0)),
            ),
            "probe": TenantPolicy("probe", priority=1),
            "flood": TenantPolicy("flood", priority=3, rate=2.0, burst=2),
        }


def soak_kernels() -> Tuple[List[Spec], Spec]:
    """``(hot_pool, unique)``: three tiny fast kernels for the hot
    class, and a 5x5 matmul (~80 ms of saturation) for the unique
    class that actually loads the backend."""

    def sdot(a, b, out):
        out[0] = a[0] * b[0] + a[1] * b[1]

    def saxpy(a, b, out):
        for i in range(2):
            out[i] = a[i] * b[i] + a[i]

    def smix(a, b, out):
        for i in range(2):
            out[i] = (a[i] + b[i]) * b[i]

    def mm5(a, b, out):
        for i in range(5):
            for j in range(5):
                acc = 0
                for k in range(5):
                    acc = acc + a[i * 5 + k] * b[k * 5 + j]
                out[i * 5 + j] = acc

    hot = [
        lift("soak-dot", sdot, [("a", 2), ("b", 2)], [("out", 1)]),
        lift("soak-axpy", saxpy, [("a", 2), ("b", 2)], [("out", 2)]),
        lift("soak-mix", smix, [("a", 2), ("b", 2)], [("out", 2)]),
    ]
    unique = lift("soak-mm5", mm5, [("a", 25), ("b", 25)], [("out", 25)])
    return hot, unique


def default_chaos_plan(seed: int = 0) -> FaultPlan:
    """The serve-smoke fault schedule: a queue-delay spike at the
    admission seam, tenant-flood bursts, and slow-loris clients."""
    return FaultPlan(
        [
            FaultSpec("gateway.enqueue", "sleep", nth=40, seconds=0.2),
            FaultSpec("gateway.flood", "flag", probability=0.02, max_fires=3),
            FaultSpec("gateway.client", "flag", probability=0.05, max_fires=10),
        ],
        seed=stable_seed(seed, "soak-chaos"),
    )


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 on an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def _latency_block(values_ms: List[float]) -> Dict[str, float]:
    return {
        "count": len(values_ms),
        "p50": round(_percentile(values_ms, 0.50), 3),
        "p90": round(_percentile(values_ms, 0.90), 3),
        "p99": round(_percentile(values_ms, 0.99), 3),
        "max": round(max(values_ms), 3) if values_ms else 0.0,
    }


class _Soak:
    """One run's mutable state (records, raw errors, schedule)."""

    def __init__(self, config: SoakConfig, gateway: CompileGateway) -> None:
        self.config = config
        self.gateway = gateway
        self.records: List[Dict[str, Any]] = []
        self.raw_errors: List[BaseException] = []
        self.tasks: List["asyncio.Task"] = []
        self.hot_pool, self.unique_spec = soak_kernels()
        self.base_options = CompileOptions(
            time_limit=config.time_limit,
            node_limit=config.node_limit,
            iter_limit=config.iter_limit,
            validate=False,
        )
        self.dedup = {"submitted": 0, "coalesced": 0, "probes": 0}

    # ------------------------------------------------------- schedule

    def phases(self) -> List[Tuple[str, float, float, float]]:
        """``(name, start_offset, end_offset, rate)`` per phase."""
        c = self.config
        out: List[Tuple[str, float, float, float]] = []
        cursor = 0.0
        for name, seconds, rate in (
            ("unloaded", c.unloaded_seconds, c.unloaded_rate),
            ("sustained", c.sustained_seconds, c.sustained_rate),
            ("burst", c.burst_seconds, c.sustained_rate * c.burst_multiplier),
            ("recovery", c.recovery_seconds, c.unloaded_rate),
        ):
            out.append((name, cursor, cursor + seconds, rate))
            cursor += seconds
        return out

    def arrivals(self) -> List[Tuple[float, str, str, Spec, CompileOptions]]:
        """Precomputed ``(offset, phase, tenant, spec, options)`` list.
        Open loop: nothing here depends on service behavior."""
        c = self.config
        rng = stable_rng(c.seed, "soak-arrivals")
        plan: List[Tuple[float, str, str, Spec, CompileOptions]] = []
        unique_index = 0
        for name, start, end, rate in self.phases():
            if rate <= 0:
                continue
            step = 1.0 / rate
            offset = start + rng.random() * step
            while offset < end:
                if rng.random() < c.hot_fraction:
                    spec = self.hot_pool[rng.randrange(len(self.hot_pool))]
                    epoch = int(offset / c.hot_epoch_seconds)
                    options = dataclasses.replace(
                        self.base_options,
                        seed=stable_seed(c.seed, "soak-hot", epoch) % (1 << 31),
                    )
                    tenant = "interactive" if rng.random() < 0.4 else "batch"
                else:
                    spec = self.unique_spec
                    unique_index += 1
                    options = dataclasses.replace(
                        self.base_options,
                        seed=stable_seed(c.seed, "soak-uniq", unique_index)
                        % (1 << 31),
                    )
                    tenant = "batch"
                plan.append((offset, name, tenant, spec, options))
                offset += step
        return plan

    def probe_times(self) -> List[float]:
        c = self.config
        start = c.unloaded_seconds
        return [
            start + c.sustained_seconds * (k + 1) / (c.dedup_probes + 1)
            for k in range(c.dedup_probes)
        ]

    # -------------------------------------------------------- clients

    async def client(
        self,
        offset: float,
        phase: str,
        tenant: str,
        spec: Spec,
        options: CompileOptions,
        cls: str,
    ) -> None:
        record: Dict[str, Any] = {
            "offset": round(offset, 3),
            "phase": phase,
            "tenant": tenant,
            "cls": cls,
            "kernel": spec.name,
        }
        started = time.monotonic()
        try:
            result = await self.gateway.submit(spec, options, tenant=tenant)
        except OverloadError as exc:
            record["outcome"] = "shed"
            record["reason"] = exc.reason
        except DeadlineExceededError:
            record["outcome"] = "deadline"
        except CompileError as exc:
            record["outcome"] = "error"
            record["error"] = type(exc).__name__
        except Exception as exc:  # noqa: BLE001 - judged by typed-errors
            record["outcome"] = "raw-error"
            record["error"] = type(exc).__name__
            self.raw_errors.append(exc)
        else:
            record["outcome"] = "ok"
            record["cache_hit"] = bool(result.diagnostics.cache_hit)
        record["latency"] = time.monotonic() - started
        self.records.append(record)

    def abandon(
        self,
        offset: float,
        phase: str,
        tenant: str,
        spec: Spec,
        options: CompileOptions,
    ) -> None:
        """Slow-loris client: submit, then walk away without awaiting.
        The shielded single-flight future must keep serving everyone
        else; the abandoned exception (if any) still feeds the
        typed-errors invariant."""
        task = asyncio.create_task(
            self.gateway.submit(spec, options, tenant=tenant)
        )

        def _reap(done: "asyncio.Task") -> None:
            if done.cancelled():
                return
            error = done.exception()
            if error is not None and not isinstance(error, CompileError):
                self.raw_errors.append(error)

        task.add_done_callback(_reap)
        self.tasks.append(task)
        self.records.append(
            {
                "offset": round(offset, 3),
                "phase": phase,
                "tenant": tenant,
                "cls": "slow-loris",
                "kernel": spec.name,
                "outcome": "abandoned",
                "latency": 0.0,
            }
        )

    async def dedup_probe(self, index: int, offset: float) -> None:
        """Fire N identical fresh-key requests concurrently and count
        how many collapsed onto the leader."""
        c = self.config
        options = dataclasses.replace(
            self.base_options,
            seed=stable_seed(c.seed, "soak-probe", index) % (1 << 31),
        )
        tstats = self.gateway.stats.tenants.get("probe")
        before = tstats.coalesced if tstats is not None else 0
        probes = [
            self.client(offset, "sustained", "probe", self.unique_spec,
                        options, "probe")
            for _ in range(c.dedup_probe_size)
        ]
        await asyncio.gather(*probes)
        tstats = self.gateway.stats.tenants.get("probe")
        after = tstats.coalesced if tstats is not None else 0
        self.dedup["probes"] += 1
        self.dedup["submitted"] += c.dedup_probe_size
        self.dedup["coalesced"] += after - before

    # ----------------------------------------------------------- pump

    async def pump(self) -> None:
        """Open-loop arrival generator: walks the precomputed schedule
        on the wall clock, spawning one task per arrival."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        schedule: List[Tuple[float, Tuple[str, ...], Any]] = []
        for offset, phase, tenant, spec, options in self.arrivals():
            schedule.append((offset, ("arrival", phase, tenant), (spec, options)))
        for index, offset in enumerate(self.probe_times()):
            schedule.append((offset, ("probe",), index))
        schedule.sort(key=lambda item: item[0])

        flood_epoch_options = None
        for offset, kind, payload in schedule:
            delay = start + offset - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if kind[0] == "probe":
                self.tasks.append(
                    asyncio.create_task(self.dedup_probe(payload, offset))
                )
                continue
            _, phase, tenant = kind
            spec, options = payload
            if chaos_flag("gateway.flood"):
                # Tenant flood: one arrival tick fans out into a burst
                # from the rate-limited flood tenant; the token bucket
                # must shed most of it with typed RateLimitErrors while
                # the interactive tenant keeps completing (the
                # no-starvation invariant watches exactly this).
                flood_epoch_options = flood_epoch_options or options
                for _ in range(12):
                    self.tasks.append(
                        asyncio.create_task(
                            self.client(offset, phase, "flood", spec,
                                        flood_epoch_options, "flood")
                        )
                    )
            if chaos_flag("gateway.client"):
                self.abandon(offset, phase, tenant, spec, options)
                continue
            cls = "hot" if spec in self.hot_pool else "unique"
            self.tasks.append(
                asyncio.create_task(
                    self.client(offset, phase, tenant, spec, options, cls)
                )
            )


async def run_soak(
    config: Optional[SoakConfig] = None,
    chaos: Optional[FaultPlan] = None,
    scratch_dir: Optional[str] = None,
    gate_latency: bool = True,
) -> Dict[str, Any]:
    """Run one soak and return the JSON-ready report.

    ``chaos`` installs a fault plan for the run (the serve-smoke job
    passes :func:`default_chaos_plan`); latency/dedup gates are then
    skipped automatically -- injected sleeps and floods make them
    meaningless -- leaving the invariant and shed-latency gates.
    ``gate_latency=False`` skips them too (tiny unit-test configs).
    """
    config = config or SoakConfig()
    own_scratch = scratch_dir is None
    scratch = scratch_dir or tempfile.mkdtemp(prefix="repro-soak-")
    session = ObservabilitySession(
        Observability.on(trace=False, recorder=False)
    )
    cache = ArtifactCache(scratch, lru_capacity=config.lru_capacity)
    service = CompileService(
        cache=cache,
        isolate=False,
        policy=RetryPolicy(
            max_attempts=2, backoff_base=0.01, backoff_jitter=0.0
        ),
        seed=config.seed,
    )
    started = time.perf_counter()
    with activate(session), active_plan(chaos):
        gateway = CompileGateway(
            service, config.gateway, tenants=config.tenants()
        )
        soak = _Soak(config, gateway)
        async with gateway:
            await soak.pump()
            if soak.tasks:
                await asyncio.gather(*soak.tasks, return_exceptions=True)
    elapsed = time.perf_counter() - started

    report = _build_report(
        config, soak, gateway, service, cache, session, elapsed,
        chaos=chaos, gate_latency=gate_latency and chaos is None,
    )
    if own_scratch:
        shutil.rmtree(scratch, ignore_errors=True)
    return report


def run_soak_sync(*args: Any, **kwargs: Any) -> Dict[str, Any]:
    """Blocking wrapper around :func:`run_soak` (CLI / tests)."""
    return asyncio.run(run_soak(*args, **kwargs))


# ----------------------------------------------------------------------
# Report assembly
# ----------------------------------------------------------------------


def _build_report(
    config: SoakConfig,
    soak: _Soak,
    gateway: CompileGateway,
    service: CompileService,
    cache: ArtifactCache,
    session: ObservabilitySession,
    elapsed: float,
    chaos: Optional[FaultPlan],
    gate_latency: bool,
) -> Dict[str, Any]:
    records = soak.records
    phase_stats: Dict[str, Any] = {}
    for name, start, end, rate in soak.phases():
        phase_records = [r for r in records if r["phase"] == name]
        ok_ms = [
            r["latency"] * 1e3 for r in phase_records if r["outcome"] == "ok"
        ]
        shed_ms = [
            r["latency"] * 1e3 for r in phase_records if r["outcome"] == "shed"
        ]
        seconds = max(1e-9, end - start)
        phase_stats[name] = {
            "window": [round(start, 3), round(end, 3)],
            "rate": rate,
            "arrivals": len(phase_records),
            "completed": len(ok_ms),
            "shed": len(shed_ms),
            "deadline": sum(
                1 for r in phase_records if r["outcome"] == "deadline"
            ),
            "errors": sum(1 for r in phase_records if r["outcome"] == "error"),
            "abandoned": sum(
                1 for r in phase_records if r["outcome"] == "abandoned"
            ),
            "throughput": round(len(ok_ms) / seconds, 2),
            "latency_ms": _latency_block(ok_ms),
            "shed_latency_ms": _latency_block(shed_ms),
        }

    snapshot = gateway.stats.snapshot()
    violations: List[Violation] = []
    for error in soak.raw_errors:
        violations += check_typed_error("soak", error)
    violations += check_bounded_queue(
        "soak", snapshot, gateway.config.max_queue_depth
    )
    violations += check_no_starvation("soak", snapshot["tenants"])
    violations += check_breaker_log(
        "soak", service.breaker_log, service.policy.strike_threshold
    )
    violations += check_cache_integrity("soak", cache)

    gates: Dict[str, Any] = {
        "zero-violations": {
            "violations": len(violations),
            "ok": not violations,
        }
    }
    shed_ms_all = [
        r["latency"] * 1e3 for r in records if r["outcome"] == "shed"
    ]
    gates["shed-p99"] = {
        "p99_ms": round(_percentile(shed_ms_all, 0.99), 3),
        "ceiling_ms": config.shed_p99_ceiling * 1e3,
        "sheds": len(shed_ms_all),
        "ok": _percentile(shed_ms_all, 0.99) <= config.shed_p99_ceiling * 1e3,
    }
    if gate_latency:
        unloaded_p99 = phase_stats["unloaded"]["latency_ms"]["p99"]
        burst_start = phase_stats["burst"]["window"][0]
        steady_ms = [
            r["latency"] * 1e3
            for r in records
            if r["phase"] == "burst"
            and r["outcome"] == "ok"
            and r["offset"] >= burst_start + _BURST_WARMUP
        ]
        limit_ms = config.admitted_p99_factor * unloaded_p99
        gates["admitted-p99"] = {
            "unloaded_p99_ms": unloaded_p99,
            "burst_steady_p99_ms": round(_percentile(steady_ms, 0.99), 3),
            "warmup_excluded_s": _BURST_WARMUP,
            "limit_ms": round(limit_ms, 3),
            "ok": bool(steady_ms)
            and _percentile(steady_ms, 0.99) <= limit_ms,
        }
        submitted = soak.dedup["submitted"]
        ideal = max(1, submitted - soak.dedup["probes"])
        ratio = soak.dedup["coalesced"] / ideal
        gates["dedup-collapse"] = {
            "probes": soak.dedup["probes"],
            "submitted": submitted,
            "coalesced": soak.dedup["coalesced"],
            "ratio": round(ratio, 4),
            "floor": config.dedup_floor,
            "ok": ratio >= config.dedup_floor,
        }
        gates["sheds-under-burst"] = {
            "burst_sheds": phase_stats["burst"]["shed"],
            "ok": phase_stats["burst"]["shed"] > 0,
        }

    lru = cache.lru
    report: Dict[str, Any] = {
        "schema": SOAK_SCHEMA,
        "seed": config.seed,
        "elapsed": round(elapsed, 3),
        "chaos": [dict(f) for f in chaos.fired] if chaos is not None else None,
        "config": {
            "rates": {
                "unloaded": config.unloaded_rate,
                "sustained": config.sustained_rate,
                "burst": config.sustained_rate * config.burst_multiplier,
            },
            "hot_fraction": config.hot_fraction,
            "gateway": dataclasses.asdict(config.gateway),
        },
        "phases": phase_stats,
        "dedup": dict(soak.dedup),
        "gateway": snapshot,
        "service": dataclasses.asdict(service.stats),
        "cache": {
            "stats": cache.stats.summary(),
            "lru": dataclasses.asdict(lru.stats) if lru is not None else None,
        },
        "metrics": session.metrics.to_json() if session.metrics else {},
        "violations": [v.to_dict() for v in violations],
        "gates": gates,
        "ok": all(gate["ok"] for gate in gates.values()),
    }
    return report


def render_soak_report(report: Dict[str, Any]) -> str:
    lines = [
        f"soak: seed {report['seed']}, {report['elapsed']:.1f}s wall clock"
        + (", chaos plan active" if report.get("chaos") is not None else "")
    ]
    for name, phase in report["phases"].items():
        lat = phase["latency_ms"]
        lines.append(
            f"  {name:<10} {phase['rate']:>5.1f}/s arrivals={phase['arrivals']:<4} "
            f"ok={phase['completed']:<4} shed={phase['shed']:<4} "
            f"p50={lat['p50']:.0f}ms p99={lat['p99']:.0f}ms "
            f"tput={phase['throughput']:.1f}/s"
        )
    gw = report["gateway"]
    lines.append(
        f"  gateway: {gw['admitted']} admitted, {gw['shed_total']} shed "
        f"{gw['sheds']}, {gw['dedup_coalesced']} coalesced, "
        f"depth max {gw['queue_depth_max']}, brownout level "
        f"{gw['brownout_level']} ({gw['brownout_transitions']} transitions)"
    )
    if report["cache"]["lru"] is not None:
        lru = report["cache"]["lru"]
        lines.append(
            f"  lru: {lru['hits']} hits, {lru['misses']} misses, "
            f"{lru['evictions']} evictions"
        )
    for name, gate in report["gates"].items():
        verdict = "ok" if gate["ok"] else "FAIL"
        detail = ", ".join(
            f"{k}={v}" for k, v in gate.items() if k != "ok"
        )
        lines.append(f"  gate {name:<18} {verdict:<5} ({detail})")
    lines.append(
        "RESULT: " + ("all gates passed" if report["ok"] else "GATES FAILED")
    )
    return "\n".join(lines)
