"""The served workload: an open loop through ``CompileGateway`` ->
``CompileService(isolate=True)`` -> ``ArtifactCache``.

Requests arrive evenly spaced at a fixed rate whatever the service
does, and each is timed from when it was due, so a stall also delays
the requests behind it.  The mix reuses ``soak_kernels()``: 70% hot
requests on three tiny kernels whose options seed rotates every epoch
(cache reads, LRU hits and single-flight), 30% unique 5x5 matmuls with
a fresh seed each (always a forked compile and a cache write)."""

from __future__ import annotations

import asyncio
import dataclasses
import shutil
import statistics
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from repro.compiler import CompileOptions
from repro.errors import CompileError, DeadlineExceededError, OverloadError
from repro.kernels.base import Kernel
from repro.seeding import stable_rng, stable_seed
from repro.service import ArtifactCache, CompileService
from repro.service.gateway import CompileGateway, GatewayConfig, TenantPolicy
from repro.service.soak import soak_kernels

from calibrate import Calibrator
from common import Outcome, Setup, check_programs, percentile
from spans import Span, Tracer

#: Arrival rate.  The spacing (200 ms) stays above one unique compile
#: (~110 ms on a 2.1 GHz Xeon core), so requests queue only when the
#: service slows down; that is about 20% of the service's capacity
#: (mean service time ~40 ms per request of this mix).  At higher rates
#: the median request lands in the queueing delay behind unique
#: compiles, and it moves by more than 50% from one seed to the next.
RATE = 5.0
UNIQUE_PER_10 = 3
HOT_EPOCH_S = 10.0
#: A failed or refused request counts as taking the whole deadline.
DEADLINE_S = 5.0
#: The schedule runs in windows of this length; between windows, with
#: nothing in flight, the machine-speed probe runs, and each request's
#: latency is scaled by the probes around its window.
WINDOW_S = 2.0
SPIN_S = 0.002
#: One dispatcher; a CoDel target well above one unique compile so the
#: gateway sheds only under real overload, never at this load.
GATEWAY = GatewayConfig(
    concurrency=1,
    codel_target=0.2,
    codel_interval=0.5,
    default_deadline=DEADLINE_S,
)
TENANT = TenantPolicy("users", priority=1)
OPTIONS = CompileOptions(time_limit=2.0, node_limit=100_000, iter_limit=10, validate=True)


# Python references for the soak kernels, written out independently of
# ``soak_kernels()``; set-up checks that they lift to the same specs.
def _sdot(a, b, out):
    out[0] = a[0] * b[0] + a[1] * b[1]


def _saxpy(a, b, out):
    for i in range(2):
        out[i] = a[i] * b[i] + a[i]


def _smix(a, b, out):
    for i in range(2):
        out[i] = (a[i] + b[i]) * b[i]


def _mm5(a, b, out):
    for i in range(5):
        for j in range(5):
            acc = 0
            for k in range(5):
                acc = acc + a[i * 5 + k] * b[k * 5 + j]
            out[i * 5 + j] = acc


_REFERENCES = {
    "soak-dot": (_sdot, "straight-line", {}),
    "soak-axpy": (_saxpy, "straight-line", {}),
    "soak-mix": (_smix, "straight-line", {}),
    "soak-mm5": (_mm5, "MatMul", {"m": 5, "k": 5, "n": 5}),
}


def reference_kernels(specs) -> Dict[str, Kernel]:
    kernels = {}
    for spec in specs:
        fn, category, params = _REFERENCES[spec.name]
        kernel = Kernel(
            name=spec.name,
            category=category,
            size_label="",
            reference=fn,
            inputs=tuple((d.name, d.shape) for d in spec.inputs),
            outputs=tuple((d.name, d.shape) for d in spec.outputs),
            params=params,
        )
        if kernel.spec().term != spec.term:
            raise RuntimeError(f"reference for {spec.name} does not lift to the served spec")
        kernels[spec.name] = kernel
    return kernels


def setup(seed: int, tracer: Optional[Tracer] = None) -> Setup:
    """Lift the soak kernels and run one forked warm-up compile."""
    start = time.perf_counter()
    if tracer is not None:
        with tracer.span("frontend.lift", request="lift:soak"):
            hot, unique = soak_kernels()
    else:
        hot, unique = soak_kernels()
    lift_s = time.perf_counter() - start
    warm = dataclasses.replace(OPTIONS, seed=stable_seed(seed, "perfbench-warmup") % (1 << 31))
    CompileService(cache=None, isolate=True).compile_spec(hot[0], warm)
    return Setup(kernels=[], seconds=time.perf_counter() - start, lift_s=lift_s,
                 extra={"hot": hot, "unique": unique})


def schedule(seed: int, seconds: float, hot, unique) -> List[Tuple[float, object, CompileOptions]]:
    """Evenly spaced arrivals; every block of 10 holds exactly 3 unique
    requests at seeded positions, so each run has the same share of
    misses and only their order depends on the seed."""
    rng = stable_rng(seed, "perfbench-served")
    plan = []
    uniques: set = set()
    for index in range(max(1, int(seconds * RATE))):
        offset = index / RATE
        if index % 10 == 0:
            uniques = {index + k for k in rng.sample(range(10), UNIQUE_PER_10)}
        if index not in uniques:
            spec = hot[rng.randrange(len(hot))]
            key_seed = stable_seed(seed, "hot", int(offset / HOT_EPOCH_S))
        else:
            spec = unique
            key_seed = stable_seed(seed, "unique", index)
        plan.append((offset, spec, dataclasses.replace(OPTIONS, seed=key_seed % (1 << 31))))
    return plan


def _miss_layers(result) -> Dict[str, float]:
    """Worker-side layer figures, read from the returned result."""
    report = result.report
    stats = report.rule_stats.values()
    diag = result.diagnostics
    search = sum(s.search_time for s in stats)
    return {
        "egraph.saturate_s": report.total_time,
        "egraph.search_s": search,
        "egraph.apply_rebuild_s": report.total_time - search,
        "egraph.extract_s": diag.stage_time("extraction"),
        "backend.lower_s": diag.stage_time("lowering"),
        "validation.validate_s": diag.stage_time("validation"),
        "egraph.classes_visited": sum(s.classes_visited for s in stats),
        "egraph.matches": sum(s.matches for s in stats),
        "egraph.unions": sum(it.unions for it in report.iterations),
        "egraph.iterations": len(report.iterations),
        "egraph.peak_nodes": max((it.nodes for it in report.iterations), default=0),
    }


async def _segment(plan, cache_dir: str, seed: int, tracer: Optional[Tracer]) -> Dict:
    """Drive one open-loop schedule through a fresh gateway, service
    and cache; returns the raw request records and layer statistics."""
    cache = ArtifactCache(cache_dir, lru_capacity=256)
    service = CompileService(cache=cache, isolate=True, seed=seed)
    if tracer is not None:
        _trace_service(tracer, service, cache)
    records: List[Dict] = []
    programs: Dict = {}

    async def client(rid: str, due: float, spec, options) -> None:
        record = {"id": rid, "kernel": spec.name, "seed": options.seed, "due": due,
                  "submitted": time.perf_counter()}
        try:
            result = await gateway.submit(spec, options, tenant=TENANT.name)
        except (OverloadError, DeadlineExceededError) as exc:
            record["outcome"] = type(exc).__name__
        except CompileError as exc:
            record["outcome"] = f"error: {type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001 - an untyped error is a counted failure
            record["outcome"] = f"untyped error: {type(exc).__name__}: {exc}"
        else:
            fingerprint = result.program.fingerprint()
            programs.setdefault((spec.name, fingerprint), result.program)
            record.update(outcome="ok", fingerprint=fingerprint,
                          validated=result.validated, degraded=result.degraded)
        record["done"] = time.perf_counter()
        records.append(record)

    gateway = CompileGateway(service, GATEWAY, tenants={TENANT.name: TENANT})
    calibrator = Calibrator()
    busy = 0.0
    try:
        async with gateway:
            windows: Dict[int, list] = {}
            for index, (offset, spec, options) in enumerate(plan):
                windows.setdefault(int(offset // WINDOW_S), []).append((index, offset, spec, options))
            for window, arrivals in sorted(windows.items()):
                # Nothing is in flight here, so the probe delays no request.
                calibrator.measure()
                window_start = time.perf_counter() - window * WINDOW_S
                tasks = []
                for index, offset, spec, options in arrivals:
                    due = window_start + offset
                    # The loop's timer wakes up to ~1 ms late; sleep short
                    # of the due time and spin the rest.
                    delay = due - time.perf_counter() - SPIN_S
                    if delay > 0:
                        await asyncio.sleep(delay)
                    while time.perf_counter() < due:
                        pass
                    tasks.append(asyncio.create_task(client(f"r{index}", due, spec, options)))
                await asyncio.gather(*tasks)
                busy += time.perf_counter() - window_start - window * WINDOW_S
            calibrator.measure()
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(cache_dir, ignore_errors=True)
    for record in records:
        record["scale"] = calibrator.scale(record["due"], record["done"])
    return {
        "wall_s": busy,
        "probes_s": [round(p, 4) for _, p in calibrator.samples],
        "records": records,
        "programs": programs,
        "gateway": gateway.stats.snapshot(),
        "service": dataclasses.asdict(service.stats),
        "cache": dataclasses.asdict(cache.stats),
        "lru": dataclasses.asdict(cache.lru.stats),
    }


def _trace_service(tracer: Tracer, service: CompileService, cache: ArtifactCache) -> None:
    """Wrap this service's and cache's public entry points (instance
    attributes only, so nothing else is affected)."""
    original = service.compile_spec

    def traced_compile(spec, options=None, inject=None):
        with tracer.span("service.compile", kernel=spec.name, seed=options.seed) as span:
            result = original(spec, options, inject)
            span.attrs["cache_hit"] = bool(result.diagnostics.cache_hit)
            if not result.diagnostics.cache_hit:
                span.attrs["compile_time"] = result.compile_time
                span.attrs["layers"] = _miss_layers(result)
            return result

    tracer.patch(service, "compile_spec", traced_compile)
    tracer.wrap(cache, "get", "cache.get")
    tracer.wrap(cache, "put", "cache.put")


def run(seed: int, seconds: float, trace: bool, tracer: Tracer, setup_result: Setup,
        work_dir: str) -> Outcome:
    hot, unique = setup_result.extra["hot"], setup_result.extra["unique"]
    cache_dir = tempfile.mkdtemp(prefix="served-cache-", dir=work_dir)
    if trace:
        # Half the time untraced, half traced: the difference in median
        # latency is the tracing overhead.
        plan = schedule(seed, seconds / 2, hot, unique)
        plain = asyncio.run(_segment(plan, cache_dir, seed, None))
        traced = asyncio.run(_segment(plan, cache_dir, seed, tracer))
        segments = [plain, traced]
    else:
        plain = asyncio.run(_segment(schedule(seed, seconds, hot, unique), cache_dir, seed, None))
        traced = None
        segments = [plain]

    kernels = reference_kernels([*hot, unique])
    programs: Dict = {}
    for segment in segments:
        programs.update(segment["programs"])
    checks = check_programs(programs, kernels, seed)

    outcome = Outcome()
    for segment in segments:
        for record in segment["records"]:
            outcome.attempted += 1
            reason = None
            if record["outcome"] != "ok":
                reason = record["outcome"]
            elif not record["validated"]:
                reason = "unvalidated"
            elif record["degraded"]:
                reason = "degraded"
            elif not checks[(record["kernel"], record["fingerprint"])].ok:
                reason = "wrong output"
            record["failed"] = reason is not None
            if reason is not None:
                outcome.fail(f"{record['id']} {record['kernel']}: {reason}",
                             untrusted=record["outcome"] == "ok")

    latencies = {r["id"]: _latency_ms(r) for r in plain["records"]}
    outcome.samples_ms = list(latencies.values())
    names = [spec.name for spec in (*hot, unique)]
    outcome.kernels = []
    for name in names:
        mine = [r for r in plain["records"] if r["kernel"] == name]
        fingerprints = sorted({f for (k, f) in programs if k == name})
        first = next((r["fingerprint"] for r in mine if r["outcome"] == "ok"), None)
        check = checks.get((name, first))
        outcome.kernels.append({
            "kernel": name,
            "requests": len(mine),
            "median_ms": statistics.median(latencies[r["id"]] for r in mine) if mine else float("nan"),
            "fingerprint": fingerprints[0] if len(fingerprints) == 1 else fingerprints,
            "cycles": check.cycles if check else None,
            "naive_cycles": check.naive_cycles if check else None,
            "correct": all(checks[(name, f)].ok for f in fingerprints),
        })
    medians = [row["median_ms"] for row in outcome.kernels if row["requests"]]
    outcome.end_to_end = {
        "suite_s": sum(medians) / 1e3,
        "compile_ms_geomean": statistics.geometric_mean(medians),
    }
    lag_ms = [(r["submitted"] - r["due"]) * 1e3 for r in plain["records"]]
    outcome.notes = {
        "arrival": f"open loop, {RATE:g} req/s evenly spaced, {len(plain['records'])} requests",
        "generator_lag_ms": {"p50": percentile(lag_ms, 0.5), "p90": percentile(lag_ms, 0.9),
                             "max": max(lag_ms)},
        "gateway": plain["gateway"],
        "service": plain["service"],
        "cache": plain["cache"],
        "lru": plain["lru"],
        "speed_probes_s": plain["probes_s"],
    }
    if traced is not None:
        outcome.per_layer = _layer_metrics(traced, tracer, setup_result, plain)
    return outcome


def _latency_ms(record: Dict) -> float:
    if record.get("failed"):
        return DEADLINE_S * 1e3
    return (record["done"] - record["due"]) * record["scale"] * 1e3


def _layer_metrics(traced: Dict, tracer: Tracer, setup_result: Setup, plain: Dict) -> Dict[str, float]:
    spans = tracer.spans
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    services: Dict[Tuple[str, int], List[Span]] = {}
    for s in spans:
        if s.name == "service.compile":
            services.setdefault((s.attrs["kernel"], s.attrs["seed"]), []).append(s)

    parts = ("lag", "gateway", "cache_get", "supervisor", "worker", "cache_put", "coalesced")
    split_rows = []
    queue_wait = []
    for record in traced["records"]:
        latency = _latency_ms(record)
        row = dict.fromkeys(parts, 0.0)
        row["lag"] = (record["submitted"] - record["due"]) * 1e3
        own_span = next(
            (s for s in services.get((record["kernel"], record["seed"]), [])
             if s.start >= record["submitted"] and s.end <= record["done"]),
            None,
        )
        root = tracer.add("request", record["due"], record["done"], request=record["id"],
                          kernel=record["kernel"], outcome=record["outcome"])
        submit = tracer.add("gateway.submit", record["submitted"], record["done"],
                            request=record["id"], parent=root.id)
        if own_span is None:
            row["coalesced"] = (record["done"] - record["submitted"]) * 1e3
        else:
            # The executor thread cannot see the request; join it here.
            own_span.parent = submit.id
            kids = children.get(own_span.id, [])
            for span in [own_span, *kids]:
                span.request = record["id"]
            get = sum(k.duration for k in kids if k.name == "cache.get") * 1e3
            put = sum(k.duration for k in kids if k.name == "cache.put") * 1e3
            worker = own_span.attrs.get("compile_time", 0.0) * 1e3
            wait = (own_span.start - record["submitted"]) * 1e3
            queue_wait.append(wait)
            row.update(
                gateway=wait + (record["done"] - own_span.end) * 1e3,
                cache_get=get,
                cache_put=put,
                worker=worker,
                supervisor=own_span.duration * 1e3 - get - put - worker,
            )
        if not record.get("failed"):
            split_rows.append((latency, row))

    misses = [s for s in spans if s.name == "service.compile" and "compile_time" in s.attrs]
    gets = [s.duration * 1e3 for s in spans if s.name == "cache.get"]
    puts = [s.duration * 1e3 for s in spans if s.name == "cache.put"]
    gw, cache, lru = traced["gateway"], traced["cache"], traced["lru"]
    metrics = {"frontend.lift_s": setup_result.lift_s}
    layer_keys = sorted({k for s in misses for k in s.attrs["layers"]})
    for key in layer_keys:
        metrics[key] = statistics.mean(s.attrs["layers"][key] for s in misses)
    searched = metrics.get("egraph.matches", 0.0)
    metrics["egraph.union_yield"] = metrics.get("egraph.unions", 0.0) / searched if searched else 0.0
    metrics.update({
        "gateway.queue_wait_ms": statistics.median(queue_wait) if queue_wait else 0.0,
        "gateway.coalesced_frac": gw["dedup_coalesced"] / gw["submitted"] if gw["submitted"] else 0.0,
        "gateway.sheds": gw["shed_total"],
        "supervisor.overhead_ms": statistics.median(
            s.duration * 1e3 - s.attrs["compile_time"] * 1e3 for s in misses) if misses else 0.0,
        "worker.compile_ms": statistics.median(
            s.attrs["compile_time"] * 1e3 for s in misses) if misses else 0.0,
        "supervisor.retries": traced["service"]["retries"],
        "supervisor.busy_frac": sum(
            s.duration for s in spans if s.name == "service.compile") / traced["wall_s"],
        "cache.get_ms": statistics.median(gets) if gets else 0.0,
        "cache.put_ms": statistics.median(puts) if puts else 0.0,
        "cache.hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "cache.lru_hit_ratio": lru["hits"] / max(1, lru["hits"] + lru["misses"]),
        "served.generator_lag_p90_ms": percentile(
            [(r["submitted"] - r["due"]) * 1e3 for r in traced["records"]], 0.9),
    })
    plain_ms = [_latency_ms(r) for r in plain["records"]]
    traced_ms = [_latency_ms(r) for r in traced["records"]]
    metrics["trace.overhead_s"] = (statistics.median(traced_ms) - statistics.median(plain_ms)) / 1e3

    if split_rows:
        ordered = [lat for lat, _ in split_rows]
        lo, hi, tail = (percentile(ordered, q) for q in (0.45, 0.55, 0.9))
        for label, band in (("p50", [r for lat, r in split_rows if lo <= lat <= hi]),
                            ("p90", [r for lat, r in split_rows if lat >= tail])):
            for part in parts:
                metrics[f"split.{label}.{part}_ms"] = (
                    statistics.mean(r[part] for r in band) if band else 0.0)
    return metrics
