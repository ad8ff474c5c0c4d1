"""The ``repro serve --bench`` soak harness, at unit-test scale.

Full-size soaks (the serve-smoke CI job, which gates a fresh chaos
soak on every push) take ~25s; these runs shrink every phase to keep
tier-1 fast, skip the latency gates (meaningless at this scale), and
check the machinery: open-loop schedule determinism, report shape,
invariant wiring, dedup probes, and the chaos seams.
"""

import dataclasses

from repro.service import (
    GatewayConfig,
    SoakConfig,
    render_soak_report,
    run_soak_sync,
)
from repro.service.soak import SOAK_SCHEMA, soak_kernels
from repro.chaos.inject import FaultPlan, FaultSpec

MINI = SoakConfig(
    seed=0,
    unloaded_seconds=0.6,
    sustained_seconds=1.2,
    burst_seconds=0.8,
    recovery_seconds=0.4,
    unloaded_rate=2.0,
    sustained_rate=6.0,
    hot_fraction=0.85,
    hot_epoch_seconds=0.5,
    dedup_probes=1,
    dedup_probe_size=6,
    lru_capacity=32,
    gateway=GatewayConfig(
        max_queue_depth=8,
        concurrency=1,
        codel_target=0.05,
        codel_interval=0.2,
        default_deadline=2.0,
    ),
)


def test_mini_soak_report_shape_and_invariants(tmp_path):
    report = run_soak_sync(MINI, scratch_dir=str(tmp_path), gate_latency=False)
    assert report["schema"] == SOAK_SCHEMA
    assert set(report["phases"]) == {
        "unloaded", "sustained", "burst", "recovery",
    }
    for phase in report["phases"].values():
        assert phase["arrivals"] >= 0
        assert "latency_ms" in phase and "shed_latency_ms" in phase
    # Invariants must hold even at toy scale: typed errors only,
    # bounded queue, no starvation, legal breaker log, clean cache.
    assert report["violations"] == []
    assert report["gates"]["zero-violations"]["ok"]
    assert report["ok"], render_soak_report(report)


def test_mini_soak_dedup_probe_fully_collapses(tmp_path):
    report = run_soak_sync(MINI, scratch_dir=str(tmp_path), gate_latency=False)
    dedup = report["dedup"]
    assert dedup["probes"] == 1
    assert dedup["submitted"] == 6
    # 6 identical fresh-key concurrent submits: 1 leader + 5 coalesced.
    assert dedup["coalesced"] == 5


def test_soak_schedule_is_deterministic(tmp_path):
    from repro.service.soak import _Soak
    from repro.service.gateway import CompileGateway
    from repro.service import CompileService

    service = CompileService(cache=None, isolate=False)
    plan_a = _Soak(MINI, CompileGateway(service)).arrivals()
    plan_b = _Soak(MINI, CompileGateway(service)).arrivals()
    assert [(o, p, t, s.name, opt.seed) for o, p, t, s, opt in plan_a] == [
        (o, p, t, s.name, opt.seed) for o, p, t, s, opt in plan_b
    ]
    other = _Soak(dataclasses.replace(MINI, seed=7), CompileGateway(service))
    assert plan_a != other.arrivals()


def test_soak_kernels_shapes():
    hot, unique = soak_kernels()
    assert len(hot) == 3
    assert unique.name == "soak-mm5"


def test_mini_soak_with_chaos_plan(tmp_path):
    """Chaos seams fire, latency gates auto-skip, invariants still hold."""
    plan = FaultPlan(
        [
            FaultSpec("gateway.enqueue", "sleep", nth=4, seconds=0.05),
            FaultSpec("gateway.client", "flag", probability=0.4, max_fires=3),
            FaultSpec("gateway.flood", "flag", probability=0.2, max_fires=1),
        ],
        seed=1,
    )
    report = run_soak_sync(MINI, chaos=plan, scratch_dir=str(tmp_path))
    assert report["chaos"] is not None and len(report["chaos"]) > 0
    assert "admitted-p99" not in report["gates"]  # auto-skipped
    assert report["violations"] == []
    assert report["ok"], render_soak_report(report)


def test_render_soak_report_is_printable(tmp_path):
    report = run_soak_sync(MINI, scratch_dir=str(tmp_path), gate_latency=False)
    text = render_soak_report(report)
    assert text.startswith("soak:")
    assert "RESULT:" in text
    assert "gate" in text
