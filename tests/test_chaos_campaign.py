"""Chaos campaign and invariant-catalog tests.

The headline test runs the pinned-seed smoke campaign -- >= 6 distinct
fault actions crossed with the three built-in kernels -- and requires
zero invariant violations, exactly what the ``chaos-smoke`` CI job
gates on.  The rest unit-tests each invariant checker against both a
healthy and a violating input, so a red campaign can be trusted to
mean what it says.
"""

import json
from types import SimpleNamespace

import pytest

from repro.chaos import FaultPlan, FaultSpec, active_plan, clear_plan
from repro.chaos.campaign import (
    CampaignCell,
    default_kernels,
    default_matrix,
    run_campaign,
    smoke_matrix,
)
from repro.chaos.invariants import (
    INVARIANTS,
    check_breaker_log,
    check_cache_integrity,
    check_ladder,
    check_typed_error,
    check_wallclock,
)
from repro.errors import SaturationError
from repro.service import ArtifactCache


@pytest.fixture(autouse=True)
def _no_ambient_plan():
    clear_plan()
    yield
    clear_plan()


# ------------------------------------------------------------ checkers


def test_typed_error_checker():
    assert check_typed_error("c", None) == []
    assert check_typed_error("c", SaturationError("boom")) == []
    bad = check_typed_error("c", ValueError("boom"))
    assert len(bad) == 1 and bad[0].invariant == "typed-errors"


def test_wallclock_checker():
    assert check_wallclock("c", 1.0, 60.0) == []
    bad = check_wallclock("c", 61.0, 60.0)
    assert len(bad) == 1 and bad[0].invariant == "bounded-wallclock"


def test_ladder_checker():
    ok = SimpleNamespace(
        program=[1], c_code="int x;", diagnostics=SimpleNamespace()
    )
    assert check_ladder("c", ok, None) == []
    # neither result nor error
    assert [v.invariant for v in check_ladder("c", None, None)] == [
        "ladder-terminates"
    ]
    # both at once
    assert check_ladder("c", ok, SaturationError("x"))
    # unusable "result"
    hollow = SimpleNamespace(program=[], c_code="", diagnostics=None)
    bad = check_ladder("c", hollow, None)
    assert len(bad) == 1 and "not usable" in bad[0].detail


def test_breaker_log_checker_accepts_legal_protocol():
    log = [
        {"kernel": "k", "event": "strike", "strikes": 1},
        {"kernel": "k", "event": "strike", "strikes": 2},
        {"kernel": "k", "event": "open", "strikes": 2},
        {"kernel": "k", "event": "reject", "strikes": 2},
        {"kernel": "k", "event": "reset", "strikes": 0},
        {"kernel": "k", "event": "strike", "strikes": 1},
        {"kernel": "k", "event": "close", "strikes": 0},
    ]
    assert check_breaker_log("c", log, threshold=2) == []


@pytest.mark.parametrize(
    "log, fragment",
    [
        ([{"kernel": "k", "event": "strike", "strikes": 2}], "jumped"),
        ([{"kernel": "k", "event": "open", "strikes": 1}], "below the threshold"),
        ([{"kernel": "k", "event": "reject", "strikes": 0}], "breaker closed"),
        ([{"kernel": "k", "event": "meltdown", "strikes": 0}], "unknown"),
        (
            [
                {"kernel": "k", "event": "strike", "strikes": 1},
                {"kernel": "k", "event": "strike", "strikes": 2},
                {"kernel": "k", "event": "open", "strikes": 2},
                {"kernel": "k", "event": "open", "strikes": 2},
            ],
            "twice",
        ),
    ],
)
def test_breaker_log_checker_flags_illegal_transitions(log, fragment):
    bad = check_breaker_log("c", log, threshold=2)
    assert bad and all(v.invariant == "breaker-legality" for v in bad)
    assert any(fragment in v.detail for v in bad)


def test_cache_integrity_checker(tmp_path):
    assert check_cache_integrity("c", None) == []
    cache = ArtifactCache(str(tmp_path))
    assert check_cache_integrity("c", cache) == []
    # Plant a well-named but garbage entry: fsck must flag it corrupt.
    bad = tmp_path / ("0" * 64 + ".rcache")
    bad.write_bytes(b"not a cache entry at all")
    violations = check_cache_integrity("c", cache)
    assert len(violations) == 1
    assert violations[0].invariant == "cache-integrity"


def test_invariant_catalog_is_complete():
    assert set(INVARIANTS) == {
        "typed-errors",
        "cache-integrity",
        "breaker-legality",
        "bounded-wallclock",
        "ladder-terminates",
        "bounded-queue",
        "no-starvation",
        "phase-resume-identical",
    }


# ------------------------------------------------------------ campaign


def test_smoke_campaign_pinned_seed_zero_violations():
    """The acceptance gate: >= 6 fault actions x >= 3 kernels under a
    pinned seed, every cell green, every scheduled fault observed."""
    report = run_campaign(seed=0, matrix=smoke_matrix())
    assert report.ok, "\n".join(str(v) for v in report.violations)
    assert len(report.fault_actions) >= 6
    assert len(report.kernels) >= 3
    assert all(cell.fired for cell in report.cells), (
        "every cell's fault must actually fire: "
        + ", ".join(c.cell for c in report.cells if not c.fired)
    )
    # The report round-trips through JSON (the CI artifact format).
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["ok"] is True
    assert len(payload["cells"]) == len(report.cells)


def test_campaign_is_deterministic_for_a_seed():
    cell = [
        CampaignCell(
            "cache.read",
            "corrupt",
            (FaultSpec("cache.read", "corrupt"),),
            prime_cache=True,
        )
    ]
    kernels = default_kernels()[:1]
    first = run_campaign(seed=9, kernels=kernels, matrix=cell)
    second = run_campaign(seed=9, kernels=kernels, matrix=cell)
    assert [c.fired for c in first.cells] == [c.fired for c in second.cells]
    assert first.ok and second.ok


def test_default_matrix_covers_every_seam_family():
    matrix = default_matrix()
    sites = {c.site for c in matrix}
    assert {
        "cache.read",
        "cache.write",
        "worker.spawn",
        "worker.result",
        "worker.start",
        "runner.iteration",
        "runner.memory",
        "checkpoint.write",
        "checkpoint.read",
        "extract.start",
        "lower.start",
        "validate.lane",
    } <= sites
    actions = {c.action for c in matrix}
    assert len(actions) >= 6
    # Process-killing faults may only be scheduled on isolated cells,
    # and campaign workers run with no address-space limit for oom.
    for cell in matrix:
        if any(s.action == "sigkill" for s in cell.specs):
            assert cell.isolate, f"{cell.name} SIGKILLs without isolation"
        assert not any(s.action == "oom" for s in cell.specs), cell.name
