"""Chaos campaign runner: fault-matrix x kernel grid, invariants after
every cell (DESIGN.md §11; ``repro chaos`` drives this).

A *cell* is one fault schedule (usually a single :class:`FaultSpec`,
sometimes a compound like "SIGKILL attempt 0 + corrupt the checkpoint
the retry reads") applied to one kernel's compile through a fresh
:class:`~repro.service.CompileService`.  After the cell finishes --
result, typed error, or anything else -- the invariant catalog
(:mod:`repro.chaos.invariants`) is evaluated against the cell's cache
directory, breaker log, wall-clock, and outcome.  All randomness is
pinned: the campaign seed derives every plan seed and compile seed via
:func:`repro.seeding.stable_seed`, so a red cell replays exactly.

This module imports the service stack and must be imported as
``repro.chaos.campaign`` (the package ``__init__`` stays a leaf; see
its docstring).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..compiler import CompileOptions
from ..frontend.lift import Spec, lift
from ..observability import Observability
from ..seeding import stable_seed
from ..service import ArtifactCache, CompileService, RetryPolicy, WorkerLimits
from .inject import FaultPlan, FaultSpec, active_plan
from .invariants import (
    Violation,
    check_breaker_log,
    check_cache_integrity,
    check_ladder,
    check_phase_resume_identical,
    check_typed_error,
    check_wallclock,
)

__all__ = [
    "CampaignCell",
    "CellOutcome",
    "CampaignReport",
    "default_kernels",
    "default_matrix",
    "smoke_matrix",
    "run_campaign",
]


@dataclass
class CampaignCell:
    """One row of the fault matrix (crossed with every kernel)."""

    site: str
    action: str
    specs: Tuple[FaultSpec, ...]
    #: Run this cell's compiles in sandboxed worker processes.  Required
    #: for process-killing faults at worker seams; parent-seam and
    #: degradation-ladder faults run in-process for speed.
    isolate: bool = False
    #: Compile (and cache) the kernel once *before* installing the
    #: plan, so read-path faults have a real cache hit to corrupt.
    prime_cache: bool = False
    #: Per-cell CompileOptions overrides.
    options: Dict[str, Any] = field(default_factory=dict)
    #: Compile the kernel once in-process *without* the fault plan and
    #: require the faulted run's program to fingerprint identically
    #: (the ``phase-resume-identical`` invariant).
    verify_identical: bool = False

    @property
    def name(self) -> str:
        return f"{self.site}:{self.action}"


@dataclass
class CellOutcome:
    """What one (cell, kernel) run did and whether invariants held."""

    cell: str
    kernel: str
    site: str
    action: str
    ok: bool = False
    degraded: bool = False
    error_type: Optional[str] = None
    attempts: int = 0
    resumed_from: Optional[int] = None
    stop_reason: Optional[str] = None
    elapsed: float = 0.0
    #: Faults that actually fired (from ``FaultPlan.fired``).  A cell
    #: whose fault never fired still ran its invariants, but reports it
    #: so coverage gaps are visible instead of silently green.
    fired: List[Dict[str, Any]] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cell": self.cell,
            "kernel": self.kernel,
            "site": self.site,
            "action": self.action,
            "ok": self.ok,
            "degraded": self.degraded,
            "error_type": self.error_type,
            "attempts": self.attempts,
            "resumed_from": self.resumed_from,
            "stop_reason": self.stop_reason,
            "elapsed": round(self.elapsed, 3),
            "fired": self.fired,
            "violations": [v.to_dict() for v in self.violations],
        }


@dataclass
class CampaignReport:
    """Full campaign outcome (serialized to the CI artifact JSON)."""

    seed: int
    cells: List[CellOutcome] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def violations(self) -> List[Violation]:
        return [v for cell in self.cells for v in cell.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def fault_actions(self) -> List[str]:
        return sorted({c.action for c in self.cells})

    @property
    def kernels(self) -> List[str]:
        return sorted({c.kernel for c in self.cells})

    @property
    def fired_actions(self) -> List[str]:
        """Actions that actually fired at least once."""
        return sorted(
            {f["action"] for c in self.cells for f in c.fired}
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "elapsed": round(self.elapsed, 3),
            "fault_actions": self.fault_actions,
            "fired_actions": self.fired_actions,
            "kernels": self.kernels,
            "cells": [c.to_dict() for c in self.cells],
            "violations": [v.to_dict() for v in self.violations],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        lines = [
            f"chaos campaign: seed {self.seed}, {len(self.cells)} cells "
            f"({len(self.fault_actions)} fault actions x "
            f"{len(self.kernels)} kernels), {self.elapsed:.1f}s"
        ]
        for cell in self.cells:
            status = "ok" if cell.ok else f"error={cell.error_type}"
            extras = []
            if cell.degraded:
                extras.append("degraded")
            if cell.attempts > 1:
                extras.append(f"attempts={cell.attempts}")
            if cell.resumed_from is not None:
                extras.append(f"resumed@{cell.resumed_from}")
            if not cell.fired:
                extras.append("fault-never-fired")
            suffix = (" [" + ", ".join(extras) + "]") if extras else ""
            lines.append(
                f"  {cell.cell} ({cell.kernel}): {status}, "
                f"{cell.elapsed:.2f}s{suffix}"
            )
            for violation in cell.violations:
                lines.append(f"    VIOLATION {violation}")
        lines.append(
            "RESULT: "
            + (
                "zero invariant violations"
                if self.ok
                else f"{len(self.violations)} INVARIANT VIOLATIONS"
            )
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Default grid
# ----------------------------------------------------------------------


def default_kernels() -> List[Spec]:
    """Three tiny, fast-saturating kernels exercising distinct shapes:
    a reduction, an elementwise multiply-add, and a mixed expression."""

    def dot2(a, b, out):
        out[0] = a[0] * b[0] + a[1] * b[1]

    def axpy2(a, b, out):
        for i in range(2):
            out[i] = a[i] * b[i] + a[i]

    def mix2(a, b, out):
        for i in range(2):
            out[i] = (a[i] + b[i]) * b[i]

    return [
        lift("dot2", dot2, [("a", 2), ("b", 2)], [("out", 1)]),
        lift("axpy2", axpy2, [("a", 2), ("b", 2)], [("out", 2)]),
        lift("mix2", mix2, [("a", 2), ("b", 2)], [("out", 2)]),
    ]


def default_matrix() -> List[CampaignCell]:
    """The full fault matrix: every registered seam, every applicable
    action family, including the compound crash-then-corrupt cell."""
    return [
        CampaignCell(
            "cache.read", "corrupt",
            (FaultSpec("cache.read", "corrupt"),), prime_cache=True,
        ),
        CampaignCell(
            "cache.read", "truncate",
            (FaultSpec("cache.read", "truncate"),), prime_cache=True,
        ),
        CampaignCell(
            "cache.write", "enospc", (FaultSpec("cache.write", "enospc"),),
        ),
        CampaignCell(
            "worker.spawn", "spawnfail",
            (FaultSpec("worker.spawn", "spawnfail"),), isolate=True,
        ),
        CampaignCell(
            "worker.result", "drop",
            (FaultSpec("worker.result", "drop"),), isolate=True,
        ),
        CampaignCell(
            # The first attempt's worker dies before compiling; the
            # retry's worker recovers.
            "worker.start", "sigkill",
            (FaultSpec("worker.start", "sigkill", attempts=(0,)),),
            isolate=True,
        ),
        CampaignCell(
            # In process a logic error at worker start fails fast.
            "worker.start", "raise", (FaultSpec("worker.start", "raise"),),
        ),
        CampaignCell(
            "runner.iteration", "raise",
            (FaultSpec("runner.iteration", "raise", nth=2),),
        ),
        CampaignCell(
            "runner.iteration", "sigkill",
            (FaultSpec("runner.iteration", "sigkill", nth=3, attempts=(0,)),),
            isolate=True,
        ),
        CampaignCell(
            "runner.iteration", "sleep",
            (FaultSpec("runner.iteration", "sleep", seconds=2.0),),
            options={"time_limit": 0.75},
        ),
        CampaignCell(
            "runner.memory", "memtrip", (FaultSpec("runner.memory", "memtrip"),),
        ),
        CampaignCell(
            "checkpoint.write", "enospc",
            (FaultSpec("checkpoint.write", "enospc"),),
        ),
        CampaignCell(
            # Compound: the first worker is SIGKILLed mid-saturation,
            # then the retry finds its persisted checkpoint *corrupted*
            # -- recovery must degrade to a cold start, never crash.
            "checkpoint.read", "corrupt",
            (
                FaultSpec("runner.iteration", "sigkill", nth=3, attempts=(0,)),
                FaultSpec("checkpoint.read", "corrupt"),
            ),
            isolate=True,
        ),
        CampaignCell(
            # Phased-saturation resume drill: SIGKILL the worker while
            # phase 2 (vectorize) is saturating -- cumulative runner
            # iteration 4 lands inside phase 2 for every chaos kernel
            # (layout saturates in 2) -- then require the retry's
            # resumed compile to fingerprint identically to an
            # unfaulted run.  Phase checkpoints are keyed by plan
            # fingerprint + phase index + round, so the resume can
            # never replay a phase-1 checkpoint into the phase-2 graph.
            "phase.saturate", "sigkill",
            (FaultSpec("runner.iteration", "sigkill", nth=4, attempts=(0,)),),
            isolate=True,
            options={"phases": "on"},
            verify_identical=True,
        ),
        CampaignCell(
            "extract.start", "raise", (FaultSpec("extract.start", "raise"),),
        ),
        CampaignCell(
            "lower.start", "oserror", (FaultSpec("lower.start", "oserror"),),
        ),
        CampaignCell(
            "validate.lane", "raise",
            (FaultSpec("validate.lane", "raise"),),
            options={"validate": True},
        ),
    ]


def smoke_matrix() -> List[CampaignCell]:
    """A small CI-friendly subset: one cell per fault family, still
    covering >= 6 distinct actions and the checkpoint/resume path."""
    wanted = {
        ("cache.read", "corrupt"),
        ("cache.write", "enospc"),
        ("worker.result", "drop"),
        ("worker.start", "raise"),
        ("runner.iteration", "raise"),
        ("runner.iteration", "sigkill"),
        ("runner.iteration", "sleep"),
        ("runner.memory", "memtrip"),
        ("phase.saturate", "sigkill"),
    }
    return [c for c in default_matrix() if (c.site, c.action) in wanted]


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------

#: Base compile options for campaign cells: small budgets (the kernels
#: saturate in a handful of iterations), validation off except where a
#: cell turns it on, per-iteration checkpoints, recorder-only
#: observability for post-mortems.
_BASE_OPTIONS = dict(
    time_limit=5.0,
    node_limit=20_000,
    iter_limit=8,
    validate=False,
    checkpoint_stride=1,
)


def run_campaign(
    seed: int = 0,
    kernels: Optional[Sequence[Spec]] = None,
    matrix: Optional[Sequence[CampaignCell]] = None,
    cell_budget: float = 60.0,
    scratch_dir: Optional[str] = None,
    postmortems: bool = True,
) -> CampaignReport:
    """Sweep ``matrix`` x ``kernels`` and check every invariant.

    Deterministic given ``seed``: plan seeds, compile seeds, and retry
    backoffs (jitter zeroed) all derive from it.  ``cell_budget`` is
    the ``bounded-wallclock`` invariant's per-cell ceiling.
    """
    kernels = list(kernels) if kernels is not None else default_kernels()
    matrix = list(matrix) if matrix is not None else default_matrix()
    own_scratch = scratch_dir is None
    scratch = scratch_dir or tempfile.mkdtemp(prefix="repro-chaos-")
    cache_root = os.path.join(scratch, "cache")
    ckpt_root = os.path.join(scratch, "checkpoints")
    report = CampaignReport(seed=seed)
    started = time.perf_counter()

    for cell in matrix:
        for spec in kernels:
            report.cells.append(
                _run_cell(
                    cell, spec, seed, cache_root, ckpt_root, cell_budget,
                    postmortems,
                )
            )

    report.elapsed = time.perf_counter() - started
    if own_scratch:
        import shutil

        shutil.rmtree(scratch, ignore_errors=True)
    return report


def _cell_options(cell: CampaignCell, spec: Spec, seed: int) -> CompileOptions:
    overrides = dict(_BASE_OPTIONS)
    overrides.update(cell.options)
    # A distinct differential seed per (cell, kernel) doubles as cache
    # isolation: the seed is part of the options fingerprint, so cells
    # never hit each other's entries -- only their own primed ones.
    overrides["seed"] = stable_seed(seed, "chaos-compile", cell.name, spec.name) % (
        1 << 31
    )
    overrides["observability"] = Observability.on(trace=False, metrics=False)
    return CompileOptions(**overrides)


def _run_cell(
    cell: CampaignCell,
    spec: Spec,
    seed: int,
    cache_root: str,
    ckpt_root: str,
    cell_budget: float,
    postmortems: bool,
) -> CellOutcome:
    cell_id = f"{cell.site}:{cell.action}:{spec.name}"
    outcome = CellOutcome(
        cell=cell_id, kernel=spec.name, site=cell.site, action=cell.action
    )
    options = _cell_options(cell, spec, seed)
    policy = RetryPolicy(
        max_attempts=3,
        backoff_base=0.01,
        backoff_jitter=0.0,
        shrink_factor=1.0,
    )
    service = CompileService(
        cache=ArtifactCache(cache_root),
        policy=policy,
        isolate=cell.isolate,
        limits=WorkerLimits(kill_timeout=max(cell_budget / 2.0, 20.0)),
        seed=seed,
        checkpoint_dir=ckpt_root,
    )
    if cell.prime_cache:
        service.compile_spec(spec, options)
    baseline_fingerprint = None
    if cell.verify_identical:
        # Unfaulted reference, compiled in-process with the same
        # options but no plan installed and no cache in the way.
        from ..compiler import compile_spec

        baseline_fingerprint = compile_spec(
            spec, _cell_options(cell, spec, seed)
        ).program.fingerprint()

    plan = FaultPlan(
        list(cell.specs), seed=stable_seed(seed, "chaos-plan", cell_id)
    )
    result = None
    error: Optional[BaseException] = None
    start = time.perf_counter()
    with active_plan(plan):
        try:
            result = service.compile_spec(spec, options)
        except BaseException as exc:  # noqa: BLE001 - judged by invariants
            error = exc
    outcome.elapsed = time.perf_counter() - start
    outcome.fired = list(plan.fired)
    outcome.ok = result is not None
    if result is not None:
        outcome.degraded = result.degraded
        outcome.attempts = result.diagnostics.attempts
        outcome.resumed_from = result.report.resumed_from
        outcome.stop_reason = result.report.stop_reason
    if error is not None:
        outcome.error_type = type(error).__name__
    if cell.isolate and not outcome.fired and outcome.attempts > 1:
        # Worker-seam faults fire inside the sandboxed subprocess, so
        # the parent plan's log stays empty; the retry the crash forced
        # is the observable evidence.  Record an inferred entry so
        # coverage reporting does not show a false gap.
        for fault in cell.specs:
            outcome.fired.append(
                {
                    "site": fault.site,
                    "action": fault.action,
                    "hit": None,
                    "attempt": 0,
                    "inferred": True,
                }
            )

    violations: List[Violation] = []
    violations += check_typed_error(cell_id, error)
    violations += check_ladder(cell_id, result, error)
    violations += check_wallclock(cell_id, outcome.elapsed, cell_budget)
    violations += check_cache_integrity(cell_id, service.cache)
    violations += check_breaker_log(
        cell_id, service.breaker_log, policy.strike_threshold
    )
    if cell.verify_identical:
        violations += check_phase_resume_identical(
            cell_id, result, baseline_fingerprint
        )
    if violations and postmortems:
        post = {
            "fired": list(plan.fired),
            "breaker_log": list(service.breaker_log),
            "service_stats": service.stats.summary(),
            "error": repr(error) if error is not None else None,
        }
        recorder = _recorder_dump(result, error)
        if recorder is not None:
            post["flight_recorder"] = recorder
        for violation in violations:
            violation.post_mortem.update(post)
    outcome.violations = violations
    return outcome


def _recorder_dump(result, error) -> Optional[Dict[str, Any]]:
    """The flight-recorder dump of the cell's compile, wherever it
    ended up (result, or a CompileError's partial artifacts)."""
    data = getattr(result, "observability", None)
    if data is None and error is not None:
        data = getattr(error, "partial", {}).get("observability")
    if data is None:
        return None
    return getattr(data, "recorder", None)
