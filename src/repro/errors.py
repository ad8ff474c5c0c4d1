"""Staged error taxonomy and compilation diagnostics.

The paper's central robustness claim is that a timed-out saturation is
still useful: "extraction operates on the partially saturated graph"
(Section 5.5).  This module generalizes that stance from the clean
timeout path to *every* failure mode of the pipeline: extraction and
validation always degrade, and the stages that can fail with nothing
to degrade to -- lifting, saturation set-up, lowering -- each get a
dedicated exception type that carries the stage name, the kernel name,
and whatever partial artifacts existed when the stage failed, so
callers (the evaluation sweep, a service wrapping the compiler) can
degrade instead of dying.

:class:`CompileDiagnostics` is the per-compilation flight recorder: it
accumulates stage timings, retry counts, swallowed errors, and the
*degradation ladder* steps the compiler took (see DESIGN.md,
"Failure semantics & degradation ladder").  It is attached to every
:class:`repro.compiler.CompileResult` as ``result.diagnostics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "CompileError",
    "LiftError",
    "SaturationError",
    "LoweringError",
    "WorkerCrashError",
    "WorkerTimeoutError",
    "CircuitOpenError",
    "InjectedFaultError",
    "ShutdownError",
    "DeadlineExceededError",
    "OverloadError",
    "RateLimitError",
    "Degradation",
    "StageRecord",
    "CompileDiagnostics",
    "is_resource_failure",
]


def _obs_event(kind: str, **details) -> None:
    """Forward a diagnostics event to the ambient observability session
    (lazy import: errors.py is a leaf module everything else imports)."""
    from .observability.config import event

    event(kind, **details)


class CompileError(Exception):
    """Base of the staged exception taxonomy.

    ``stage`` names the pipeline stage that failed, ``kernel`` the spec
    being compiled, and ``partial`` holds whatever artifacts the stage
    had produced before failing (e.g. the term that did not lower, a
    worker's stderr tail, the compile's observability export), so
    callers can inspect them instead of recomputing.
    """

    stage: str = "compile"

    def __init__(
        self,
        message: str,
        *,
        kernel: Optional[str] = None,
        partial: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.kernel = kernel
        self.partial = dict(partial or {})

    def __str__(self) -> str:
        prefix = f"[{self.stage}" + (f":{self.kernel}" if self.kernel else "") + "] "
        return prefix + super().__str__()


class LiftError(CompileError):
    """Symbolic evaluation of the reference kernel failed.  There is no
    spec to degrade to, so this is the one stage that always raises."""

    stage = "lift"


class SaturationError(CompileError):
    """Saturation could not run: an unknown ``phases`` mode, a ruleset
    or e-graph that could not be built, or a phase executor that
    raised.  A rule that crashes mid-run is not one of these: the
    runner stops and extraction proceeds from the last consistent
    e-graph."""

    stage = "saturation"


class LoweringError(CompileError):
    """A DSL term could not be lowered to vector IR: the backend raises
    it for a malformed program or an uninterpreted call with no target
    intrinsic, and the compiler when not even the spec term lowers."""

    stage = "lowering"


class WorkerCrashError(CompileError):
    """A sandboxed compilation worker died without delivering a result
    (segfault, SIGKILL from the OOM killer, an rlimit trip).  ``signal``
    holds the killing signal number when the exit status names one, and
    ``stderr_tail`` the last lines the worker wrote to stderr before
    dying (the supervisor redirects worker stderr to a scratch file
    precisely so this survives a SIGKILL)."""

    stage = "worker"

    def __init__(
        self,
        message: str,
        *,
        kernel: Optional[str] = None,
        exitcode: Optional[int] = None,
        signal: Optional[int] = None,
        stderr_tail: Optional[str] = None,
        partial: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message, kernel=kernel, partial=partial)
        self.exitcode = exitcode
        self.signal = signal
        self.stderr_tail = stderr_tail

    def __str__(self) -> str:
        text = super().__str__()
        if self.stderr_tail:
            text += "\n--- worker stderr (tail) ---\n" + self.stderr_tail
        return text


class WorkerTimeoutError(WorkerCrashError):
    """A sandboxed worker blew through its hard kill-timeout and was
    SIGKILLed by the supervisor.  Distinct from a clean saturation
    timeout, which still yields a result; this one yields nothing."""


class CircuitOpenError(CompileError):
    """The per-kernel circuit breaker is open: the kernel accumulated
    too many strikes and further compiles fail fast until the breaker
    is reset (``CompileService.reset_breaker``)."""

    stage = "service"


class InjectedFaultError(CompileError):
    """A fault deliberately injected by the chaos subsystem
    (:mod:`repro.chaos`) fired at an instrumented seam.  Part of the
    typed taxonomy so the chaos invariant "every failure surfaces as a
    ``repro.errors`` exception" holds for the injections themselves."""

    stage = "chaos"

    def __init__(
        self,
        message: str,
        *,
        kernel: Optional[str] = None,
        site: Optional[str] = None,
        action: Optional[str] = None,
        partial: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message, kernel=kernel, partial=partial)
        self.site = site
        self.action = action


class ShutdownError(CompileError):
    """The compile service is draining (SIGTERM/SIGINT or an explicit
    ``CompileService.shutdown``): the compile was refused or its
    in-flight worker was killed as part of the drain.  Distinct from a
    worker crash -- retrying inside the dying supervisor is pointless,
    so this error is never retried."""

    stage = "service"


class DeadlineExceededError(CompileError):
    """The request's end-to-end deadline expired (or its residual
    budget is too small to finish): the compile was shed *before*
    spending more work on it.  Raised by the supervisor ahead of
    forking a worker, by ``compile_spec`` when the deadline has already
    passed at entry, and by the gateway when a queued request's budget
    ran out while it waited.  Never retried -- a request that is out of
    budget stays out of budget.

    ``deadline`` is the absolute wall-clock deadline (``time.time()``
    scale) and ``residual`` the remaining budget (<= 0) observed when
    the request was shed."""

    stage = "deadline"

    def __init__(
        self,
        message: str,
        *,
        kernel: Optional[str] = None,
        deadline: Optional[float] = None,
        residual: Optional[float] = None,
        partial: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message, kernel=kernel, partial=partial)
        self.deadline = deadline
        self.residual = residual


class OverloadError(CompileError):
    """The compile gateway refused the request to protect the farm:
    the admission queue was full, CoDel-style queue-delay shedding
    kicked in, or the brownout ladder reached cache-only mode and the
    request missed.  The typed alternative to queueing unboundedly and
    timing out; clients should back off and retry later.

    ``reason`` is one of ``queue-full``, ``queue-delay``,
    ``cache-only``; ``queue_depth`` / ``queue_delay`` carry the
    measurements that triggered the shed."""

    stage = "gateway"

    def __init__(
        self,
        message: str,
        *,
        kernel: Optional[str] = None,
        reason: str = "overload",
        queue_depth: Optional[int] = None,
        queue_delay: Optional[float] = None,
        partial: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message, kernel=kernel, partial=partial)
        self.reason = reason
        self.queue_depth = queue_depth
        self.queue_delay = queue_delay


class RateLimitError(OverloadError):
    """A tenant exceeded its token-bucket rate limit; the request was
    refused at admission without consuming a queue slot.  ``tenant``
    names the offender and ``retry_after`` estimates the seconds until
    the bucket holds a token again."""

    def __init__(
        self,
        message: str,
        *,
        kernel: Optional[str] = None,
        tenant: Optional[str] = None,
        retry_after: Optional[float] = None,
        partial: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(
            message, kernel=kernel, reason="rate-limit", partial=partial
        )
        self.tenant = tenant
        self.retry_after = retry_after


_STAGE_ERRORS = {
    cls.stage: cls
    for cls in (LiftError, SaturationError, LoweringError,
                DeadlineExceededError)
}


def stage_error(stage: str) -> type:
    """The exception class for a stage name (``CompileError`` for
    unknown stages)."""
    return _STAGE_ERRORS.get(stage, CompileError)


def is_resource_failure(exc: BaseException) -> bool:
    """Node-limit / memory / worker-death failures are worth a retry at
    a smaller budget; logic errors are not.

    This is the retry taxonomy shared by the evaluation sweeps (PR 1's
    halved-budget retry) and the compilation service's backoff loop: it
    walks the cause chain so a ``MemoryError`` wrapped in a staged
    ``CompileError`` still classifies as a resource failure.
    """
    seen = set()
    current: Optional[BaseException] = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        if isinstance(current, (MemoryError, RecursionError, WorkerCrashError)):
            return True
        text = str(current).lower()
        if "node limit" in text or "node_limit" in text or "memory" in text:
            return True
        current = current.__cause__ or current.__context__
    return False


@dataclass
class Degradation:
    """One rung of the degradation ladder the compiler descended.

    ``stage`` is where the failure happened, ``reason`` what failed,
    and ``action`` what the compiler did instead of raising.
    """

    stage: str
    reason: str
    action: str

    def __str__(self) -> str:
        return f"{self.stage}: {self.reason} -> {self.action}"


@dataclass
class StageRecord:
    """Timing/outcome of one executed pipeline stage."""

    stage: str
    elapsed: float
    ok: bool = True
    error: str = ""


@dataclass
class CompileDiagnostics:
    """Per-compilation flight recorder.

    Populated by :func:`repro.compiler.compile_spec`; downstream
    consumers MUST check :attr:`degraded` (or the mirroring
    ``CompileResult.degraded`` flag) before trusting a result -- a
    degraded result is runnable but may be unvectorized, unvalidated,
    or extracted from a partially rewritten e-graph.
    """

    kernel: str = ""
    stages: List[StageRecord] = field(default_factory=list)
    degradations: List[Degradation] = field(default_factory=list)
    #: stage name -> number of retries performed (e.g. validation
    #: rerun with an escalated random-testing budget).
    retries: Dict[str, int] = field(default_factory=dict)
    #: Errors that were swallowed by design (e.g. candidate selection
    #: keeping the primary extraction when the alternative failed to
    #: lower).  Recorded so they are observable, per the taxonomy's
    #: no-silent-failure rule.
    swallowed: List[str] = field(default_factory=list)
    #: Validation was skipped/failed after retries but the result was
    #: still emitted ("degraded-unvalidated").
    unvalidated: bool = False
    #: The result was served from the on-disk artifact cache (set by
    #: ``repro.service``; the compilation stages above describe the run
    #: that originally produced the artifact).
    cache_hit: bool = False
    #: Number of worker attempts the compilation service spent on this
    #: result (1 = first try; 0 = compiled outside the service).
    attempts: int = 0

    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        return bool(self.degradations)

    def record_stage(
        self, stage: str, elapsed: float, ok: bool = True, error: str = ""
    ) -> None:
        self.stages.append(StageRecord(stage, elapsed, ok, error))

    def degrade(self, stage: str, reason: str, action: str) -> Degradation:
        entry = Degradation(stage, reason, action)
        self.degradations.append(entry)
        # Mirror the rung into the ambient observability session (trace
        # event + flight recorder) so a post-mortem shows *when* in the
        # pipeline each fallback fired.  No-op when observability is off.
        _obs_event("degradation", stage=stage, reason=reason, action=action)
        return entry

    def retry(self, stage: str) -> int:
        self.retries[stage] = self.retries.get(stage, 0) + 1
        _obs_event("retry", stage=stage, count=self.retries[stage])
        return self.retries[stage]

    def swallow(self, description: str) -> None:
        self.swallowed.append(description)
        _obs_event("swallowed_error", description=description)

    def stage_time(self, stage: str) -> float:
        return sum(r.elapsed for r in self.stages if r.stage == stage)

    def summary(self) -> str:
        timings = ", ".join(
            f"{r.stage} {r.elapsed:.3f}s" + ("" if r.ok else " FAILED")
            for r in self.stages
        )
        lines = [f"{self.kernel or '<spec>'}: {timings or 'no stages ran'}"]
        if self.cache_hit:
            lines.append("  served from artifact cache")
        if self.attempts > 1:
            lines.append(f"  service attempts: {self.attempts}")
        for d in self.degradations:
            lines.append(f"  degraded -- {d}")
        for stage, count in self.retries.items():
            lines.append(f"  retried {stage} x{count}")
        for s in self.swallowed:
            lines.append(f"  swallowed -- {s}")
        return "\n".join(lines)
