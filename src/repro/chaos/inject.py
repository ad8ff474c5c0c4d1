"""Deterministic fault injection: named seams, seeded plans, no-op off.

Diospyros-style saturation is a long-running, resource-hungry process;
every recovery path the service stack grew (retries, circuit breaker,
watchdogs, cache quarantine, the degradation ladder) is only as
trustworthy as the faults it has actually seen.  This module turns
"the faults a test author anticipated" into a *systematic surface*:

* **Injection points** are named seams (``cache.read``,
  ``worker.spawn``, ``runner.iteration``, ``validate.lane``, ...)
  instrumented throughout the service, the saturation runner, the
  backend, and validation.  Every seam is registered in :data:`SITES`
  with its scope and supported fault family, so a typo in a plan is an
  error, not a silent no-op.  With no plan installed a seam costs one
  global load and a ``None`` check.

* A :class:`FaultPlan` is a *seeded, deterministic* schedule of
  :class:`FaultSpec` entries: fire on the Nth hit of a seam, or with
  probability ``p`` per hit drawn from the PR 5 domain-separated RNG
  (:func:`repro.seeding.stable_seed`), optionally restricted to
  specific service retry attempts.  Two processes given the same plan
  observe the same faults -- which is what makes a chaos campaign
  replayable and a violation shrinkable.

* **Fault actions** cover the real blast radii: raise a typed
  :class:`repro.errors.InjectedFaultError`, SIGKILL the current
  process, exhaust its address-space limit, sleep past a deadline,
  bit-flip or truncate a byte payload, fake ``ENOSPC``/``EIO`` on IO,
  and trip seam-interpreted flags (drop a worker result, trip the
  memory watchdog).

The plan is installed process-globally (:func:`install_plan` /
:func:`active_plan`); the compile service forwards the ambient plan to
its sandboxed workers on the :class:`~repro.service.worker.CompileTask`
so worker-side seams fire inside the real subprocess, exercising the
real kill/retry/resume machinery rather than monkeypatched stand-ins.
It is the only way to inject a fault: the ``worker.start`` seam
(:func:`chaos_worker_start`) targets one kernel's worker attempts.
"""

from __future__ import annotations

import errno
import fnmatch
import os
import resource
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import InjectedFaultError, WorkerCrashError
from ..seeding import stable_seed

__all__ = [
    "SiteInfo",
    "SITES",
    "PAYLOAD_ACTIONS",
    "FLAG_ACTIONS",
    "RAISE_ACTIONS",
    "ALL_ACTIONS",
    "FaultSpec",
    "FaultPlan",
    "install_plan",
    "clear_plan",
    "current_plan",
    "active_plan",
    "set_attempt",
    "chaos_point",
    "chaos_flag",
    "chaos_worker_start",
]


@dataclass(frozen=True)
class SiteInfo:
    """Registry entry for one injection seam."""

    name: str
    #: ``point`` seams execute generic actions (raise/sigkill/sleep/io
    #: errors), ``payload`` seams additionally support corrupt/truncate
    #: transforms of a bytes payload, ``flag`` seams only report that a
    #: fault fired and implement the effect themselves.
    kind: str
    #: ``parent`` seams run in the supervisor process, ``worker`` seams
    #: inside the (possibly sandboxed) compile; campaign builders must
    #: not schedule process-killing actions at parent seams.
    where: str
    description: str


#: Every instrumented seam.  Keep in sync with the call sites; the
#: chaos campaign enumerates this table and FaultPlan validates
#: against it.
SITES: Dict[str, SiteInfo] = {
    s.name: s
    for s in (
        SiteInfo("cache.read", "payload", "parent",
                 "artifact-cache entry bytes after the disk read"),
        SiteInfo("cache.write", "point", "parent",
                 "artifact-cache store, before the temp-file write"),
        SiteInfo("worker.spawn", "flag", "parent",
                 "supervisor about to fork a sandboxed worker"),
        SiteInfo("worker.result", "flag", "parent",
                 "supervisor received a worker's result message "
                 "(firing drops it, simulating a lost pipe)"),
        SiteInfo("worker.start", "point", "worker",
                 "worker about to compile, hit per kernel and attempt "
                 "(in the supervisor's thread when it compiles in "
                 "process)"),
        SiteInfo("runner.iteration", "point", "worker",
                 "top of each equality-saturation iteration"),
        SiteInfo("runner.memory", "flag", "worker",
                 "memory-watchdog poll (firing trips the limit)"),
        SiteInfo("checkpoint.write", "point", "worker",
                 "persistent saturation checkpoint, before the write"),
        SiteInfo("checkpoint.read", "payload", "worker",
                 "persistent saturation checkpoint bytes after the read"),
        SiteInfo("extract.start", "point", "worker",
                 "start of cost-based extraction"),
        SiteInfo("lower.start", "point", "worker",
                 "start of lowering an extracted term"),
        SiteInfo("validate.lane", "point", "worker",
                 "validation of one output lane"),
        SiteInfo("gateway.enqueue", "point", "parent",
                 "gateway admission, after rate-limit/depth checks "
                 "passed (a 'sleep' here is a queue-delay spike)"),
        SiteInfo("gateway.dispatch", "point", "parent",
                 "gateway dispatcher dequeued a request, before the "
                 "compile executes"),
        SiteInfo("gateway.flood", "flag", "parent",
                 "soak-harness arrival tick (firing turns one arrival "
                 "into a burst from the flood tenant)"),
        SiteInfo("gateway.client", "flag", "parent",
                 "soak-harness client about to await its response "
                 "(firing makes it a slow-loris that walks away)"),
    )
}

#: Actions only meaningful at ``payload`` seams.
PAYLOAD_ACTIONS = ("corrupt", "truncate")
#: Seam-interpreted actions at ``flag`` seams (the seam implements the
#: effect; the names document intent in campaign reports).
FLAG_ACTIONS = ("drop", "spawnfail", "memtrip", "flag")
#: Generic actions every ``point`` seam executes directly.
RAISE_ACTIONS = ("raise", "oserror", "enospc", "sigkill", "sleep", "oom")
ALL_ACTIONS = RAISE_ACTIONS + PAYLOAD_ACTIONS + FLAG_ACTIONS


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: where, what, and when it fires.

    Exactly one of ``nth`` (1-based hit index of the seam) or
    ``probability`` (per-hit chance, drawn deterministically from the
    plan seed) selects the firing policy; ``nth=1`` is the default.
    ``attempts`` optionally restricts firing to specific 0-based
    service retry attempts -- "crash attempt 0, succeed on the retry"
    is ``attempts=(0,)``.  ``max_fires`` bounds total firings
    (``None`` = unbounded), so "fire on every listed attempt" is
    ``probability=1.0, max_fires=None``.  ``kernel`` restricts a
    ``worker.start`` spec to that kernel's compiles.
    """

    site: str
    action: str
    nth: Optional[int] = None
    probability: Optional[float] = None
    attempts: Optional[Tuple[int, ...]] = None
    max_fires: Optional[int] = 1
    #: Sleep duration of the ``sleep`` action, seconds.
    seconds: float = 0.25
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        if self.action not in ALL_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} (choose from "
                f"{', '.join(ALL_ACTIONS)})"
            )
        if self.nth is not None and self.probability is not None:
            raise ValueError("give nth or probability, not both")
        if self.nth is not None and self.nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.kernel is not None and self.site != "worker.start":
            raise ValueError(
                f"only worker.start targets a kernel, not {self.site!r}"
            )

    def matches_site(self, site: str) -> bool:
        if self.site == site:
            return True
        return ("*" in self.site or "?" in self.site) and fnmatch.fnmatchcase(
            site, self.site
        )


class FaultPlan:
    """A seeded, deterministic schedule of faults.

    Thread-compatible (hit counters behind a lock) and picklable (it
    crosses the supervisor -> worker pipe on the
    :class:`~repro.service.worker.CompileTask`).  Per-hit probability
    draws use ``stable_seed(seed, "chaos", site, hit_index)`` so the
    decision for the Kth hit of a seam is a pure function of the plan
    seed -- independent of thread timing, ``PYTHONHASHSEED``, and every
    other seam's traffic.
    """

    def __init__(self, specs: List[FaultSpec], seed: int = 0) -> None:
        self.specs = list(specs)
        self.seed = seed
        #: Ambient 0-based service attempt index, set by the worker /
        #: supervisor via :func:`set_attempt` before the compile runs.
        self.attempt = 0
        self._hits: Dict[str, int] = {}
        self._fires: Dict[int, int] = {}
        #: Log of every firing: (site, action, hit index, attempt).
        self.fired: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        for spec in self.specs:
            if "*" in spec.site or "?" in spec.site:
                if not any(spec.matches_site(s) for s in SITES):
                    raise ValueError(
                        f"fault site pattern {spec.site!r} matches no "
                        f"registered injection point"
                    )
            elif spec.site not in SITES:
                raise ValueError(
                    f"unknown fault site {spec.site!r} (registered: "
                    f"{', '.join(sorted(SITES))})"
                )

    # -- pickling (the lock must not cross the pipe) -------------------

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def hits(self, site: str, kernel: Optional[str] = None) -> int:
        return self._hits.get(site if kernel is None else f"{site}@{kernel}", 0)

    def fire(
        self,
        site: str,
        attempt: Optional[int] = None,
        kernel: Optional[str] = None,
    ) -> Optional[FaultSpec]:
        """Record one hit of ``site``; return the spec that fires on
        this hit, if any (first matching spec wins).  ``attempt``
        overrides the ambient :attr:`attempt`.  With ``kernel``, hits
        are counted per kernel, and a spec aimed at another kernel
        never fires."""
        if attempt is None:
            attempt = self.attempt
        counter = site if kernel is None else f"{site}@{kernel}"
        with self._lock:
            hit = self._hits.get(counter, 0) + 1
            self._hits[counter] = hit
            for index, spec in enumerate(self.specs):
                if not spec.matches_site(site):
                    continue
                if spec.kernel is not None and spec.kernel != kernel:
                    continue
                if spec.attempts is not None and attempt not in spec.attempts:
                    continue
                fires = self._fires.get(index, 0)
                if spec.max_fires is not None and fires >= spec.max_fires:
                    continue
                if spec.nth is not None:
                    if hit != spec.nth:
                        continue
                elif spec.probability is not None:
                    draw = stable_seed(self.seed, "chaos", counter, hit) / float(
                        1 << 63
                    )
                    if draw >= spec.probability:
                        continue
                # nth=None and probability=None: fire on the first hit.
                elif hit != 1:
                    continue
                self._fires[index] = fires + 1
                self.fired.append(
                    {
                        "site": site,
                        "action": spec.action,
                        "hit": hit,
                        "attempt": attempt,
                        "kernel": kernel,
                    }
                )
                return spec
        return None


# ----------------------------------------------------------------------
# Ambient plan (the seams consult one process-global slot)
# ----------------------------------------------------------------------

#: A module global rather than a contextvar: seams fire from the
#: supervisor's worker threads and from forked children, both of which
#: must see the plan installed by the campaign runner.
_PLAN: Optional[FaultPlan] = None


def install_plan(plan: Optional[FaultPlan], attempt: int = 0) -> None:
    """Install ``plan`` process-globally (``None`` clears)."""
    global _PLAN
    if plan is not None:
        plan.attempt = attempt
    _PLAN = plan


def clear_plan() -> None:
    install_plan(None)


def current_plan() -> Optional[FaultPlan]:
    return _PLAN


class active_plan:
    """Context manager installing a plan for a dynamic extent."""

    def __init__(self, plan: Optional[FaultPlan], attempt: int = 0) -> None:
        self.plan = plan
        self.attempt = attempt
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> Optional[FaultPlan]:
        self._previous = current_plan()
        install_plan(self.plan, self.attempt)
        return self.plan

    def __exit__(self, exc_type, exc, tb) -> bool:
        install_plan(self._previous)
        return False


def set_attempt(attempt: int) -> None:
    """Tell the ambient plan which service attempt is running (no-op
    without a plan)."""
    plan = _PLAN
    if plan is not None:
        plan.attempt = attempt


# ----------------------------------------------------------------------
# Seam helpers (the instrumented call sites)
# ----------------------------------------------------------------------


def chaos_point(site: str, payload: Optional[bytes] = None) -> Optional[bytes]:
    """Generic seam: executes a firing fault and returns the (possibly
    transformed) payload.  No-op -- one global load -- without a plan."""
    plan = _PLAN
    if plan is None:
        return payload
    spec = plan.fire(site)
    if spec is None:
        return payload
    return _execute(spec, site, payload)


def chaos_flag(site: str) -> bool:
    """Flag seam: returns True when a fault fires here; the call site
    implements the effect (drop a message, trip a watchdog, ...)."""
    plan = _PLAN
    if plan is None:
        return False
    return plan.fire(site) is not None


def chaos_worker_start(kernel: str, attempt: int, isolated: bool = True) -> None:
    """The ``worker.start`` seam, hit once per worker attempt before
    the compile.  Hits count per kernel and the attempt is explicit,
    since ``compile_many``'s threads share the plan.  In process the
    seam runs in the supervisor's thread, where ``sigkill`` and ``oom``
    raise :class:`~repro.errors.WorkerCrashError`: how a dead worker
    looks to the supervisor."""
    plan = _PLAN
    if plan is None:
        return
    spec = plan.fire("worker.start", attempt=attempt, kernel=kernel)
    if spec is None:
        return
    if not isolated and spec.action in ("sigkill", "oom"):
        _announce("worker.start", spec.action)
        raise WorkerCrashError(
            f"injected {spec.action} at worker.start (in process)",
            kernel=kernel,
        )
    _execute(spec, "worker.start", None)


def _announce(site: str, action: str) -> None:
    """Stamp the fault on stderr before executing it: real crashes
    leave a trace there, and the supervisor's stderr-tail capture (and
    therefore every post-mortem) is tested against this line."""
    import sys

    print(f"injected chaos fault: {action} at {site}", file=sys.stderr,
          flush=True)


def _execute(
    spec: FaultSpec, site: str, payload: Optional[bytes]
) -> Optional[bytes]:
    action = spec.action
    _announce(site, action)
    if action == "raise":
        raise InjectedFaultError(
            f"injected fault at {site}", site=site, action=action
        )
    if action == "oserror":
        raise OSError(errno.EIO, f"injected I/O error at {site}")
    if action == "enospc":
        raise OSError(errno.ENOSPC, f"injected ENOSPC at {site}")
    if action == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("unreachable: SIGKILL returned")  # pragma: no cover
    if action == "sleep":
        time.sleep(spec.seconds)
        return payload
    if action == "oom":
        # Only an address-space limit stops the allocation; without one
        # it would take the host's memory, so fail as it would at once.
        if resource.getrlimit(resource.RLIMIT_AS)[0] == resource.RLIM_INFINITY:
            raise MemoryError(f"injected oom at {site} (no RLIMIT_AS)")
        hog = []
        while True:  # ends in MemoryError at the limit
            hog.append(bytearray(16 * 1024 * 1024))
    if action == "corrupt":
        if payload:
            index = len(payload) // 2
            return payload[:index] + bytes([payload[index] ^ 0xFF]) + payload[
                index + 1:
            ]
        return payload
    if action == "truncate":
        if payload:
            return payload[: len(payload) // 2]
        return payload
    # Flag-family actions reaching a generic seam behave like "raise"
    # so a mis-targeted plan is loud instead of silently inert.
    raise InjectedFaultError(
        f"flag action {action!r} fired at generic seam {site}",
        site=site,
        action=action,
    )
