"""Subprocess body for sandboxed compilation.

One worker process runs exactly one :func:`repro.compiler.compile_spec`
under ``resource`` rlimits and ships the result back over a pipe as the
artifact cache's record payload (:func:`repro.service.cache.encode_result`:
pickled once, without the ``Spec`` the supervisor already holds), or
an encoded failure.  The hard wall-clock kill is the supervisor's job --
a process cannot reliably SIGKILL itself out of a tight C loop -- but
the limits applied here make the common blast radii self-terminating:

* ``RLIMIT_AS`` caps the address space, so a runaway e-graph gets a
  ``MemoryError`` (or dies) inside its own process instead of taking
  the sweep down with the host OOM killer;
* ``RLIMIT_CPU`` delivers SIGXCPU/SIGKILL when the compile spins past
  its CPU budget -- the backstop for busy-loops that never check the
  cooperative deadline.

``RLIMIT_AS`` is set only when the caller gives
``WorkerLimits.address_space_bytes``.  A chaos plan travels with the
task, and its ``worker.start`` seam fires *inside the worker* before
the compile, so faults exercise the real kill/retry/cache paths rather
than monkeypatched stand-ins.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Optional, Tuple

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

from ..chaos.inject import chaos_worker_start, install_plan
from .cache import encode_result

__all__ = ["WorkerLimits", "CompileTask", "worker_main"]


@dataclass(frozen=True)
class WorkerLimits:
    """Sandbox limits for one compilation subprocess.

    ``None`` disables the corresponding limit.  ``cpu_seconds`` and
    ``kill_timeout`` default to being *derived* from the compilation's
    own ``time_limit`` (see :func:`derive`): the CPU budget is a 3x
    backstop over the cooperative deadline, the kill-timeout a 3x +
    grace wall-clock ceiling enforced by the supervisor.
    """

    address_space_bytes: Optional[int] = None
    cpu_seconds: Optional[int] = None
    kill_timeout: Optional[float] = None

    def derive(self, time_limit: Optional[float]) -> "WorkerLimits":
        """Fill unset CPU / kill budgets from a compile time limit."""
        cpu = self.cpu_seconds
        kill = self.kill_timeout
        if time_limit is not None:
            if cpu is None:
                cpu = int(math.ceil(time_limit * 3)) + 10
            if kill is None:
                kill = time_limit * 3.0 + 15.0
        return dataclasses.replace(
            self, cpu_seconds=cpu, kill_timeout=kill
        )


@dataclass(frozen=True)
class CompileTask:
    """Everything a worker needs: picklable under any start method."""

    spec: object  # repro.frontend.lift.Spec
    options: object  # repro.compiler.CompileOptions
    limits: WorkerLimits
    attempt: int = 0
    #: When set, the worker dup2s fd 2 onto this file so the supervisor
    #: can read the stderr tail of a worker that died uncleanly (a
    #: SIGKILLed process cannot flush a pipe, but the file survives).
    stderr_path: Optional[str] = None
    #: Chaos fault plan (repro.chaos.FaultPlan), installed process-wide
    #: inside the worker so worker-side injection seams fire in the
    #: sandbox.  Travels as a pickled snapshot of the parent's plan:
    #: each attempt's worker starts from the same counters, so firing
    #: is deterministic per attempt.
    chaos_plan: Optional[object] = None


def _redirect_stderr(path: str) -> None:
    """Point fd 2 (and ``sys.stderr``) at ``path``, line-buffered."""
    import sys

    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600)
        os.dup2(fd, 2)
        os.close(fd)
        sys.stderr = os.fdopen(2, "w", buffering=1, closefd=False)
    except OSError:  # pragma: no cover - scratch dir vanished
        pass


def _apply_rlimits(limits: WorkerLimits) -> None:
    if resource is None:  # pragma: no cover - non-POSIX
        return
    if limits.address_space_bytes is not None:
        _set_rlimit(resource.RLIMIT_AS, limits.address_space_bytes)
    if limits.cpu_seconds is not None:
        # soft limit raises SIGXCPU (default: kill); hard limit +5 is
        # the unconditional SIGKILL backstop.
        _set_rlimit(
            resource.RLIMIT_CPU, limits.cpu_seconds, limits.cpu_seconds + 5
        )


def _set_rlimit(which: int, soft: int, hard: Optional[int] = None) -> None:
    hard = hard if hard is not None else soft
    try:
        _, old_hard = resource.getrlimit(which)
        if old_hard != resource.RLIM_INFINITY:
            soft = min(soft, old_hard)
            hard = min(hard, old_hard)
        resource.setrlimit(which, (soft, hard))
    except (ValueError, OSError):  # pragma: no cover - container quirks
        pass


def _encode_error(exc: BaseException) -> Tuple[str, str, str]:
    """(type name, stage, message) -- enough for the supervisor to
    reconstruct a classification without unpickling arbitrary exception
    state (partial artifacts may hold unpicklable e-graphs)."""
    return (
        type(exc).__name__,
        getattr(exc, "stage", "compile"),
        str(exc),
    )


def worker_main(conn, task: CompileTask) -> None:
    """Entry point of the sandboxed subprocess."""
    from ..compiler import compile_spec  # after fork: cheap

    try:
        if task.stderr_path is not None:
            _redirect_stderr(task.stderr_path)
        _apply_rlimits(task.limits)
        if task.chaos_plan is not None:
            install_plan(task.chaos_plan, attempt=task.attempt)
        chaos_worker_start(task.spec.name, task.attempt)
        result = compile_spec(task.spec, task.options)
        conn.send(("ok", encode_result(result, task.attempt + 1)))
    except BaseException as exc:  # noqa: BLE001 - must never die silently
        try:
            # The traceback goes to stderr (the supervisor's scratch
            # file) so it survives even when the pipe send fails.
            import sys
            import traceback

            traceback.print_exc(file=sys.stderr)
            sys.stderr.flush()
        except Exception:
            pass
        try:
            conn.send(("error", _encode_error(exc)))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
