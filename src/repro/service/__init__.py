"""Compilation service layer: process isolation, durable artifacts.

The paper's pipeline survives partial failure *inside* one compilation
(extraction works on partially saturated e-graphs, PR 1's degradation
ladder catches stage crashes).  This package extends that stance to the
process level, which is what a long-running evaluation sweep -- or a
compile server -- actually needs:

* :mod:`repro.service.cache` -- a crash-safe, content-keyed on-disk
  artifact cache: completed :class:`~repro.compiler.CompileResult`\\ s
  are persisted via temp-file + atomic rename with checksums, so a
  ``kill -9`` mid-write can never corrupt an entry and reruns are
  warm-start.
* :mod:`repro.service.worker` -- the sandboxed subprocess body: applies
  ``resource`` rlimits (CPU, and address space when the caller sets
  one) before compiling, so an OOM or a runaway e-graph in one kernel
  dies alone.
* :mod:`repro.service.supervisor` -- :class:`CompileService`: a
  supervisor + worker pool with hard kill-timeouts, jittered
  exponential-backoff retries at shrinking budgets (reusing the
  :func:`repro.errors.is_resource_failure` taxonomy), and a per-kernel
  circuit breaker.

* :mod:`repro.service.checkpoint` -- persistent saturation checkpoints:
  the runner's end-of-iteration snapshot serialized to a content-keyed
  scratch file, so a retry after a worker crash *resumes* saturation
  from the last completed iteration instead of starting over.

* :mod:`repro.service.gateway` -- the overload-resilient asyncio front
  end (DESIGN.md §12): per-tenant token buckets, a bounded priority
  queue, single-flight dedup on the artifact-cache content key,
  CoDel-style queue-delay shedding, a brownout ladder ending in
  cache-only mode, and end-to-end deadline propagation -- overload
  degrades into *typed* refusals, never unbounded buffering.
* :mod:`repro.service.soak` -- the open-loop soak harness behind
  ``python -m repro serve --bench``: phased load (unloaded ->
  sustained -> 4x burst -> recovery), dedup probes, chaos seams, and
  the gate table the serve-smoke CI job asserts on.

The evaluation sweeps (``python -m repro.evaluation ... --isolate
--cache-dir DIR``), the ``python -m repro serve`` CLI verb, the chaos
campaigns (``python -m repro chaos``), and the conformance fuzz
campaigns (``python -m repro conformance guided|random --isolate``)
all run on top of this layer.
"""

from .cache import (
    ArtifactCache,
    CacheStats,
    FsckIssue,
    FsckReport,
    LRUStats,
    LRUTier,
    cache_key,
    code_fingerprint,
)
from .checkpoint import (
    CheckpointStore,
    FileCheckpointer,
    SaturationState,
    saturation_key,
)
from .gateway import (
    CompileGateway,
    GatewayConfig,
    GatewayStats,
    TenantPolicy,
)
from .soak import (
    SoakConfig,
    default_chaos_plan,
    render_soak_report,
    run_soak,
    run_soak_sync,
)
from .supervisor import (
    BatchItem,
    BoundedLog,
    CompileService,
    RetryPolicy,
    ServiceStats,
)
from .worker import WorkerLimits

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "FsckIssue",
    "FsckReport",
    "LRUStats",
    "LRUTier",
    "cache_key",
    "code_fingerprint",
    "CheckpointStore",
    "FileCheckpointer",
    "SaturationState",
    "saturation_key",
    "CompileGateway",
    "GatewayConfig",
    "GatewayStats",
    "TenantPolicy",
    "SoakConfig",
    "default_chaos_plan",
    "render_soak_report",
    "run_soak",
    "run_soak_sync",
    "BatchItem",
    "BoundedLog",
    "CompileService",
    "RetryPolicy",
    "ServiceStats",
    "WorkerLimits",
]
