"""Crash-recoverable saturation checkpoints.

*Sketch-Guided Equality Saturation* (PAPERS.md) argues that monolithic
saturation runs are fragile and should be resumable; this module makes
our runner's end-of-iteration state **survive the process that took
it**.  A crashing *rule* needs no snapshot: the runner records the
failure and rebuilds its graph into a consistent state.  A
:class:`FileCheckpointer` protects against a dying *worker*: the
supervisor's retry after a ``WorkerCrashError`` /
``WorkerTimeoutError`` resumes saturation from the last persisted
iteration instead of iteration 0, and the resumed run's extraction is
byte-identical to an uninterrupted run (asserted by
``tests/test_checkpoint_resume.py``).

A checkpoint file is the artifact cache's record format
(:func:`repro.service.cache.write_record`): a content-keyed file name,
atomic temp-file + rename publication with a directory fsync, an
embedded SHA-256 checksum and code version, and a read path where
*every* failure mode degrades to "no checkpoint" (counted), never a
crash or a wrong resume.

The content key (:func:`saturation_key`) covers the spec, the code
version, and every option that changes what saturation *computes* --
but deliberately **excludes** the shrinking budgets (``node_limit``,
``time_limit``) and the differential ``seed``, because the supervisor's
retry policy shrinks exactly those: a retry at a smaller budget must
still find the checkpoint its bigger predecessor wrote.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from .cache import (
    _options_digest,
    code_fingerprint,
    read_record,
    spec_fingerprint,
    sweep,
    write_record,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compiler import CompileOptions
    from ..egraph.egraph import EGraph
    from ..egraph.runner import IterationReport
    from ..egraph.scheduler import RuleStats
    from ..frontend.lift import Spec

__all__ = [
    "CHECKPOINT_SCHEMA",
    "SaturationState",
    "CheckpointStats",
    "FileCheckpointer",
    "CheckpointStore",
    "saturation_key",
    "phase_saturation_key",
]

CHECKPOINT_SCHEMA = "repro-satckpt-v1"
_SUFFIX = ".satckpt"

#: ``CompileOptions`` fields excluded from the checkpoint key: the
#: retry policy shrinks the budgets and shifts the seed between
#: attempts, ``iter_limit`` does not change what iteration N produces
#: (see :func:`saturation_key`), and the remainder configure
#: observability / recovery plumbing, not the saturation trajectory.
_KEY_EXCLUDED = (
    "node_limit",
    "time_limit",
    "seed",
    "observability",
    "checkpoint_dir",
    "deadline",
    "validate",
    "track_memory",
    "iter_limit",
)


@dataclass
class SaturationState:
    """Everything a runner needs to continue a saturation run exactly
    where a dead predecessor left off.

    ``egraph`` is the consistent post-rebuild graph; ``applied_keys``
    the cross-iteration match-dedup set; ``rule_stats`` the scheduler's
    per-rule cursors and ban state.  All three are restored together:
    the continuation then searches, dedups, bans, and saturates exactly
    as the uninterrupted run would have (this is what makes the resumed
    extraction byte-identical)."""

    next_iteration: int
    egraph: "EGraph"
    applied_keys: set
    rule_stats: Dict[str, "RuleStats"]
    iterations: List["IterationReport"] = field(default_factory=list)
    schema: str = CHECKPOINT_SCHEMA


@dataclass
class CheckpointStats:
    """Counters for one checkpointer (surfaced in diagnostics/tests)."""

    saves: int = 0
    save_failures: int = 0
    loads: int = 0
    misses: int = 0
    corrupt: int = 0
    deletes: int = 0


class FileCheckpointer:
    """Atomic, checksummed persistence of one saturation run's state.

    The write path must never turn a healthy compile into a failure:
    any save error (disk full, unpicklable rule residue, a chaos-
    injected ``ENOSPC``) is swallowed into ``stats.save_failures`` and
    the run simply continues without that checkpoint.  The read path
    treats any integrity failure as "no checkpoint" and quarantines
    the corrupt file so it cannot mis-count again.
    """

    def __init__(self, path: str, key: str) -> None:
        self.path = path
        self.key = key
        self.stats = CheckpointStats()

    # ------------------------------------------------------------ write

    def save(self, state: SaturationState) -> bool:
        try:
            write_record(
                self.path, self.key, code_fingerprint(),
                pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL),
                "checkpoint.write", next_iteration=state.next_iteration,
            )
        except Exception:
            self.stats.save_failures += 1
            return False
        self.stats.saves += 1
        return True

    # ------------------------------------------------------------- read

    def load(self) -> Optional[SaturationState]:
        try:
            state = read_record(
                self.path, self.key, code_fingerprint(), "checkpoint.read",
                lambda value: isinstance(value, SaturationState),
            )
        except ValueError:
            self.stats.corrupt += 1
            return None
        if state is None:
            self.stats.misses += 1
            return None
        self.stats.loads += 1
        return state

    # ------------------------------------------------------- management

    def delete(self) -> None:
        """Remove the checkpoint (a completed run consumed it)."""
        try:
            os.unlink(self.path)
            self.stats.deletes += 1
        except OSError:
            pass

    def exists(self) -> bool:
        return os.path.exists(self.path)


class CheckpointStore:
    """Directory of content-keyed saturation checkpoints."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    def checkpointer_for(
        self, spec: "Spec", options: "CompileOptions"
    ) -> FileCheckpointer:
        key = saturation_key(spec, options)
        return FileCheckpointer(os.path.join(self.root, key + _SUFFIX), key)

    def checkpointer_for_phase(
        self,
        spec: "Spec",
        options: "CompileOptions",
        plan_fingerprint: str,
        phase_index: int,
        round_index: int,
    ) -> FileCheckpointer:
        key = phase_saturation_key(
            spec, options, plan_fingerprint, phase_index, round_index
        )
        return FileCheckpointer(os.path.join(self.root, key + _SUFFIX), key)

    def entries(self) -> List[str]:
        return sorted(
            name for name in os.listdir(self.root) if name.endswith(_SUFFIX)
        )

    def clear(self) -> int:
        return sweep(self.root, _SUFFIX)


def saturation_key(spec: "Spec", options: "CompileOptions") -> str:
    """Content key of one saturation trajectory.

    Everything that changes which e-graph iteration N produces is in;
    the retry-shrunk budgets and post-saturation knobs are out (see the
    module docstring).  ``iter_limit`` is also excluded: a checkpoint
    taken at iteration K is a valid resume point for *any* iteration
    budget -- a shrunk retry with ``iter_limit < K`` simply extracts
    from the restored graph immediately.
    """
    joined = "|".join(
        (
            CHECKPOINT_SCHEMA,
            code_fingerprint(),
            spec_fingerprint(spec),
            _options_digest(options, _KEY_EXCLUDED),
        )
    )
    return hashlib.sha256(joined.encode()).hexdigest()


def phase_saturation_key(
    spec: "Spec",
    options: "CompileOptions",
    plan_fingerprint: str,
    phase_index: int,
    round_index: int,
) -> str:
    """Content key for one *phase round* of a phased saturation run.

    Phased compilation runs several saturations per compile, each
    seeded from the previous phase's extracted term.  Every one needs
    its own checkpoint identity: a resume that replayed a phase-1
    checkpoint into a phase-2 graph would restore the wrong trajectory
    and silently diverge from the uninterrupted run.  The key therefore
    extends the base :func:`saturation_key` with

    * the **plan fingerprint** -- editing the plan (budgets, sketches,
      rule tags) invalidates every phase checkpoint at once;
    * the **phase index** -- a phase only ever resumes itself;
    * the **extend-round index** -- rounds within a phase re-seed fresh
      graphs, so a round-2 checkpoint is just as wrong for round 3 as a
      phase-1 checkpoint is for phase 2.

    Everything upstream of a crashed phase round is recomputed
    deterministically on resume (the executor re-runs completed phases
    from the original spec; each re-run saturates identically), so the
    interrupted round's checkpoint is the only state that must survive
    -- and this key guarantees it is found by exactly that round.
    """
    joined = "|".join(
        (
            saturation_key(spec, options),
            "phase",
            plan_fingerprint,
            str(phase_index),
            str(round_index),
        )
    )
    return hashlib.sha256(joined.encode()).hexdigest()
