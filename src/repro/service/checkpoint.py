"""Crash-recoverable saturation checkpoints.

*Sketch-Guided Equality Saturation* (PAPERS.md) argues that monolithic
saturation runs are fragile and should be resumable; this module makes
our runner's end-of-iteration checkpoint **survive the process that
took it**.  The in-memory snapshot (``Runner.checkpoint``) protects
against a crashing *rule*; a :class:`FileCheckpointer` additionally
protects against a dying *worker*: the supervisor's retry after a
``WorkerCrashError`` / ``WorkerTimeoutError`` resumes saturation from
the last persisted iteration instead of iteration 0, and the resumed
run's extraction is byte-identical to an uninterrupted run (asserted
by ``tests/test_checkpoint_resume.py``).

Layout mirrors the artifact cache's durability contract: content-keyed
file names, atomic temp-file + ``os.replace`` publication, an embedded
SHA-256 checksum, and a read path where *every* failure mode degrades
to "no checkpoint" (counted), never a crash or a wrong resume.

The content key (:func:`saturation_key`) covers the spec, the code
version, and every option that changes what saturation *computes* --
but deliberately **excludes** the shrinking budgets (``node_limit``,
``time_limit``) and the differential ``seed``, because the supervisor's
retry policy shrinks exactly those: a retry at a smaller budget must
still find the checkpoint its bigger predecessor wrote.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..chaos.inject import chaos_point
from .cache import code_fingerprint, spec_fingerprint

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
_MAGIC = b"RPROCKPT1\n"
_SUFFIX = ".satckpt"

#: ``CompileOptions`` fields excluded from the checkpoint key: the
#: retry policy shrinks the budgets and shifts the seed between
#: attempts, and the remainder configure observability / recovery
#: plumbing, not the saturation trajectory.
_KEY_EXCLUDED = (
    "node_limit",
    "time_limit",
    "seed",
    "observability",
    "checkpoint_dir",
    "deadline",
    "validate",
    "track_memory",
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
            chaos_point("checkpoint.write")
            payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            header = json.dumps(
                {
                    "schema": CHECKPOINT_SCHEMA,
                    "key": self.key,
                    "next_iteration": state.next_iteration,
                    "sha256": hashlib.sha256(payload).hexdigest(),
                },
                sort_keys=True,
            ).encode()
            blob = _MAGIC + header + b"\n" + payload
            directory = os.path.dirname(self.path) or "."
            fd, tmp_path = tempfile.mkstemp(
                prefix=".tmp-" + os.path.basename(self.path), dir=directory
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except Exception:
            self.stats.save_failures += 1
            return False
        self.stats.saves += 1
        return True

    # ------------------------------------------------------------- read

    def load(self) -> Optional[SaturationState]:
        try:
            with open(self.path, "rb") as handle:
                blob = handle.read()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            blob = chaos_point("checkpoint.read", blob)
            state = self._decode(blob)
        except Exception:
            self.stats.corrupt += 1
            self._quarantine()
            return None
        self.stats.loads += 1
        return state

    def _decode(self, blob: bytes) -> SaturationState:
        if not blob.startswith(_MAGIC):
            raise ValueError("bad magic")
        rest = blob[len(_MAGIC):]
        newline = rest.index(b"\n")
        header = json.loads(rest[:newline].decode())
        payload = rest[newline + 1:]
        if header.get("schema") != CHECKPOINT_SCHEMA:
            raise ValueError("schema mismatch")
        if header.get("key") != self.key:
            raise ValueError("key mismatch")
        if header.get("sha256") != hashlib.sha256(payload).hexdigest():
            raise ValueError("checksum mismatch")
        state = pickle.loads(payload)
        if not isinstance(state, SaturationState):
            raise ValueError("payload is not a SaturationState")
        return state

    def _quarantine(self) -> None:
        try:
            os.replace(self.path, self.path + ".corrupt")
        except OSError:
            try:
                os.unlink(self.path)
            except OSError:
                pass

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
        removed = 0
        for name in os.listdir(self.root):
            if (
                name.endswith(_SUFFIX)
                or name.endswith(".corrupt")
                or name.startswith(".tmp-")
            ):
                try:
                    os.unlink(os.path.join(self.root, name))
                    removed += 1
                except OSError:
                    pass
        return removed


def saturation_key(spec: "Spec", options: "CompileOptions") -> str:
    """Content key of one saturation trajectory.

    Everything that changes which e-graph iteration N produces is in;
    the retry-shrunk budgets and post-saturation knobs are out (see the
    module docstring).  ``iter_limit`` is also excluded: a checkpoint
    taken at iteration K is a valid resume point for *any* iteration
    budget -- a shrunk retry with ``iter_limit < K`` simply extracts
    from the restored graph immediately.
    """
    payload: Dict[str, Any] = {}
    for key, value in sorted(vars(options).items()):
        if key in _KEY_EXCLUDED or key == "iter_limit":
            continue
        if key == "extra_rules":
            value = [getattr(r, "name", repr(r)) for r in value]
        payload[key] = value
    text = json.dumps(payload, sort_keys=True, default=repr)
    joined = "|".join(
        (
            CHECKPOINT_SCHEMA,
            code_fingerprint(),
            spec_fingerprint(spec),
            hashlib.sha256(text.encode()).hexdigest(),
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
