"""Coverage map over compiler behaviors, the fuzzer's feedback signal.

Pure random kernel generation (``repro.validation.fuzz.random_spec``,
the ``mode="random"`` campaign) samples the same easy region of program space over and over; equality-saturation
compilers break in the *rare* regions -- an explosive rule getting
banned, extraction on a node-limited graph, a three-window nested
select.  Coverage-guided fuzzing needs a cheap, deterministic notion of
"this input exercised something new".  Ours is a set of string
**features** drawn from three observation planes:

* **rule firings** -- which rewrite rules matched / applied / were
  banned, with log-bucketed match loads (from ``RunReport.rule_stats``
  and the PR-4 MetricsRegistry snapshot);
* **e-class shape signatures** -- which operator mixes coexisted in
  final e-classes (recorded by the runner into the PR-4 FlightRecorder
  as an ``egraph_shapes`` event; see ``EGraph.shape_signatures``);
* **emitted VIR opcode mix** -- which IR opcodes the backend produced,
  with log-bucketed counts, plus degradation rungs and stop reasons.

Counts are bucketed by bit length so the feature universe stays small
and saturates: a kernel only "adds coverage" when it reaches a
behavior *class* no earlier kernel reached.  All features are plain
strings, so the map serializes losslessly to JSON for the on-disk
corpus and CI artifacts.

Timing, memory, and wall-clock derived values are deliberately
excluded: the same kernel must produce the same features on any
machine, or deterministic replay (and the CI coverage gate) breaks.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Set, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..compiler import CompileResult
    from ..observability import ObservabilityData

__all__ = [
    "COVERAGE_SCHEMA",
    "CoverageMap",
    "bucket",
    "result_features",
    "observability_features",
]

COVERAGE_SCHEMA = "conformance_coverage/v1"


def bucket(count: int, cap: int = 12) -> int:
    """Log2 bucket of a non-negative count (0->0, 1->1, 2-3->2, ...),
    saturating at ``cap``.

    Bucketing keeps the feature universe finite: "this rule matched
    ~2^k times" is a behavior class, the exact count is noise.  The
    saturation cap matters for *guidance* quality -- without it,
    high-count planes become an unbounded size lottery that rewards
    whichever generator happens to produce the largest kernels, and
    the map stops distinguishing behavior from bulk.
    """
    return min(max(0, int(count)).bit_length(), cap)


class CoverageMap:
    """A growing set of observed behavior features.

    The map is insertion-order independent (it renders sorted) and
    JSON round-trippable; :meth:`add_all` reports how many features
    were new, which is the fuzzer's "keep this seed" signal.
    """

    def __init__(self, features: Optional[Iterable[str]] = None) -> None:
        self._features: Set[str] = set(features or ())

    # -- growth --------------------------------------------------------

    def add(self, feature: str) -> bool:
        """Add one feature; True when it was new."""
        if feature in self._features:
            return False
        self._features.add(feature)
        return True

    def add_all(self, features: Iterable[str]) -> int:
        """Add many features; returns the number that were new."""
        new = 0
        for feature in features:
            if feature not in self._features:
                self._features.add(feature)
                new += 1
        return new

    def novel(self, features: Iterable[str]) -> List[str]:
        """The subset of ``features`` not yet in the map (no mutation)."""
        return sorted(f for f in set(features) if f not in self._features)

    # -- queries -------------------------------------------------------

    @property
    def cardinality(self) -> int:
        return len(self._features)

    def __len__(self) -> int:
        return len(self._features)

    def __contains__(self, feature: str) -> bool:
        return feature in self._features

    def features(self) -> List[str]:
        return sorted(self._features)

    def by_plane(self) -> Dict[str, int]:
        """Feature counts grouped by their ``plane:`` prefix."""
        planes: Dict[str, int] = {}
        for feature in self._features:
            plane = feature.split(":", 1)[0]
            planes[plane] = planes.get(plane, 0) + 1
        return dict(sorted(planes.items()))

    # -- serialization -------------------------------------------------

    def to_json(self) -> Dict:
        return {
            "schema": COVERAGE_SCHEMA,
            "cardinality": self.cardinality,
            "planes": self.by_plane(),
            "features": self.features(),
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "CoverageMap":
        if payload.get("schema") != COVERAGE_SCHEMA:
            raise ValueError(
                f"coverage schema mismatch: {payload.get('schema')!r} != "
                f"{COVERAGE_SCHEMA!r}"
            )
        return cls(payload.get("features", ()))

    def dump_to(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load_from(cls, path: str) -> "CoverageMap":
        with open(path) as handle:
            return cls.from_json(json.load(handle))


# ----------------------------------------------------------------------
# Feature extraction
# ----------------------------------------------------------------------


def result_features(result: "CompileResult") -> Set[str]:
    """Every coverage feature one compilation exhibited.

    Draws on the always-present saturation report and program, plus --
    when the compile ran under an observability session -- the metrics
    registry snapshot and flight-recorder events riding on
    ``result.observability``.
    """
    features: Set[str] = set()
    report = result.report

    # Saturation plane: stop reason, iteration-count bucket, rule loads.
    features.add(f"stop:{report.stop_reason}")
    features.add(f"iters:{bucket(len(report.iterations))}")
    features.add(f"nodes:{bucket(result.egraph_nodes)}")
    for name, stats in report.rule_stats.items():
        if stats.matches:
            features.add(f"rule:{name}")
            features.add(f"rule-load:{name}:{bucket(stats.matches, cap=6)}")
        if stats.applied:
            features.add(f"rule-applied:{name}")
        if stats.times_banned:
            features.add(f"banned:{name}")

    # Backend plane: emitted VIR opcode mix.
    for opcode, count in result.program.opcode_histogram().items():
        features.add(f"opcode:{opcode}")
        features.add(f"opcode-count:{opcode}:{bucket(count)}")

    # Robustness plane: degradation rungs, retries, swallowed errors.
    for degradation in result.diagnostics.degradations:
        features.add(f"degrade:{degradation.stage}")
    for stage in result.diagnostics.retries:
        features.add(f"retry:{stage}")
    if result.diagnostics.unvalidated:
        features.add("unvalidated:true")

    if result.observability is not None:
        features |= observability_features(result.observability)
    return features


def observability_features(data: "ObservabilityData") -> Set[str]:
    """Features mined from a PR-4 observability export: flight-recorder
    events (including the ``egraph_shapes`` feed) and labelled metric
    families from the MetricsRegistry snapshot."""
    features: Set[str] = set()
    for event in data.recorder.get("events", ()):
        kind = event.get("kind", "?")
        if kind == "egraph_shapes":
            for signature in event.get("details", {}).get("signatures", ()):
                features.add(f"shape:{signature}")
        else:
            features.add(f"event:{kind}")
    for sample in data.metrics.get("samples", ()):
        name = sample.get("name", "")
        # Wall-clock and memory families are excluded wholesale: even
        # their *presence* (histogram bucket labels) is a timing
        # artifact, not a behavior class.
        if "seconds" in name or "bytes" in name:
            continue
        labels = sample.get("labels") or {}
        if labels:
            rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            features.add(f"metric:{sample['name']}{{{rendered}}}")
    return features
