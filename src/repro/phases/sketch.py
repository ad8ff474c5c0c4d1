"""Goal sketches: shape predicates over DSL terms.

*Sketch-Guided Equality Saturation* (PAPERS.md) steers each phase of a
phased saturation run toward a *sketch* -- a partial description of
what the program should look like after the phase ("contains a
``VecMAC``", "no scalar ``*`` left").  This module is the sketch
language: small, picklable combinator objects with

* :meth:`Sketch.satisfied` -- does an extracted program meet the goal?
* :meth:`Sketch.score`     -- how close is it, in ``[0, 1]``?  The
  executor records the score per phase round.
* :meth:`Sketch.required_ops` / :meth:`Sketch.forbidden_ops` -- the
  operator hints the phase executor turns into an extraction bias
  (reward the ops the sketch wants present, penalize the ops it wants
  gone), so the *extractor* pulls the e-graph toward the sketch even
  when the cost model alone would prefer a pre-phase shape.

Every sketch reads only the program's operator histogram
(:func:`op_counts`), so the executor counts a round's extracted node
list once and hands the counts to every sketch it checks.

Sketches are deliberately plain classes (no lambdas, no closures):
they ride inside ``PhasePlan`` through pickle across the worker
boundary and into checkpoint keys, so they need structural ``repr``/
equality and nothing process-local.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, Sequence, Tuple

from ..egraph.egraph import ENode

__all__ = [
    "Sketch",
    "Contains",
    "NoneOf",
    "Not",
    "All",
    "op_counts",
]


def op_counts(nodes: Sequence[ENode]) -> Dict[str, int]:
    """Operator histogram of a program's node list
    (:meth:`repro.egraph.extract.Extractor.extract`,
    :func:`repro.egraph.egraph.flatten_term`), which holds each distinct
    subterm once: DAG nodes, not tree occurrences."""
    return dict(Counter(node.op for node in nodes))


class Sketch:
    """Base sketch.  Subclasses are immutable and compare by repr.

    ``counts`` is a program's :func:`op_counts` histogram."""

    def satisfied(self, counts: Dict[str, int]) -> bool:
        return self.score(counts) >= 1.0

    def score(self, counts: Dict[str, int]) -> float:
        raise NotImplementedError

    def required_ops(self) -> FrozenSet[str]:
        """Ops whose *presence* this sketch asks for (bias: reward)."""
        return frozenset()

    def forbidden_ops(self) -> FrozenSet[str]:
        """Ops whose *absence* this sketch asks for (bias: penalize)."""
        return frozenset()

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash(repr(self))


class Contains(Sketch):
    """The term contains at least one node with operator ``op``."""

    def __init__(self, op: str) -> None:
        self.op = op

    def score(self, counts: Dict[str, int]) -> float:
        return 1.0 if counts.get(self.op, 0) > 0 else 0.0

    def required_ops(self) -> FrozenSet[str]:
        return frozenset((self.op,))

    def __repr__(self) -> str:
        return f"Contains({self.op!r})"


class NoneOf(Sketch):
    """No node anywhere in the term uses any of ``ops``.

    This is the workhorse goal of cleanup-style phases ("no scalar
    arithmetic left").  The score decays with the number of offending
    nodes so shrinking the violation set counts as progress.
    """

    def __init__(self, ops: Iterable[str]) -> None:
        self.ops: Tuple[str, ...] = tuple(sorted(set(ops)))
        if not self.ops:
            raise ValueError("NoneOf needs at least one operator")

    def score(self, counts: Dict[str, int]) -> float:
        bad = sum(counts.get(op, 0) for op in self.ops)
        return 1.0 if bad == 0 else 1.0 / (1.0 + bad)

    def forbidden_ops(self) -> FrozenSet[str]:
        return frozenset(self.ops)

    def __repr__(self) -> str:
        return f"NoneOf({list(self.ops)!r})"


class Not(Sketch):
    """Negation.  Required/forbidden hints swap sides."""

    def __init__(self, inner: Sketch) -> None:
        self.inner = inner

    def score(self, counts: Dict[str, int]) -> float:
        return 1.0 - self.inner.score(counts)

    def required_ops(self) -> FrozenSet[str]:
        return self.inner.forbidden_ops()

    def forbidden_ops(self) -> FrozenSet[str]:
        return self.inner.required_ops()

    def __repr__(self) -> str:
        return f"Not({self.inner!r})"


class All(Sketch):
    """Conjunction: satisfied when every part is; score is the mean."""

    def __init__(self, *parts: Sketch) -> None:
        if not parts:
            raise ValueError("All needs at least one part")
        self.parts: Tuple[Sketch, ...] = tuple(parts)

    def satisfied(self, counts: Dict[str, int]) -> bool:
        return all(part.satisfied(counts) for part in self.parts)

    def score(self, counts: Dict[str, int]) -> float:
        return sum(part.score(counts) for part in self.parts) / len(self.parts)

    def required_ops(self) -> FrozenSet[str]:
        return frozenset().union(*(part.required_ops() for part in self.parts))

    def forbidden_ops(self) -> FrozenSet[str]:
        return frozenset().union(*(part.forbidden_ops() for part in self.parts))

    def __repr__(self) -> str:
        inner = ", ".join(repr(p) for p in self.parts)
        return f"All({inner})"
