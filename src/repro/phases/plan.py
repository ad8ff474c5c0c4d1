"""Phase plans: the schedule phased saturation runs.

A :class:`PhasePlan` is an ordered list of :class:`Phase` entries.
Each phase names a rewrite-rule subset by *tag* (see
``repro.rules.build_ruleset(only_tags=...)``), carries its own
iteration budget, a target :class:`~.sketch.Sketch`, and an *on-miss*
policy deciding what happens when the phase's extracted term does not
satisfy the sketch:

* ``extend`` -- re-seed a fresh e-graph from the extracted term and run
  the phase again (up to ``extend_limit`` rounds).  Because re-seeding
  resets the cumulative e-node counter and drops every non-extracted
  e-class, each round gets the phase's full node budget back -- this is
  the mechanism that lets phased runs finish kernels whose monolithic
  saturation blows the same budget.
* ``skip`` -- accept the term as-is and move on (best-effort phases).

A round whose rule crashes fails the plan whatever the policy; the
compiler's degradation ladder then falls back to the last successful
phase's term.

Node budgets are *relative*: :func:`resolve_node_limit` gives
``max(NODE_FLOOR, NODE_FACTOR * seed)``, where ``seed`` is the
cumulative node count right after the phase's input term is loaded into
a fresh e-graph.  One plan therefore scales from a 150-node kernel to a
9000-node MatMul without per-kernel tuning.  The executor caps it at
the compile's own ``node_limit``.

Plans are picklable and have a stable, content-bearing ``repr``: the
plan :meth:`~PhasePlan.fingerprint` is part of every per-phase
checkpoint key so a resume can never apply a checkpoint from a
different plan.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .sketch import All, Contains, NoneOf, Not, Sketch

__all__ = [
    "ON_MISS_POLICIES",
    "Phase",
    "PhasePlan",
    "default_plan",
    "resolve_node_limit",
]

ON_MISS_POLICIES = ("extend", "skip")

#: Scalar arithmetic operators a fully vectorized term must not contain.
SCALAR_ARITH_OPS = ("*", "+", "-", "/")

#: Relative node budget of one phase round (:func:`resolve_node_limit`).
NODE_FLOOR = 4_000
NODE_FACTOR = 1.5


def resolve_node_limit(seed_version: int) -> int:
    """The node budget for a phase seeded at ``seed_version``."""
    return max(NODE_FLOOR, int(NODE_FACTOR * seed_version))


@dataclass(frozen=True)
class Phase:
    """One saturation phase.

    ``rule_tags`` selects the rule subset (empty tuple = all rules);
    ``iter_limit`` is the per-round iteration budget.
    """

    name: str
    rule_tags: Tuple[str, ...] = ()
    iter_limit: int = 10
    sketch: Optional[Sketch] = None
    on_miss: str = "extend"
    extend_limit: int = 8

    def __post_init__(self) -> None:
        if self.on_miss not in ON_MISS_POLICIES:
            raise ValueError(
                f"phase {self.name!r}: on_miss must be one of "
                f"{ON_MISS_POLICIES}, got {self.on_miss!r}"
            )
        if self.iter_limit < 1:
            raise ValueError(f"phase {self.name!r}: iter_limit must be >= 1")
        if self.extend_limit < 1:
            raise ValueError(f"phase {self.name!r}: extend_limit must be >= 1")
        # Canonicalize the tag order so repr (and hence the plan
        # fingerprint) is independent of how the tuple was written.
        object.__setattr__(self, "rule_tags", tuple(sorted(self.rule_tags)))

    def __repr__(self) -> str:
        return (
            f"Phase({self.name!r}, tags={list(self.rule_tags)!r}, "
            f"iters={self.iter_limit}, sketch={self.sketch!r}, "
            f"on_miss={self.on_miss!r}, extends={self.extend_limit})"
        )


@dataclass(frozen=True)
class PhasePlan:
    """An ordered sequence of phases with a content fingerprint."""

    name: str
    phases: Tuple[Phase, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError(f"plan {self.name!r} has no phases")
        object.__setattr__(self, "phases", tuple(self.phases))

    def fingerprint(self) -> str:
        """Content digest of the plan (part of every phase checkpoint
        key: resuming under an edited plan must miss cleanly)."""
        return hashlib.sha256(repr(self).encode()).hexdigest()[:16]

    def __repr__(self) -> str:
        inner = ", ".join(repr(p) for p in self.phases)
        return f"PhasePlan({self.name!r}, [{inner}])"


def default_plan(width: int = 4) -> PhasePlan:
    """The shipped 3-phase schedule: layout -> vectorize -> cleanup.

    Mirrors the progression the paper's monolithic run discovers
    implicitly, but with per-phase budgets:

    1. **layout** -- scalar normalization plus list splitting.  The goal
       sketch asks for the ``Concat``-of-``Vec`` overlay and *no*
       remaining ``List`` spine; its required/forbidden ops bias the
       extraction, which matters because the plain cost model prefers
       the scalar ``List`` form whenever the split introduced zero
       padding (e.g. 2DConv's 121-element output at width 4).
    2. **vectorize** -- lane-wise fusion into ``VecMAC``/``VecMul``
       chains.  This is the explosive phase; the extend policy keeps
       re-seeding from the best term so far until no scalar arithmetic
       remains, each round with a fresh node budget.
    3. **cleanup** -- scalar simplification and vector identities over
       the final shape (zero-lane elimination, MAC re-fusion); a miss
       here is acceptable, hence ``skip``.
    """
    no_scalar_arith = NoneOf(SCALAR_ARITH_OPS)
    return PhasePlan(
        name=f"default-w{width}",
        phases=(
            Phase(
                name="layout",
                rule_tags=("scalar", "split"),
                iter_limit=8,
                sketch=All(
                    Contains("Concat"), Contains("Vec"), Not(Contains("List"))
                ),
                on_miss="extend",
                extend_limit=2,
            ),
            Phase(
                name="vectorize",
                rule_tags=("vectorize", "mac", "vector-identity"),
                iter_limit=12,
                sketch=no_scalar_arith,
                on_miss="extend",
                extend_limit=8,
            ),
            Phase(
                name="cleanup",
                rule_tags=("scalar", "vector-identity"),
                iter_limit=8,
                sketch=no_scalar_arith,
                on_miss="skip",
                extend_limit=1,
            ),
        ),
    )

