"""Sketch-guided phased saturation (DESIGN.md §13).

Splits one monolithic equality-saturation run into an ordered sequence
of *phases* -- each with its own rule subset, iteration budget, and
goal sketch -- extracting and re-seeding a fresh e-graph between
phases.  This is the repo's rendering of *Sketch-Guided Equality
Saturation* (PAPERS.md) and the mechanism that compiles kernels whose
monolithic runs blow the node budget (2DConv 8x8/4x4, MatMul 16x16;
see EXPERIMENTS.md).

* :mod:`.sketch`  -- the goal-sketch DSL (shape predicates over a
  program's operator histogram).
* :mod:`.plan`    -- :class:`PhasePlan` / :class:`Phase` and the
  shipped :func:`default_plan`, the one plan the compiler runs.
* :mod:`.execute` -- the executor wiring phases through the existing
  ``Runner``, with per-phase crash-recoverable checkpoints and
  observability.
"""

from .sketch import All, Contains, NoneOf, Not, Sketch, op_counts
from .plan import ON_MISS_POLICIES, Phase, PhasePlan, default_plan
from .execute import (
    PhaseExecution,
    PhaseReport,
    PhaseRoundReport,
    PlanReport,
    SketchBiasedCost,
    execute_plan,
)

__all__ = [
    "Sketch",
    "Contains",
    "NoneOf",
    "Not",
    "All",
    "op_counts",
    "ON_MISS_POLICIES",
    "Phase",
    "PhasePlan",
    "default_plan",
    "SketchBiasedCost",
    "PhaseRoundReport",
    "PhaseReport",
    "PlanReport",
    "PhaseExecution",
    "execute_plan",
]
