"""E-graphs and equality saturation (our reimplementation of the core
of egg [Willsey et al. 2021] that Diospyros builds on).

* :mod:`repro.egraph.unionfind` -- disjoint sets.
* :mod:`repro.egraph.egraph`    -- hashconsed e-graph with deferred
  congruence rebuilding.
* :mod:`repro.egraph.pattern`   -- pattern language and e-matching.
* :mod:`repro.egraph.rewrite`   -- syntactic and custom rewrites.
* :mod:`repro.egraph.scheduler` -- egg-style backoff rule scheduling
  and cooperative deadlines.
* :mod:`repro.egraph.runner`    -- the saturation loop with limits,
  watchdogs, and fault tolerance.
* :mod:`repro.egraph.extract`   -- monotonic-cost extraction.
"""

from .egraph import EClass, EGraph, ENode
from .extract import CostFunction, ExtractionResult, Extractor
from .pattern import (
    MatchCounters,
    PNode,
    PVar,
    Subst,
    ematch,
    instantiate,
    match_in_class,
    pattern,
)
from .rewrite import (
    CustomRewrite,
    Match,
    Rewrite,
    SearchContext,
    SyntacticRewrite,
    birewrite,
    rewrite,
)
from .runner import IterationReport, RunReport, Runner, StopReason
from .scheduler import BackoffScheduler, Deadline, RuleStats
from .unionfind import UnionFind

__all__ = [
    "EClass",
    "EGraph",
    "ENode",
    "CostFunction",
    "ExtractionResult",
    "Extractor",
    "MatchCounters",
    "PNode",
    "PVar",
    "Subst",
    "ematch",
    "instantiate",
    "match_in_class",
    "pattern",
    "CustomRewrite",
    "Match",
    "Rewrite",
    "SearchContext",
    "SyntacticRewrite",
    "birewrite",
    "rewrite",
    "IterationReport",
    "RunReport",
    "Runner",
    "StopReason",
    "BackoffScheduler",
    "Deadline",
    "RuleStats",
    "UnionFind",
]
