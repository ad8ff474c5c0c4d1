"""Rewrite rules: syntactic and custom (searcher/applier pairs).

egg structures a rewrite as a *searcher* that finds places the rule can
fire plus an *applier* that adds the right-hand side and unions it with
the matched class (paper Section 3.3).  We mirror that split:

* :class:`SyntacticRewrite` -- both sides are patterns; covers the
  scalar simplification rules and simple vector identities.
* :class:`CustomRewrite` -- the searcher is arbitrary Python producing
  :class:`Match` objects whose ``build`` callback constructs the RHS
  directly in the e-graph.  Diospyros's per-lane vectorization rules
  (zero-aware binary ops, the multiply–accumulate matcher of
  Section 3.3) need this generality: their left-hand sides cannot be
  expressed as a single pattern without enumerating every permutation
  of zero lanes.

Rules may carry a *guard* predicate over the substitution, used for
conditional rewrites (e.g. ``(/ ?a ?a) => 1`` only when ``?a`` is known
non-zero is *not* sound in general, so we simply do not ship that rule;
guards are still useful for things like "only fire on vectors of
machine width").

Rules additionally carry a frozenset of *tags* ("scalar", "vectorize",
"mac", ...).  Tags are how the phase planner (``repro.phases``) names
rule subsets declaratively: a phase lists the tags it wants and the
ruleset builder keeps only rules whose tag set intersects it.  Untagged
rules are considered phase-neutral and survive every filter.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, List, Optional, Tuple, Union

from .egraph import EGraph
from .pattern import (
    MatchCounters,
    Pattern,
    Subst,
    instantiate,
    matcher_for,
    pattern,
    pattern_vars,
    run_matcher,
)
from .scheduler import Deadline

__all__ = [
    "Match",
    "Rewrite",
    "SearchContext",
    "SyntacticRewrite",
    "CustomRewrite",
    "rewrite",
    "birewrite",
]


class Match:
    """One place a rule can fire.

    ``eclass`` is the matched class; ``build`` adds the replacement to
    the e-graph and returns its class id, which the runner unions with
    ``eclass``.  Keeping construction in a callback means searching
    never mutates the graph -- all rules in an iteration search the same
    frozen graph, eliminating rule-order bias (the phase-ordering
    problem the paper sets out to avoid).

    ``dedup_key`` optionally identifies the match's *effect*: two
    matches of one rule with equal keys build the same RHS and union it
    with the same class.  The runner keeps a seen-set of applied keys
    so a saturated rule stops paying apply+union cost for no-op
    rebuilds.  A key is a pair ``(ids, extra)``: ``ids`` is a flat tuple
    of e-class ids, canonicalized before comparison, and ``extra`` is a
    small hashable holding everything else (sentinels, flags, widths),
    compared verbatim.  Keep ``extra`` free of string hashing and
    cheap to store: the runner keeps one key per applied match.
    ``None`` disables deduplication for the match.
    """

    __slots__ = ("eclass", "build", "rule_name", "dedup_key")

    def __init__(
        self,
        eclass: int,
        build: Callable[[EGraph], Optional[int]],
        rule_name: str = "",
        dedup_key: Optional[Tuple[Tuple[int, ...], Hashable]] = None,
    ) -> None:
        self.eclass = eclass
        self.build = build
        self.rule_name = rule_name
        self.dedup_key = dedup_key

    def __repr__(self) -> str:
        return (
            f"Match(eclass={self.eclass!r}, rule_name={self.rule_name!r}, "
            f"dedup_key={self.dedup_key!r})"
        )


@dataclass
class SearchContext:
    """Everything a searcher may consult while searching.

    * ``since`` -- e-graph tick high-water mark: only classes whose
      subtree changed after it can yield *new* matches (``None`` means
      scan everything).
    * ``deadline`` -- cooperative wall-clock budget.
    * ``counters`` -- visited/skipped/completed instrumentation; a
      searcher that honours ``since`` should route its candidate
      enumeration through :meth:`EGraph.classes_with_op`/
      :meth:`EGraph.dirty_class_ids` (which credit the counters), and
      clear ``counters.completed`` when it stops early on deadline.
    """

    since: Optional[int] = None
    deadline: Optional[Deadline] = None
    counters: MatchCounters = field(default_factory=MatchCounters)


class Rewrite:
    """Base class: a named source of matches.

    ``search`` takes an optional cooperative :class:`Deadline`: a
    searcher should poll it periodically and return the matches found
    so far once it expires, so one explosive rule cannot blow past the
    runner's wall-clock budget (the runner previously only checked time
    *between* rules).  Honouring the deadline is best-effort -- a
    searcher that ignores it is still correct, just less responsive.
    """

    def __init__(self, name: str, tags: Iterable[str] = ()) -> None:
        self.name = name
        #: Phase-planner labels.  Empty means "phase-neutral": the rule
        #: is included no matter which tag subset a phase asks for.
        self.tags = frozenset(tags)

    def has_any_tag(self, wanted: Iterable[str]) -> bool:
        """True when this rule belongs to a phase selecting ``wanted``.

        Untagged rules belong to every phase (they are extension rules
        the planner knows nothing about; dropping them silently would
        change semantics behind the user's back)."""
        if not self.tags:
            return True
        return bool(self.tags.intersection(wanted))

    def search(
        self,
        egraph: EGraph,
        deadline: Optional[Deadline] = None,
        since: Optional[int] = None,
        counters: Optional[MatchCounters] = None,
    ) -> List[Match]:
        """Find matches.  ``since``/``counters`` enable dirty-set
        incremental searching (see :class:`SearchContext`); honouring
        them is best-effort -- a searcher that ignores ``since`` simply
        re-reports old matches, which the runner deduplicates."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class SyntacticRewrite(Rewrite):
    """``lhs => rhs`` where both sides are patterns.

    Every variable on the right must be bound on the left.  An optional
    ``guard(egraph, subst)`` can veto individual matches.
    """

    def __init__(
        self,
        name: str,
        lhs: Union[str, Pattern],
        rhs: Union[str, Pattern],
        guard: Optional[Callable[[EGraph, Subst], bool]] = None,
        tags: Iterable[str] = (),
    ) -> None:
        super().__init__(name, tags)
        self.lhs = pattern(lhs)
        self.rhs = pattern(rhs)
        self.guard = guard
        missing = set(pattern_vars(self.rhs)) - set(pattern_vars(self.lhs))
        if missing:
            raise ValueError(
                f"rewrite {name!r}: RHS variables {sorted(missing)} unbound by LHS"
            )
        #: Every match binds exactly these names; a match's dedup key
        #: lists its bindings in this fixed order.
        self._key_vars = tuple(sorted(pattern_vars(self.lhs)))
        #: The left-hand side's matcher per deadline variant (polled or
        #: not), resolved on first use; see :meth:`_matcher`.
        self._generated: dict = {}

    def __getstate__(self) -> dict:
        # Generated matchers are compiled per process and do not pickle.
        return {**self.__dict__, "_generated": {}}

    def _matcher(self, polled: bool):
        """The left-hand side's :func:`matcher_for`, resolved once per
        deadline variant instead of looked up by pattern per search."""
        try:
            return self._generated[polled]
        except KeyError:
            found = self._generated[polled] = matcher_for(self.lhs, polled)
            return found

    def search(
        self,
        egraph: EGraph,
        deadline: Optional[Deadline] = None,
        since: Optional[int] = None,
        counters: Optional[MatchCounters] = None,
    ) -> List[Match]:
        matches: List[Match] = []
        polled = deadline is not None and deadline.at is not None
        found = run_matcher(
            egraph, self.lhs, self._matcher(polled), deadline, since, counters
        )
        key_vars = self._key_vars
        for eclass_id, subst in found:
            if self.guard is not None and not self.guard(egraph, subst):
                continue
            rhs = self.rhs

            def build(eg: EGraph, _subst: Subst = subst, _rhs: Pattern = rhs) -> int:
                return instantiate(eg, _rhs, _subst)

            ids = (eclass_id, *map(subst.__getitem__, key_vars))
            matches.append(Match(eclass_id, build, self.name, (ids, None)))
        return matches


class CustomRewrite(Rewrite):
    """A rule whose searcher is an arbitrary function of the e-graph.

    ``searcher(egraph)`` returns an iterable of :class:`Match`.  This is
    the hook the vectorization rules use (paper Section 3.3's "custom
    searchers and appliers").

    Searchers declared with a second parameter -- ``searcher(egraph,
    ctx)`` -- receive a :class:`SearchContext` and may use its
    ``since`` cutoff to scan only dirtied classes.  One-parameter
    searchers are always given the whole graph (they simply re-report
    old matches, which the runner deduplicates), so existing custom
    rules keep working unchanged.
    """

    def __init__(
        self,
        name: str,
        searcher: Callable[..., Iterable[Match]],
        tags: Iterable[str] = (),
    ) -> None:
        super().__init__(name, tags)
        self._searcher = searcher
        self._takes_context = self._accepts_context(searcher)

    @staticmethod
    def _accepts_context(searcher: Callable) -> bool:
        try:
            params = list(inspect.signature(searcher).parameters.values())
        except (TypeError, ValueError):  # builtins / exotic callables
            return False
        positional = [
            p
            for p in params
            if p.kind
            in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD, p.VAR_POSITIONAL)
        ]
        if any(p.kind == p.VAR_POSITIONAL for p in positional):
            return True
        return len(positional) >= 2

    def search(
        self,
        egraph: EGraph,
        deadline: Optional[Deadline] = None,
        since: Optional[int] = None,
        counters: Optional[MatchCounters] = None,
    ) -> List[Match]:
        counters = counters if counters is not None else MatchCounters()
        if self._takes_context:
            ctx = SearchContext(since=since, deadline=deadline, counters=counters)
            produced = self._searcher(egraph, ctx)
        else:
            produced = self._searcher(egraph)
        matches: List[Match] = []
        # The searcher is arbitrary user code; polling the deadline
        # between yielded matches lets even generator-style searchers
        # cooperate without knowing about deadlines themselves.  A
        # deadline that can never expire is not polled.
        polled = deadline is not None and deadline.at is not None
        check_every = 16
        for i, m in enumerate(produced):
            m.rule_name = m.rule_name or self.name
            matches.append(m)
            if polled and i % check_every == 0 and deadline.expired():
                # Truncated: the cursor must not advance past the
                # unseen candidates.
                counters.completed = False
                break
        return matches


def rewrite(
    name: str,
    lhs: Union[str, Pattern],
    rhs: Union[str, Pattern],
    guard: Optional[Callable[[EGraph, Subst], bool]] = None,
    tags: Iterable[str] = (),
) -> SyntacticRewrite:
    """Convenience constructor for a one-directional syntactic rule."""
    return SyntacticRewrite(name, lhs, rhs, guard, tags=tags)


def birewrite(
    name: str,
    lhs: Union[str, Pattern],
    rhs: Union[str, Pattern],
    tags: Iterable[str] = (),
) -> List[SyntacticRewrite]:
    """A bidirectional rule ``lhs <=> rhs`` (two one-directional rules).

    The paper writes these with a double-headed arrow, e.g. the fused
    multiply–accumulate rule ``(VecAdd a (VecMul b c)) <=> (VecMAC a b c)``.
    """
    return [
        SyntacticRewrite(name, lhs, rhs, tags=tags),
        SyntacticRewrite(name + "-rev", rhs, lhs, tags=tags),
    ]
