"""Rule scheduling and cooperative deadlines for the saturation loop.

egg ships a ``BackoffScheduler`` that protects saturation from
match-explosive rules: each rule gets a per-iteration match budget, and
a rule that overflows it is *banned* for a number of iterations, with
both the budget and the ban length growing exponentially on every
overflow (the mechanism Sketch-Guided Equality Saturation identifies
as essential for taming search blow-up).  This module reproduces that
scheduler for our runner, replacing the earlier naive head-truncation
``match_limit``.

Two pieces live here:

* :class:`Deadline` -- a cooperative wall-clock budget the runner
  threads through ``Rewrite.search`` so that long-running e-matching
  yields *mid-rule* instead of only between rules.
* :class:`BackoffScheduler` -- egg's scheduler protocol: the runner
  asks the scheduler to search each rule, and asks ``can_stop`` before
  declaring saturation (a run with banned rules has not truly
  saturated; egg fast-forwards the bans and keeps going, and so do
  we).

Per-rule statistics (:class:`RuleStats`) are surfaced in
:class:`repro.egraph.runner.RunReport` so Table 1 style sweeps can see
which rules were throttled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .egraph import EGraph
    from .rewrite import Match, Rewrite

__all__ = ["Deadline", "RuleStats", "BackoffScheduler"]


class Deadline:
    """A cooperative wall-clock deadline.

    Searchers receive one and are expected to poll :meth:`expired`
    periodically, returning whatever partial results they have when it
    fires.  ``Deadline(None)`` never expires, so call sites need no
    conditionals.
    """

    __slots__ = ("at",)

    def __init__(self, at: Optional[float] = None) -> None:
        self.at = at

    @classmethod
    def after(cls, seconds: Optional[float]) -> "Deadline":
        """A deadline ``seconds`` from now (never, when ``None``)."""
        if seconds is None:
            return cls(None)
        return cls(time.perf_counter() + seconds)

    def expired(self) -> bool:
        return self.at is not None and time.perf_counter() >= self.at

    def remaining(self) -> float:
        if self.at is None:
            return float("inf")
        return self.at - time.perf_counter()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.at is None:
            return "Deadline(never)"
        return f"Deadline(in {self.remaining():.3f}s)"


@dataclass
class RuleStats:
    """Per-rule scheduling statistics (egg's ``RuleStats``)."""

    #: Total matches the rule's searcher returned across the run.
    matches: int = 0
    #: Matches the scheduler let through to the apply phase.
    applied: int = 0
    #: Searches skipped because the rule was banned.
    skipped: int = 0
    #: How many times the rule has been banned (drives the exponential
    #: growth of both threshold and ban length).
    times_banned: int = 0
    #: First iteration index at which the rule may fire again.
    banned_until: int = 0
    #: Wall-clock seconds spent inside the rule's searcher.
    search_time: float = 0.0
    #: Candidate classes actually examined by the rule's searcher.
    classes_visited: int = 0
    #: Candidate classes pruned by the dirty-set filter.
    classes_skipped: int = 0
    #: E-graph tick high-water mark: the rule has seen every change up
    #: to (and including) this tick.  0 means "never searched".
    last_search_tick: int = 0
    #: Full rescans performed (first search + periodic safeguard).
    full_rescans: int = 0
    #: Incremental searches since the last full rescan.
    searches_since_full: int = 0

    def banned_at(self, iteration: int) -> bool:
        return iteration < self.banned_until


class BackoffScheduler:
    """egg's exponential-backoff rule scheduler.

    A rule whose search yields more than ``match_limit << times_banned``
    matches in one iteration contributes nothing that iteration and is
    banned for ``ban_length << times_banned`` iterations.  Explosive
    rules (full associativity/commutativity are the canonical case,
    paper Section 3.3) therefore get geometrically rarer instead of
    drowning every iteration, while well-behaved rules run untouched.

    ``match_limit=None`` disables banning entirely -- the scheduler then
    only records statistics, which keeps the default compiler pipeline
    byte-for-byte compatible with the unscheduled behaviour.

    When ``incremental`` is set, each rule keeps a *search cursor*
    (``RuleStats.last_search_tick``): the e-graph tick up to which it
    has already seen every change.  Subsequent searches pass the cursor
    as ``since`` so the matcher only examines classes dirtied after it.
    Every ``rescan_stride`` searches the cursor is ignored once and the
    rule re-scans the whole graph -- a safety net that bounds the cost
    of any bookkeeping bug to a constant factor.  The cursor only
    advances when the search ran to completion (a deadline-truncated
    search must not skip the candidates it never reached) and when the
    matches were actually delivered to the apply phase.
    """

    def __init__(
        self,
        match_limit: Optional[int] = 1000,
        ban_length: int = 5,
        incremental: bool = False,
        rescan_stride: int = 16,
    ) -> None:
        if match_limit is not None and match_limit <= 0:
            raise ValueError("match_limit must be positive (or None)")
        if ban_length <= 0:
            raise ValueError("ban_length must be positive")
        if rescan_stride <= 0:
            raise ValueError("rescan_stride must be positive")
        self.match_limit = match_limit
        self.ban_length = ban_length
        self.stats: Dict[str, RuleStats] = {}
        self.incremental = incremental
        self.rescan_stride = rescan_stride
        #: Optional observability hook ``(kind, **details)``; the
        #: runner points this at the active session's ``record_event``
        #: so scheduling decisions (bans) land in the flight recorder.
        self.observer = None
        #: Identity of the e-graph the cursors refer to.  Cursors are
        #: meaningless across graphs (or after a rollback rewinds the
        #: tick), so we reset them whenever either changes.
        self._graph_id: Optional[int] = None
        self._last_tick: int = 0

    def rule_stats(self, rule_name: str) -> RuleStats:
        entry = self.stats.get(rule_name)
        if entry is None:
            entry = self.stats[rule_name] = RuleStats()
        return entry

    def rebind(
        self, egraph: "EGraph", stats: Optional[Dict[str, RuleStats]] = None
    ) -> None:
        """Adopt ``egraph`` (and optionally restored ``stats``) as the
        scheduler's current state *without* resetting search cursors.

        ``_check_graph`` deliberately wipes cursors when it sees an
        unfamiliar graph object, because cursors are meaningless across
        graphs.  Checkpoint/resume is the one case where they are
        meaningful: the restored graph's tick history *is* the history
        the restored cursors refer to.  Calling ``rebind`` after
        ``EGraph.restore_from`` tells the scheduler so, which keeps a
        resumed run's search order identical to an uninterrupted one.
        """
        if stats is not None:
            self.stats = stats
        self._graph_id = id(egraph)
        self._last_tick = getattr(egraph, "tick", 0)

    def rebase(self, iterations: int) -> None:
        """Shift ban expiries down by ``iterations`` consumed elsewhere.

        ``banned_until`` is an *absolute* iteration index within one
        runner's numbering.  The phase executor carries rule stats
        across extract-and-re-seed rounds, where each round's runner
        restarts its iteration counter at 0: without rebasing, a ban
        issued late in round N would silently pin the rule for most of
        round N+1.  Ban *history* (``times_banned``, match counters)
        is intentionally preserved -- an explosive rule stays on the
        steep backoff curve across rounds."""
        if iterations <= 0:
            return
        for s in self.stats.values():
            s.banned_until = max(0, s.banned_until - iterations)

    # ------------------------------------------------------------------

    def _check_graph(self, egraph: "EGraph") -> None:
        tick = getattr(egraph, "tick", 0)
        if self._graph_id != id(egraph) or tick < self._last_tick:
            # New graph, or the old one was rolled back to a snapshot:
            # every cursor may now point past real, unseen changes.
            for s in self.stats.values():
                s.last_search_tick = 0
                s.searches_since_full = 0
            self._graph_id = id(egraph)
        self._last_tick = tick

    def _search_cutoff(self, egraph: "EGraph", stats: RuleStats):
        """The ``since`` cutoff for this search (None => full rescan)
        and the tick the cursor would advance to on success."""
        tick_before = getattr(egraph, "tick", 0)
        if not self.incremental:
            return None, tick_before
        if (
            stats.last_search_tick == 0
            or stats.searches_since_full + 1 >= self.rescan_stride
        ):
            return None, tick_before
        return stats.last_search_tick, tick_before

    def _commit_cursor(
        self, stats: RuleStats, cutoff: Optional[int], tick_before: int,
        completed: bool,
    ) -> None:
        if not completed:
            return
        if cutoff is None:
            stats.full_rescans += 1
            stats.searches_since_full = 0
        else:
            stats.searches_since_full += 1
        stats.last_search_tick = tick_before

    def search_rewrite(
        self,
        iteration: int,
        egraph: "EGraph",
        rule: "Rewrite",
        deadline: Optional[Deadline] = None,
    ) -> List["Match"]:
        """Search one rule, applying the scheduling policy."""
        from .pattern import MatchCounters

        self._check_graph(egraph)
        stats = self.rule_stats(rule.name)
        if stats.banned_at(iteration):
            stats.skipped += 1
            return []

        cutoff, tick_before = self._search_cutoff(egraph, stats)
        counters = MatchCounters()
        start = time.perf_counter()
        matches = rule.search(
            egraph, deadline=deadline, since=cutoff, counters=counters
        )
        stats.search_time += time.perf_counter() - start
        stats.matches += len(matches)
        stats.classes_visited += counters.visited
        stats.classes_skipped += counters.skipped

        if self.match_limit is not None:
            threshold = self.match_limit << stats.times_banned
            if len(matches) > threshold:
                ban = self.ban_length << stats.times_banned
                stats.times_banned += 1
                stats.banned_until = iteration + 1 + ban
                if self.observer is not None:
                    self.observer(
                        "scheduler_ban",
                        rule=rule.name,
                        iteration=iteration,
                        matches=len(matches),
                        threshold=threshold,
                        banned_until=stats.banned_until,
                        times_banned=stats.times_banned,
                    )
                # The matches are being thrown away: the cursor must
                # not advance past them or they would never be found
                # again once the ban lifts.
                return []
        self._commit_cursor(stats, cutoff, tick_before, counters.completed)
        stats.applied += len(matches)
        return matches

    def can_stop(self, iteration: int) -> bool:
        """No unions this iteration only means saturation if no rule is
        banned.  Mirroring egg, fast-forward outstanding bans by the
        minimum remaining ban so the next iteration re-runs the least
        recently banned rule immediately."""
        banned = [s for s in self.stats.values() if s.banned_at(iteration + 1)]
        if not banned:
            return True
        delta = min(s.banned_until for s in banned) - (iteration + 1)
        if delta > 0:
            for s in banned:
                s.banned_until -= delta
        return False
