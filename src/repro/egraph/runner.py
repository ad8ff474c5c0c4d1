"""Equality saturation runner.

Drives the rewrite loop (paper Section 3.3): each iteration searches
every rule against the *frozen* e-graph, applies all resulting matches,
then rebuilds.  The loop stops when

* **saturated** -- no match changed the graph (every rewrite's RHS was
  already equivalent to its LHS), meaning the e-graph now represents
  all programs reachable by any ordering of the rules; or
* a **limit** was hit: iteration count, e-node count (the paper uses a
  10,000,000-node limit), wall-clock time (the paper uses 180 s), or an
  optional traced-memory budget; or
* a rule **crashed** (stop reason :data:`StopReason.ERROR`): the run
  records the failure and leaves the e-graph in its last consistent
  rebuilt state, so extraction still works.

A timed-out run is still useful: extraction operates on the partially
saturated graph (Section 5.5 studies exactly this trade-off; our
Figure 6 reproduction drives this module with varying budgets).  The
fault-tolerance layer (see ``repro/errors.py``) extends the same
stance to crashed runs.

Scheduling is delegated to an egg-style
:class:`repro.egraph.scheduler.BackoffScheduler`: explosive rules are
temporarily banned instead of head-truncated, and the wall-clock
deadline is threaded *into* each rule's search so a single explosive
rule cannot blow far past the budget.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..chaos.inject import chaos_flag, chaos_point
from ..observability import current_session
from .egraph import EGraph
from .rewrite import Match, Rewrite
from .scheduler import BackoffScheduler, Deadline, RuleStats

__all__ = ["IterationReport", "RunReport", "Runner", "StopReason"]


class StopReason:
    """Why saturation stopped (plain strings for easy reporting)."""

    SATURATED = "saturated"
    ITERATION_LIMIT = "iteration_limit"
    NODE_LIMIT = "node_limit"
    TIME_LIMIT = "time_limit"
    MEMORY_LIMIT = "memory_limit"
    #: A rule's searcher or applier raised; the run stopped early with
    #: the e-graph restored to a consistent state.
    ERROR = "error"


@dataclass
class IterationReport:
    """Statistics for one saturation iteration."""

    index: int
    matches: int
    applied: int
    unions: int
    nodes: int
    classes: int
    elapsed: float
    #: Candidate classes the matchers examined this iteration.
    visited: int = 0
    #: Candidate classes the dirty-set filter pruned this iteration.
    skipped: int = 0
    #: Matches dropped because an identical one was already applied in
    #: an earlier iteration (no-op unions avoided).
    deduped: int = 0


@dataclass
class RunReport:
    """Summary of a saturation run, consumed by Table 1 / Figure 6."""

    stop_reason: str
    iterations: List[IterationReport] = field(default_factory=list)
    total_time: float = 0.0
    nodes: int = 0
    classes: int = 0
    #: Per-rule scheduling statistics (matches, applied, bans) from the
    #: backoff scheduler.
    rule_stats: Dict[str, RuleStats] = field(default_factory=dict)
    #: When ``stop_reason == StopReason.ERROR``: a description of the
    #: failure and the rule that caused it.
    error: Optional[str] = None
    failed_rule: Optional[str] = None
    #: Set when the run restored a persisted checkpoint: the iteration
    #: index it resumed at (completed iterations were skipped).
    resumed_from: Optional[int] = None
    #: Cumulative e-node counter (``EGraph.version``) when the run
    #: started / finished.  ``final_version`` is the figure the node
    #: watchdog compares against ``node_limit``, so phased-saturation
    #: reports use it as the per-phase "peak nodes" measure.
    seed_version: int = 0
    final_version: int = 0

    @property
    def saturated(self) -> bool:
        return self.stop_reason == StopReason.SATURATED

    @property
    def timed_out(self) -> bool:
        return self.stop_reason in (
            StopReason.TIME_LIMIT,
            StopReason.NODE_LIMIT,
            StopReason.MEMORY_LIMIT,
        )

    @property
    def errored(self) -> bool:
        return self.stop_reason == StopReason.ERROR

    def banned_rules(self) -> List[str]:
        """Rules the backoff scheduler banned at least once."""
        return sorted(
            name for name, s in self.rule_stats.items() if s.times_banned > 0
        )

    def summary(self) -> str:
        if not self.iterations:
            head = f"stopped before the first iteration ({self.stop_reason})"
        else:
            head = (
                f"{len(self.iterations)} iteration(s), "
                f"stopped: {self.stop_reason}"
            )
        text = (
            f"{head}, {self.nodes} nodes, {self.classes} classes, "
            f"{self.total_time:.2f}s"
        )
        if self.error:
            text += f" [error in {self.failed_rule or '?'}: {self.error}]"
        banned = self.banned_rules()
        if banned:
            text += f" [backoff banned: {', '.join(banned)}]"
        return text


class Runner:
    """Configurable saturation loop.

    Parameters mirror egg's ``Runner``: ``iter_limit`` bounds the number
    of iterations, ``node_limit`` bounds total e-nodes, ``time_limit``
    (seconds) bounds wall-clock time.  ``match_limit`` is the backoff
    scheduler's per-rule match budget: a rule exceeding it in one
    iteration is banned for exponentially growing stretches (egg's
    ``BackoffScheduler``); ``None`` disables banning.  An explicit
    ``scheduler`` instance overrides both (pass one to read its stats
    after the run, or to share ban state across runs).

    Fault tolerance: an exception raised by a rule's searcher or applier
    stops the run with ``StopReason.ERROR`` instead of propagating; the
    e-graph is rebuilt in place into a consistent state, so extraction
    on the surviving graph is always sound.

    Watchdogs: the wall-clock deadline is checked between rules, *inside*
    rule search (cooperatively, via :class:`Deadline`), and inside the
    apply loop; the node budget is checked per applied match; the
    optional ``memory_limit_bytes`` is checked against ``tracemalloc``
    (when tracing is active) inside the apply loop.
    """

    #: How many applied matches between deadline/memory polls in the
    #: apply loop (a balance between overhead and responsiveness).
    _WATCHDOG_STRIDE = 64

    #: Cap on distinct e-class shape signatures recorded per run (the
    #: conformance coverage feed; see ``EGraph.shape_signatures``).
    _SHAPE_LIMIT = 512

    def __init__(
        self,
        rules: Sequence[Rewrite],
        iter_limit: int = 30,
        node_limit: int = 100_000,
        time_limit: Optional[float] = None,
        match_limit: Optional[int] = None,
        scheduler: Optional[BackoffScheduler] = None,
        memory_limit_bytes: Optional[int] = None,
        checkpoint_stride: int = 1,
        incremental: bool = True,
        dedup_matches: bool = True,
        persist=None,
    ) -> None:
        if not rules:
            raise ValueError("Runner needs at least one rewrite rule")
        if checkpoint_stride <= 0:
            raise ValueError("checkpoint_stride must be positive")
        self.rules = list(rules)
        self.iter_limit = iter_limit
        self.node_limit = node_limit
        self.time_limit = time_limit
        self.match_limit = match_limit
        self.scheduler = scheduler
        self.memory_limit_bytes = memory_limit_bytes
        self.checkpoint_stride = checkpoint_stride
        self.incremental = incremental
        self.dedup_matches = dedup_matches
        #: Optional persistent checkpointer (duck-typed ``load`` /
        #: ``save`` / ``delete``; see
        #: :class:`repro.service.checkpoint.FileCheckpointer`).  When
        #: set, the end-of-iteration state is serialized every
        #: ``checkpoint_stride`` iterations and a fresh run that finds a
        #: surviving file *resumes* from it -- the crash-recovery path
        #: of DESIGN.md §11.
        self.persist = persist

    def _make_scheduler(self) -> BackoffScheduler:
        if self.scheduler is not None:
            return self.scheduler
        return BackoffScheduler(
            match_limit=self.match_limit, incremental=self.incremental
        )

    def run(self, egraph: EGraph) -> RunReport:
        """Saturate ``egraph`` in place and return a report.

        When an observability session is active (see
        :mod:`repro.observability`), the run streams per-iteration
        snapshots and watchdog/ban/error events into the saturation
        flight recorder, so *any* stop reason -- including a crash that
        propagates out of here -- leaves a post-mortem.
        """
        report = RunReport(stop_reason=StopReason.ITERATION_LIMIT)
        report.seed_version = egraph.version
        scheduler = self._make_scheduler()
        report.rule_stats = scheduler.stats
        session = current_session()
        if session is not None:
            # Scheduler ban decisions flow into the recorder/trace.
            scheduler.observer = session.record_event
        start = time.perf_counter()
        deadline = Deadline.after(self.time_limit)

        # Cross-iteration match-dedup memory; restored together with the
        # graph on resume so a continuation dedups exactly like the
        # uninterrupted run would have.
        applied_keys: set = set()
        start_iteration = 0
        if self.persist is not None:
            state = self.persist.load()
            if state is not None:
                egraph.restore_from(state.egraph)
                applied_keys = set(state.applied_keys)
                scheduler.rebind(egraph, dict(state.rule_stats))
                report.rule_stats = scheduler.stats
                report.iterations = list(state.iterations)
                report.resumed_from = start_iteration = state.next_iteration
                self._emit(
                    session,
                    "checkpoint_resume",
                    iteration=start_iteration,
                    nodes=egraph.num_nodes,
                )

        try:
            self._loop(
                egraph, report, scheduler, deadline, applied_keys,
                start_iteration,
            )
        except Exception as exc:  # noqa: BLE001 - fault-tolerance boundary
            self._recover(egraph, report, exc)

        self._finish(report, egraph, start, session)
        if self.persist is not None:
            # The run delivered a result; the checkpoint is consumed.
            # (On a crash we never get here, which is the point.)
            self.persist.delete()
        return report

    # ------------------------------------------------------------------

    def _loop(
        self,
        egraph: EGraph,
        report: RunReport,
        scheduler: BackoffScheduler,
        deadline: Deadline,
        applied_keys: set,
        start_iteration: int = 0,
    ) -> None:
        session = current_session()
        if deadline.expired() and self.iter_limit == 0:
            # Zero-budget run: report the time limit, not an iteration
            # "limit" that was never exercised.
            report.stop_reason = StopReason.TIME_LIMIT
            return

        # ``applied_keys`` holds effects already applied in earlier
        # iterations, keyed by rule name + canonicalized dedup key.  A
        # saturated rule re-reports the same matches forever; skipping
        # them saves the (no-op) build+union cost every iteration.

        for index in range(start_iteration, self.iter_limit):
            iter_start = time.perf_counter()
            chaos_point("runner.iteration")
            visited_before, skipped_before = self._matcher_totals(scheduler)

            if deadline.expired():
                report.stop_reason = StopReason.TIME_LIMIT
                self._emit(session, "deadline_expired", where="iteration_start",
                           iteration=index)
                break
            if self._over_memory():
                # Also polled between iterations: the in-apply poll only
                # runs every _WATCHDOG_STRIDE applied matches, which a
                # small graph may never reach.
                report.stop_reason = StopReason.MEMORY_LIMIT
                self._emit(session, "watchdog_trip",
                           limit=StopReason.MEMORY_LIMIT, iteration=index,
                           nodes=egraph.num_nodes)
                break

            # Phase 1: search every rule against the frozen graph.  The
            # deadline is threaded into each search so e-matching can
            # yield mid-rule.
            all_matches: List[Match] = []
            current_rule: Optional[Rewrite] = None
            try:
                for rule in self.rules:
                    current_rule = rule
                    all_matches.extend(
                        scheduler.search_rewrite(index, egraph, rule, deadline)
                    )
                    if deadline.expired():
                        break
            except Exception as exc:
                # Search never mutates the graph, so it is still the
                # last consistent rebuilt state: record and stop.
                report.stop_reason = StopReason.ERROR
                report.error = f"{type(exc).__name__}: {exc}"
                report.failed_rule = current_rule.name if current_rule else None
                self._emit(session, "rule_crash", phase="search",
                           rule=report.failed_rule, error=report.error,
                           iteration=index)
                break
            if deadline.expired():
                report.stop_reason = StopReason.TIME_LIMIT
                self._emit(session, "deadline_expired", where="mid_search",
                           iteration=index)
                # Apply nothing on a mid-search timeout: the graph stays
                # consistent and extraction proceeds on what we have.
                break

            # Phase 2: apply all matches, then rebuild once.  Node,
            # time, and memory watchdogs run inside the loop so one
            # iteration's apply phase cannot blow past the budgets.
            applied = 0
            unions = 0
            deduped = 0
            stop_mid_apply: Optional[str] = None
            failing_match: Optional[Match] = None
            # Unions update the root array in place as matches apply.
            root_of = egraph.uf.parent.__getitem__
            try:
                for match in all_matches:
                    failing_match = match
                    if self.dedup_matches and match.dedup_key is not None:
                        ids, extra = match.dedup_key
                        key = (match.rule_name, extra, *map(root_of, ids))
                        if key in applied_keys:
                            deduped += 1
                            continue
                        applied_keys.add(key)
                    new_id = match.build(egraph)
                    applied += 1
                    if new_id is not None and egraph.union(match.eclass, new_id):
                        unions += 1
                    if egraph.version >= self.node_limit:
                        stop_mid_apply = StopReason.NODE_LIMIT
                        break
                    if applied % self._WATCHDOG_STRIDE == 0:
                        if deadline.expired():
                            stop_mid_apply = StopReason.TIME_LIMIT
                            break
                        if self._over_memory():
                            stop_mid_apply = StopReason.MEMORY_LIMIT
                            break
            except Exception as exc:
                # A crashing applier may leave partially built RHS
                # nodes and pending unions behind; a rebuild restores
                # full consistency.
                report.stop_reason = StopReason.ERROR
                report.error = f"{type(exc).__name__}: {exc}"
                report.failed_rule = (
                    failing_match.rule_name if failing_match else None
                )
                self._emit(session, "rule_crash", phase="apply",
                           rule=report.failed_rule, error=report.error,
                           iteration=index)
                egraph.rebuild()
                break
            egraph.rebuild()

            visited_after, skipped_after = self._matcher_totals(scheduler)
            report.iterations.append(
                IterationReport(
                    index=index,
                    matches=len(all_matches),
                    applied=applied,
                    unions=unions,
                    nodes=egraph.num_nodes,
                    classes=egraph.num_classes,
                    elapsed=time.perf_counter() - iter_start,
                    visited=visited_after - visited_before,
                    skipped=skipped_after - skipped_before,
                    deduped=deduped,
                )
            )
            self._observe_iteration(session, report.iterations[-1])
            if self.persist is not None and (index + 1) % self.checkpoint_stride == 0:
                self._persist_state(
                    egraph, report, scheduler, applied_keys, index + 1, session
                )

            if stop_mid_apply is not None:
                report.stop_reason = stop_mid_apply
                self._emit(session, "watchdog_trip", limit=stop_mid_apply,
                           iteration=index, nodes=egraph.num_nodes)
                break
            if unions == 0 and scheduler.can_stop(index):
                report.stop_reason = StopReason.SATURATED
                self._emit(session, "saturated", iteration=index,
                           nodes=egraph.num_nodes)
                break

    # ------------------------------------------------------------------

    def _persist_state(
        self,
        egraph: EGraph,
        report: RunReport,
        scheduler: BackoffScheduler,
        applied_keys: set,
        next_iteration: int,
        session,
    ) -> None:
        """Serialize the consistent end-of-iteration state through
        ``self.persist``.  A failed save is observable but never fatal:
        the run simply continues with one less recovery point."""
        # Lazy import: repro.service imports this module at load time.
        from ..service.checkpoint import SaturationState

        saved = self.persist.save(
            SaturationState(
                next_iteration=next_iteration,
                egraph=egraph,
                applied_keys=applied_keys,
                rule_stats=scheduler.stats,
                iterations=report.iterations,
            )
        )
        self._emit(
            session,
            "checkpoint_persisted" if saved else "checkpoint_persist_failed",
            iteration=next_iteration,
            nodes=egraph.num_nodes,
        )

    def _recover(
        self,
        egraph: EGraph,
        report: RunReport,
        exc: Exception,
    ) -> None:
        """Last-resort recovery for exceptions escaping the per-phase
        handlers (e.g. a crash inside ``rebuild`` itself)."""
        if report.stop_reason != StopReason.ERROR:
            report.stop_reason = StopReason.ERROR
            report.error = f"{type(exc).__name__}: {exc}"
        self._emit(current_session(), "runner_crash", error=report.error)
        try:
            egraph.rebuild()
        except Exception:  # pragma: no cover - graph beyond repair
            pass

    def _finish(
        self,
        report: RunReport,
        egraph: EGraph,
        start: float,
        session=None,
    ) -> None:
        report.total_time = time.perf_counter() - start
        report.nodes = egraph.num_nodes
        report.classes = egraph.num_classes
        report.final_version = egraph.version
        if session is None:
            return
        if session.recorder is not None:
            session.recorder.record_rule_stats(report.rule_stats)
            session.recorder.record_stop(report.stop_reason)
            # Final-graph shape signatures feed the conformance coverage
            # map (see repro/conformance/coverage.py); capped so the
            # recorder dump stays bounded on explosive runs.
            session.recorder.record_event(
                "egraph_shapes",
                signatures=egraph.shape_signatures(limit=self._SHAPE_LIMIT),
            )
        if session.metrics is not None:
            m = session.metrics
            m.counter(
                "repro_saturation_iterations_total",
                "Saturation iterations executed",
            ).inc(len(report.iterations))
            m.counter(
                "repro_saturation_matches_total", "Rewrite matches found"
            ).inc(sum(it.matches for it in report.iterations))
            m.counter(
                "repro_saturation_unions_total", "E-class unions performed"
            ).inc(sum(it.unions for it in report.iterations))
            m.counter(
                "repro_saturation_stops_total",
                "Saturation runs, by stop reason",
                labels=("reason",),
            ).labels(reason=report.stop_reason).inc()

    @staticmethod
    def _emit(session, kind: str, **details) -> None:
        """Record a discrete saturation event (ban, watchdog, crash) on
        the ambient observability session, if any."""
        if session is not None:
            session.record_event(kind, **details)

    @staticmethod
    def _observe_iteration(session, it: IterationReport) -> None:
        if session is None:
            return
        if session.recorder is not None:
            session.recorder.record_iteration(
                it.index,
                nodes=it.nodes,
                classes=it.classes,
                matches=it.matches,
                applied=it.applied,
                unions=it.unions,
                elapsed=it.elapsed,
                visited=it.visited,
                skipped=it.skipped,
                deduped=it.deduped,
            )
        if session.tracer is not None:
            # An instant marker per iteration on the enclosing
            # saturation span (visible in chrome://tracing).
            session.tracer.event(
                "iteration",
                index=it.index,
                nodes=it.nodes,
                matches=it.matches,
                unions=it.unions,
            )

    def _over_memory(self) -> bool:
        if chaos_flag("runner.memory"):
            return True
        if self.memory_limit_bytes is None or not tracemalloc.is_tracing():
            return False
        current, _ = tracemalloc.get_traced_memory()
        return current >= self.memory_limit_bytes

    @staticmethod
    def _matcher_totals(scheduler: BackoffScheduler) -> "tuple[int, int]":
        visited = sum(s.classes_visited for s in scheduler.stats.values())
        skipped = sum(s.classes_skipped for s in scheduler.stats.values())
        return visited, skipped

