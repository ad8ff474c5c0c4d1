"""The phase executor: run a :class:`~.plan.PhasePlan` to completion.

Each phase seeds a **fresh** e-graph with the previous phase's
extracted program, saturates it through the existing
:class:`~repro.egraph.runner.Runner` with the phase's rule subset and
budgets, extracts with a sketch-biased cost model, and checks the
result against the phase sketch.  The boundary is the extractor's flat
node list: a round scores the sketch on its op histogram, compares it
with the round's seed for progress, and seeds the next graph from it;
a :class:`~repro.dsl.ast.Term` is built only when a caller reads
:attr:`PhaseExecution.term`.  The re-seed is the whole trick: the
runner's node watchdog compares the *cumulative* e-node counter
(``EGraph.version``) against the budget, and extraction throws away
every e-class that did not make it into the chosen term -- so a phase
boundary simultaneously resets the counter and shrinks the live graph.
A kernel whose monolithic saturation needs N nodes to reach the
vectorized form can pass through the same rewrites in phases whose
individual peaks stay well under N (measured in EXPERIMENTS.md).

Crash recovery: every phase *round* persists through the same
``service/checkpoint.py`` machinery as a monolithic run, under a key
that includes the plan fingerprint, the phase index, and the
extend-round index (:func:`repro.service.checkpoint.phase_saturation_key`).
On resume after a SIGKILL, completed phases re-run deterministically
from the spec (their checkpoints were consumed on completion), and the
interrupted round finds exactly its own checkpoint -- never a stale one
from a different phase, round, or plan -- restoring the uninterrupted
trajectory byte-identically (asserted by ``tests/test_phase_resume.py``
and the ``phase.saturate:sigkill`` chaos cell).

Deadline: ``options.deadline`` bounds the whole plan.  Each round's
time limit is clamped to the residual budget, and once the deadline
has passed no further round or phase starts; the merged report then
stops on ``time_limit``, so the result counts as timed out.

Observability: each phase runs under a ``phase`` span, emits
``phase_start`` / ``phase_round`` / ``phase_done`` flight-recorder
events, and samples ``repro_phase_seconds`` / ``repro_phase_rounds_total``
metrics, so a phased compile's trace shows exactly where the time and
the node budget went.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..chaos.inject import chaos_point
from ..dsl.ast import Term
from ..egraph.egraph import EGraph, ENode
from ..egraph.extract import CostFunction, ExtractionResult, Extractor
from ..egraph.runner import Runner, RunReport, StopReason
from ..egraph.scheduler import BackoffScheduler, RuleStats
from ..observability import current_session, span
from ..rules import build_ruleset
from .plan import Phase, PhasePlan, resolve_node_limit
from .sketch import Sketch, op_counts

__all__ = [
    "SketchBiasedCost",
    "PhaseRoundReport",
    "PhaseReport",
    "PlanReport",
    "PhaseExecution",
    "execute_plan",
]


class SketchBiasedCost(CostFunction):
    """Wrap a cost model with a sketch-derived extraction bias.

    * Ops the sketch **requires** cost a flat ``sum(children) + eps``:
      the structural overlay the sketch asks for (``Concat``/``Vec``
      spines) becomes nearly free, so the extractor prefers it over a
      flat scalar form even when the base model would not.  The 2DConv
      layout phase needs this: its 121-element output splits into
      vectors only by padding three zero lanes, and under the plain
      Diospyros model those pad zeros cost more than the ``List`` spine
      they replace.
    * Ops the sketch **forbids** pay a constant penalty on top of the
      base marginal, steering extraction away from pre-phase shapes
      whenever any alternative exists.

    Both adjustments keep the marginal strictly positive, preserving
    the extractor's monotonicity requirement.
    """

    REWARD_MARGINAL = 1e-6
    PENALTY = 10.0

    def __init__(
        self,
        base: CostFunction,
        reward: Tuple[str, ...] = (),
        penalty: Tuple[str, ...] = (),
    ) -> None:
        self.base = base
        self.reward = frozenset(reward)
        self.penalty = frozenset(penalty)

    def node_cost(
        self, extractor: Extractor, node: ENode, child_costs: List[float]
    ) -> float:
        if node.op in self.reward:
            return sum(child_costs) + self.REWARD_MARGINAL
        cost = self.base.node_cost(extractor, node, child_costs)
        if node.op in self.penalty:
            cost += self.PENALTY
        return cost

    def op_costs(self) -> Dict[str, Tuple[float, float]]:
        """The base model's table with a reward replacing the entry and
        a penalty added after the base cost.  A base entry that already
        carries a penalty cannot take a second one in the same float
        order, so such an op is left to :meth:`node_cost`."""
        table = {}
        for op, (constant, penalty) in self.base.op_costs().items():
            if op in self.penalty:
                if penalty:
                    continue
                penalty = self.PENALTY
            table[op] = (constant, penalty)
        for op in self.reward:
            table[op] = (self.REWARD_MARGINAL, 0.0)
        return table


def biased_cost(base: CostFunction, sketch: Optional[Sketch]) -> CostFunction:
    """The extraction cost model for one phase: the base model, biased
    by the phase sketch's required/forbidden operator hints."""
    if sketch is None:
        return base
    reward = tuple(sorted(sketch.required_ops()))
    penalty = tuple(sorted(sketch.forbidden_ops()))
    if not reward and not penalty:
        return base
    return SketchBiasedCost(base, reward=reward, penalty=penalty)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class PhaseRoundReport:
    """One extract-and-re-seed round within a phase."""

    round: int
    stop_reason: str
    iterations: int
    seed_version: int
    final_version: int
    node_limit: int
    sketch_score: float
    elapsed: float
    resumed_from: Optional[int] = None


@dataclass
class PhaseReport:
    """Outcome of one phase (all its rounds)."""

    name: str
    index: int
    rounds: List[PhaseRoundReport] = field(default_factory=list)
    sketch_score: float = 1.0
    sketch_satisfied: bool = True
    #: What the on-miss policy did: "" (hit), "extended" (hit after
    #: extra rounds), "accepted-miss" (skip / extend exhausted),
    #: "failed" (a crashed round).
    outcome: str = ""
    extracted_cost: float = 0.0
    total_time: float = 0.0

    @property
    def peak_version(self) -> int:
        """Largest cumulative node count any round reached -- the
        phased analogue of a monolithic run's final ``EGraph.version``."""
        return max((r.final_version for r in self.rounds), default=0)

    @property
    def iterations(self) -> int:
        return sum(r.iterations for r in self.rounds)


@dataclass
class PlanReport:
    """Outcome of a whole plan execution (rides on ``CompileResult``)."""

    plan_name: str
    fingerprint: str
    phases: List[PhaseReport] = field(default_factory=list)
    total_time: float = 0.0
    completed: bool = False
    failed_phase: Optional[str] = None

    @property
    def peak_version(self) -> int:
        return max((p.peak_version for p in self.phases), default=0)

    def summary(self) -> str:
        parts = []
        for phase in self.phases:
            mark = "✓" if phase.sketch_satisfied else "✗"
            parts.append(
                f"{phase.name}[{len(phase.rounds)}r {phase.peak_version}n {mark}]"
            )
        if self.completed:
            status = "ok"
        elif self.failed_phase is None:
            status = "cut by deadline"
        else:
            status = f"failed@{self.failed_phase}"
        return f"{self.plan_name}: {' -> '.join(parts)} ({status})"


@dataclass
class PhaseExecution:
    """Everything the compiler needs back from a plan execution."""

    #: Final phase's e-graph and root (candidate selection and the
    #: lowering fallbacks extract from it, exactly as they would from a
    #: monolithic run's graph).
    egraph: EGraph
    root: int
    #: The final boundary: the last round's extraction, or the spec
    #: term when the deadline cut the plan before phase 1.
    extraction: ExtractionResult
    #: Merged runner report across every round of every phase.
    report: RunReport
    plan_report: PlanReport
    #: On failure: the last successful phase boundary's node list --
    #: the degradation ladder's new rung falls back to it instead of
    #: dropping all the way to scalar lowering.
    fallback_nodes: Optional[List[ENode]] = None
    failed: bool = False
    failure: str = ""

    @property
    def term(self) -> Term:
        """The final boundary's program, built on first read."""
        return self.extraction.term


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _phase_rules(options, phase: Phase):
    """The phase's rule subset, drawn from the full registry with the
    compile's own family switches still honoured."""
    return build_ruleset(
        width=options.vector_width,
        enable_vector=options.enable_vector_rules,
        extra_rules=list(options.extra_rules),
        only_tags=phase.rule_tags if phase.rule_tags else None,
    )


def _copy_stats(stats: Dict[str, RuleStats]) -> Dict[str, RuleStats]:
    """Deep-ish copy so the next round's scheduler cannot mutate the
    RuleStats objects already recorded in a finished round's report."""
    return {name: dataclasses.replace(s) for name, s in stats.items()}


def _merge_rule_stats(
    into: Dict[str, RuleStats],
    source: Dict[str, RuleStats],
    baseline: Dict[str, RuleStats],
) -> None:
    """Add one round's own counts to ``into``.  ``source`` is the round
    scheduler's cumulative stats and ``baseline`` what that scheduler
    was seeded with -- the earlier rounds' stats, already merged -- so
    only the difference is new."""
    zero = RuleStats()
    for name, s in source.items():
        base = baseline.get(name, zero)
        acc = into.get(name)
        if acc is None:
            into[name] = acc = dataclasses.replace(
                s, matches=0, applied=0, skipped=0, times_banned=0,
                search_time=0.0, classes_visited=0, classes_skipped=0,
                full_rescans=0,
            )
        acc.matches += s.matches - base.matches
        acc.applied += s.applied - base.applied
        acc.skipped += s.skipped - base.skipped
        acc.times_banned += s.times_banned - base.times_banned
        acc.search_time += s.search_time - base.search_time
        acc.classes_visited += s.classes_visited - base.classes_visited
        acc.classes_skipped += s.classes_skipped - base.classes_skipped
        acc.full_rescans += s.full_rescans - base.full_rescans


def execute_plan(
    spec, options, plan: PhasePlan
) -> PhaseExecution:
    """Run ``plan`` over ``spec`` and return the combined outcome.

    Never raises for a crashed rule: that comes back with
    ``failed=True`` plus the last successful boundary's node list, from
    which the compiler degrades.
    """
    base_cost = options.cost_model()
    fingerprint = plan.fingerprint()
    store = None
    if options.checkpoint_dir:
        # Lazy import: repro.service imports the compiler at load time.
        from ..service.checkpoint import CheckpointStore

        store = CheckpointStore(options.checkpoint_dir)

    plan_report = PlanReport(plan_name=plan.name, fingerprint=fingerprint)
    merged = RunReport(stop_reason=StopReason.ITERATION_LIMIT)
    merged.rule_stats = {}
    session = current_session()
    start = time.perf_counter()

    # Phase 1 seeds the spec term; each later phase seeds the node list
    # the previous phase extracted.
    seed: Union[Term, List[ENode]] = spec.term
    extraction: Optional[ExtractionResult] = None
    last_good: Optional[List[ENode]] = None
    egraph: Optional[EGraph] = None
    root = 0
    failed = False
    failure = ""
    cut = False

    for index, phase in enumerate(plan.phases):
        if _deadline_passed(options):
            # The deadline bounds the whole plan, not each round.
            cut = True
            break
        with span(
            "phase", kernel=spec.name, phase=phase.name, index=index
        ) as phase_span:
            chaos_point("phase.start")
            # Free the previous phase's graph before this one seeds its own.
            egraph = None
            phase_report, extraction, egraph, root, crash, cut = _run_phase(
                spec, options, plan.name, fingerprint, index, phase, seed,
                base_cost, store, merged, session,
            )
            seed = extraction.nodes
            plan_report.phases.append(phase_report)
            if index == 0:
                # Phase 1's first round seeded ``spec.term`` into a
                # fresh graph: the plan's own seed.
                merged.seed_version = phase_report.rounds[0].seed_version
            if phase_span is not None:
                phase_span.set(
                    rounds=len(phase_report.rounds),
                    peak_version=phase_report.peak_version,
                    sketch_score=round(phase_report.sketch_score, 4),
                    outcome=phase_report.outcome or "hit",
                )
            if session is not None:
                session.record_event(
                    "phase_done",
                    phase=phase.name,
                    index=index,
                    rounds=len(phase_report.rounds),
                    peak_version=phase_report.peak_version,
                    sketch_score=round(phase_report.sketch_score, 4),
                    satisfied=phase_report.sketch_satisfied,
                    outcome=phase_report.outcome or "hit",
                )
            if session is not None and session.metrics is not None:
                session.metrics.histogram(
                    "repro_phase_seconds",
                    "Per-phase saturation wall-clock seconds",
                    labels=("phase",),
                ).labels(phase=phase.name).observe(phase_report.total_time)
                session.metrics.counter(
                    "repro_phase_rounds_total",
                    "Extend rounds executed, by phase",
                    labels=("phase",),
                ).labels(phase=phase.name).inc(len(phase_report.rounds))

            if crash is not None:
                failed = True
                failure = (
                    f"phase {phase.name!r} crashed: {crash}"
                )
                plan_report.failed_phase = phase.name
                phase_report.outcome = "failed"
                if phase_span is not None:
                    phase_span.ok = False
                break
            last_good = seed

    if egraph is None:
        # The deadline cut the plan before phase 1: extraction gets
        # the unrewritten spec.
        egraph = EGraph()
        root = egraph.add_term(spec.term)
        merged.seed_version = egraph.version
        extraction = ExtractionResult(term=spec.term)
    if cut:
        merged.stop_reason = StopReason.TIME_LIMIT
    plan_report.total_time = time.perf_counter() - start
    plan_report.completed = not failed and not cut
    merged.total_time = plan_report.total_time
    merged.nodes = egraph.num_nodes
    merged.classes = egraph.num_classes
    merged.final_version = egraph.version
    if session is not None:
        session.record_event(
            "plan_done",
            plan=plan.name,
            completed=plan_report.completed,
            peak_version=plan_report.peak_version,
            total_time=round(plan_report.total_time, 4),
        )

    return PhaseExecution(
        egraph=egraph,
        root=root,
        extraction=extraction,
        report=merged,
        plan_report=plan_report,
        fallback_nodes=last_good if failed else None,
        failed=failed,
        failure=failure,
    )


def _run_phase(
    spec,
    options,
    plan_name: str,
    fingerprint: str,
    index: int,
    phase: Phase,
    seed: Union[Term, Sequence[ENode]],
    base_cost: CostFunction,
    store,
    merged: RunReport,
    session,
) -> Tuple[PhaseReport, ExtractionResult, EGraph, int, Optional[str], bool]:
    """Run one phase (all its extend rounds) from ``seed``, the spec
    term or the previous phase's node list.  Returns the phase report,
    the final round's extraction (the boundary), that round's graph and
    root, a crash description (``None`` on success), and whether the
    deadline cut off a further round."""
    rules = _phase_rules(options, phase)
    cost = biased_cost(base_cost, phase.sketch)
    report = PhaseReport(name=phase.name, index=index)
    start = time.perf_counter()

    max_rounds = phase.extend_limit if phase.on_miss == "extend" else 1
    carried: Optional[Dict[str, RuleStats]] = None
    prev_iterations = 0
    egraph = EGraph()
    root = egraph.add_term(seed)
    # A fresh graph holds one class per distinct node, with ids in list
    # order: read back, this is the seed as a node list.
    nodes = [eclass.nodes[0] for eclass in egraph.class_table.values()]
    if session is not None:
        session.record_event(
            "phase_start",
            phase=phase.name,
            index=index,
            plan=plan_name,
            seed_size=len(nodes),
        )
    crash: Optional[str] = None
    extraction = None
    score = 1.0
    satisfied = True
    cut = False

    node_limit = min(resolve_node_limit(egraph.version), options.node_limit)
    for round_index in range(max_rounds):
        if round_index > 0:
            if _deadline_passed(options):
                cut = True
                break
            egraph = EGraph()
            root = egraph.add_term(nodes)
        seed_version = egraph.version
        # The budget is resolved once, from the phase's *first* seed
        # (never above the compile's own ``node_limit``), and stays
        # flat across extend rounds: vectorization compacts the term
        # (a scalar dot chain collapses ~2.5x into a VecMAC chain), so
        # a flat budget hands each re-seeded round growing relative
        # headroom -- that monotonically increasing slack is what
        # makes the extend loop converge.
        scheduler = BackoffScheduler(
            match_limit=options.match_limit, incremental=True
        )
        baseline: Dict[str, RuleStats] = {}
        if carried is not None:
            baseline = _copy_stats(carried)
            # Continue the backoff history across the re-seed: match
            # counters and ban counts persist so explosive rules stay
            # throttled, and bans are rebased to the new runner's
            # iteration numbering.  Deliberately *not* ``rebind``: that
            # would also keep the incremental-search cursors, whose
            # tick high-water marks from the previous graph would make
            # every rule skip the entire fresh graph as "already
            # searched".  The scheduler resets the cursors itself the
            # first time it sees the new graph.
            scheduler.stats = carried
            scheduler.rebase(prev_iterations)
        persist = None
        if store is not None:
            persist = store.checkpointer_for_phase(
                spec, options, fingerprint, index, round_index
            )
        runner = Runner(
            rules,
            iter_limit=phase.iter_limit,
            node_limit=node_limit,
            time_limit=_round_time_limit(options),
            match_limit=options.match_limit,
            scheduler=scheduler,
            checkpoint_stride=options.checkpoint_stride,
            persist=persist,
        )
        run = runner.run(egraph)
        _merge_rule_stats(merged.rule_stats, run.rule_stats, baseline)
        merged.iterations.extend(run.iterations)
        merged.stop_reason = run.stop_reason
        if run.resumed_from is not None and merged.resumed_from is None:
            merged.resumed_from = run.resumed_from

        extraction = Extractor(egraph, cost).extract(root)
        if phase.sketch is not None:
            counts = op_counts(extraction.nodes)
            score = phase.sketch.score(counts)
            satisfied = phase.sketch.satisfied(counts)
        report.rounds.append(
            PhaseRoundReport(
                round=round_index,
                stop_reason=run.stop_reason,
                iterations=len(run.iterations),
                seed_version=seed_version,
                final_version=run.final_version or egraph.version,
                node_limit=node_limit,
                sketch_score=score,
                elapsed=run.total_time,
                resumed_from=run.resumed_from,
            )
        )
        if session is not None:
            session.record_event(
                "phase_round",
                phase=phase.name,
                round=round_index,
                stop=run.stop_reason,
                seed_version=seed_version,
                final_version=run.final_version,
                node_limit=node_limit,
                sketch_score=round(score, 4),
            )

        if run.errored:
            crash = f"rule {run.failed_rule or '?'}: {run.error}"
            merged.error = run.error
            merged.failed_rule = run.failed_rule
            break
        progressed = extraction.nodes != nodes
        nodes = extraction.nodes
        if satisfied:
            report.outcome = "extended" if round_index > 0 else ""
            break
        if run.saturated:
            # The round reached a fixpoint within budget: re-seeding
            # the extracted program would saturate to the same place, so
            # further rounds cannot close the sketch gap.
            break
        if not progressed:
            break
        carried = _copy_stats(run.rule_stats)
        prev_iterations = len(run.iterations)

    report.total_time = time.perf_counter() - start
    report.sketch_score = score
    report.sketch_satisfied = satisfied
    report.extracted_cost = extraction.cost if extraction is not None else 0.0
    if crash is None and not satisfied:
        report.outcome = "accepted-miss"
    return report, extraction, egraph, root, crash, cut


def _deadline_passed(options) -> bool:
    return options.deadline is not None and time.time() >= options.deadline


def _round_time_limit(options) -> Optional[float]:
    """One round's saturation budget: the compile's own limit, clamped
    to what is left before ``options.deadline``."""
    limit = options.time_limit
    if options.deadline is None:
        return limit
    residual = max(0.0, options.deadline - time.time())
    return residual if limit is None else min(limit, residual)
