"""The end-to-end Diospyros compiler pipeline (paper Figure 1).

``scalar program -> [symbolic evaluation] -> spec -> [equality
saturation] -> optimized DSL -> [lowering + LVN] -> vector IR +
C intrinsics -> [translation validation]``.

:func:`compile_spec` runs everything after lifting; :func:`compile_kernel`
starts from a Python reference function.  The result bundles every
artifact the evaluation needs: the optimized term, the saturation
report (Table 1's time/size/timeout columns), the IR kernel for the
cycle simulator (Figure 5/6), the generated C (LVN ablation), peak
memory, and the validation verdict.

**Failure semantics.**  The paper's robustness stance -- a timed-out
saturation still yields code, because "extraction operates on the
partially saturated graph" (Section 5.5) -- is generalized here into a
*degradation ladder* (see DESIGN.md):

1. saturation crash -> extract from the last consistent rebuilt
   e-graph (the runner recovers it in place);
2. vector-cost extraction or its lowering fails -> fall back to a
   :class:`~repro.costs.ScalarOnlyCostModel` extraction;
3. the scalar fallback also fails -> lower the unrewritten spec term
   directly, so every kernel always yields runnable IR;
4. validation *crashes* -> retry once with an escalated random-testing
   budget, then mark the result degraded-unvalidated instead of
   raising.

Every rung is recorded in :class:`repro.errors.CompileDiagnostics`;
downstream consumers must check ``CompileResult.degraded`` before
trusting a result.  The ladder has no off switch: a compile raises a
staged :class:`repro.errors.CompileError` only where there is nothing
to degrade to, such as an unknown ``phases`` mode, an expired deadline
or a spec term that does not lower.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from .backend.codegen import emit_c
from .backend.lower import lower_spec_program
from .chaos.inject import chaos_point
from .backend.lvn import optimize as lvn_optimize
from .backend.vir import Program
from .costs import CostConfig, DiospyrosCostModel, ScalarOnlyCostModel
from .dsl.ast import Term, unique_size
from .egraph.egraph import EGraph
from .egraph.extract import CostFunction, ExtractionResult, Extractor
from .egraph.rewrite import Rewrite
from .egraph.runner import Runner, RunReport
from .errors import (
    CompileDiagnostics,
    CompileError,
    DeadlineExceededError,
    LiftError,
    LoweringError,
    SaturationError,
)
from .frontend.lift import Shape, Spec, lift
from .phases import PhasePlan, PlanReport, default_plan, execute_plan
from .observability import (
    Observability,
    ObservabilityData,
    ObservabilitySession,
    activate,
    count,
    current_session,
    span,
    write_compile_artifacts,
)
from .rules import build_ruleset
from .validation.validate import ValidationResult, validate

__all__ = ["CompileOptions", "CompileResult", "compile_spec", "compile_kernel"]


@dataclass(frozen=True)
class CompileOptions:
    """Configuration of one compilation (paper Section 5.2 defaults:
    width 4, AC off, 3-minute saturation timeout, node limit)."""

    vector_width: int = 4
    #: Saturation budget.  The paper uses 180 s / 10M nodes; our
    #: defaults are scaled to a pure-Python engine (see EXPERIMENTS.md
    #: for the budget mapping used in each experiment).
    iter_limit: int = 40
    node_limit: int = 400_000
    time_limit: Optional[float] = 60.0
    #: Backoff-scheduler per-rule match budget (egg's
    #: ``BackoffScheduler``): a rule producing more matches than this
    #: in one iteration is banned for exponentially growing stretches.
    #: ``None`` keeps banning off (stats are still collected).
    match_limit: Optional[int] = None
    #: Vector rules on or off (the Section 5.6 ablation turns them off).
    enable_vector_rules: bool = True
    extra_rules: Tuple[Rewrite, ...] = ()
    #: Run translation validation on the extracted program.
    validate: bool = True
    #: Record peak memory with tracemalloc (small overhead; Table 1
    #: wants it, unit tests may turn it off).  The reported peak is
    #: the compile's own: traced peak minus the traced size at entry.
    #: A trace the caller started keeps running, but its peak is reset
    #: (``tracemalloc.reset_peak``).
    track_memory: bool = False
    #: Candidate selection: additionally extract with the scalar
    #: (term-size) cost model and keep whichever lowered kernel has the
    #: lower static cycle count.  This implements the improvement the
    #: paper itself proposes for the 4/21 kernels where "the
    #: non-vectorized code is actually faster ... Diospyros could
    #: improve on these cases with a better cost model that reflects
    #: the overheads of vector packing" (Section 5.6).  Off by default
    #: so the main evaluation matches the paper's compiler.
    select_best_candidate: bool = False
    #: Iterations between persistent saturation checkpoints (see
    #: ``checkpoint_dir``).  A stride > 1 amortizes the write; a resume
    #: then redoes at most ``checkpoint_stride - 1`` iterations.
    checkpoint_stride: int = 4
    #: Seed for every randomized differential check downstream of this
    #: compilation (validation's random-testing lanes, the evaluation
    #: harness's correctness probes, the fuzz oracle).  The default
    #: matches the seed validator's historical ``random.Random(1234)``;
    #: retries derive ``seed + retry_index`` so repeated runs are
    #: reproducible but not identical.
    seed: int = 1234
    #: Directory for persistent saturation checkpoints (DESIGN.md §11).
    #: When set, the runner serializes its end-of-iteration state to a
    #: content-keyed file under this directory every
    #: ``checkpoint_stride`` iterations, and a compile that finds a
    #: surviving checkpoint (a previous worker died mid-saturation)
    #: resumes from it instead of iteration 0.  The file is consumed
    #: (deleted) when saturation completes.  ``None`` keeps the feature
    #: off.  Excluded from cache/checkpoint fingerprints: it names
    #: *where* recovery state lives, not *what* is being compiled.
    checkpoint_dir: Optional[str] = None
    #: Absolute end-to-end deadline on the ``time.time()`` scale (the
    #: one clock a forked worker shares with its supervisor).  When
    #: set, ``compile_spec`` clamps the saturation ``time_limit`` to
    #: the residual budget at entry (the phased path re-clamps every
    #: round and starts none past the deadline) and raises a typed
    #: :class:`repro.errors.DeadlineExceededError` when the budget is
    #: already gone; the supervisor additionally sheds the request
    #: *before* forking a worker and clamps retry backoff sleeps so a
    #: retry can never sleep past the deadline.  Excluded from cache
    #: and checkpoint fingerprints: it says when the client stops
    #: caring, not what is being compiled.
    deadline: Optional[float] = None
    #: Observability switchboard (span tracing, metrics, saturation
    #: flight recorder -- see ``repro/observability/`` and DESIGN.md
    #: §9).  ``None`` or ``Observability(enabled=False)`` keeps the
    #: subsystem fully inert: no tracer, registry, or recorder is ever
    #: constructed and instrumentation sites cost one context-variable
    #: read.  The config is picklable and crosses the sandbox-worker
    #: boundary; the captured data rides back on
    #: ``CompileResult.observability``.
    observability: Optional[Observability] = None
    #: Sketch-guided phased saturation (DESIGN.md §13).  ``"auto"``
    #: switches to the phased path when the spec's unique-term size
    #: reaches :data:`PHASE_THRESHOLD` (large kernels whose monolithic
    #: run would blow the node budget); ``"on"`` forces it; ``"off"``
    #: always saturates monolithically.  Kernels below the threshold
    #: are untouched by ``"auto"`` -- their extraction stays
    #: byte-identical to ``"off"``.
    phases: str = "auto"

    def cost_model(self) -> CostFunction:
        return DiospyrosCostModel(CostConfig(vector_width=self.vector_width))

    def scaled(self, factor: float) -> "CompileOptions":
        """These options with the node and time budgets scaled by
        ``factor``, never below :data:`MIN_NODE_LIMIT` and
        :data:`MIN_TIME_LIMIT`.  The one budget-shrinking rule of the
        supervisor's retries, the gateway's brownout and the
        evaluation's halved-budget retry."""
        changes: Dict[str, object] = {
            "node_limit": max(MIN_NODE_LIMIT, int(self.node_limit * factor))
        }
        if self.time_limit is not None:
            changes["time_limit"] = max(MIN_TIME_LIMIT, self.time_limit * factor)
        return dataclasses.replace(self, **changes)


#: Floors of :meth:`CompileOptions.scaled`: below these a shrunk
#: budget cannot produce anything worth the attempt.
MIN_NODE_LIMIT = 1_000
MIN_TIME_LIMIT = 0.25

#: ``phases="auto"`` engagement threshold on ``unique_size(spec.term)``.
#: 2000 sits above every paper-table kernel (max 1868) and below the
#: first kernels the monolithic path cannot finish (2DConv 8x8/4x4
#: seeds 2074 e-nodes, MatMul 16x16 seeds 8707).
PHASE_THRESHOLD = 2_000

#: Random-testing budget of the validation retry (ladder rung 4).
VALIDATION_RETRY_TRIALS = 32


@dataclass
class CompileResult:
    """Everything one compilation produced."""

    spec: Spec
    options: CompileOptions
    optimized: Term
    cost: float
    report: RunReport
    program: Program
    program_unoptimized: Program
    c_code: str
    compile_time: float
    egraph_nodes: int
    egraph_classes: int
    peak_memory_bytes: Optional[int] = None
    validation: Optional[ValidationResult] = None
    #: Per-stage timings, retries, and the degradation ladder steps
    #: taken (see repro/errors.py).  Always populated.
    diagnostics: CompileDiagnostics = field(default_factory=CompileDiagnostics)
    #: Captured spans / metrics / flight-recorder dump when
    #: ``options.observability`` was enabled (picklable, so it survives
    #: the sandbox-worker pipe; the supervisor re-parents the spans
    #: into its own trace).  ``None`` when observability was off.
    observability: Optional[ObservabilityData] = None
    #: Per-phase execution report when the compile ran the phased
    #: saturation path (``None`` for monolithic compiles).
    phases: Optional[PlanReport] = None

    @property
    def timed_out(self) -> bool:
        return self.report.timed_out

    @property
    def degraded(self) -> bool:
        """True when any stage failed and a fallback was used.  A
        degraded result is runnable but may be unvectorized,
        unvalidated, or extracted from a partially rewritten e-graph --
        downstream consumers must check this flag."""
        return self.diagnostics.degraded

    @property
    def validated(self) -> bool:
        return self.validation is not None and self.validation.ok

    def summary(self) -> str:
        mem = (
            f", peak {self.peak_memory_bytes / 1e6:.0f} MB"
            if self.peak_memory_bytes is not None
            else ""
        )
        flag = " (timeout)" if self.timed_out else ""
        if self.degraded:
            flag += " (degraded)"
        if self.phases is not None:
            flag += f" (phased: {self.phases.plan_name})"
        return (
            f"{self.spec.name}: {self.compile_time:.2f}s{flag}, "
            f"{self.egraph_nodes} nodes, cost {self.cost:.1f}, "
            f"{len(self.program)} IR instrs{mem}"
        )


class _StageClock:
    """Times each pipeline stage into the diagnostics record, and --
    when observability is active -- mirrors each stage as a span plus a
    ``repro_stage_seconds`` histogram sample."""

    def __init__(self, diag: CompileDiagnostics) -> None:
        self.diag = diag
        self.stage = ""
        self._start = 0.0
        self._handle = None
        self._span = None

    def begin(self, stage: str) -> None:
        self.stage = stage
        self._start = time.perf_counter()
        self._handle = span(stage, kernel=self.diag.kernel)
        self._span = self._handle.__enter__()

    def end(self, ok: bool = True, error: str = "") -> None:
        elapsed = time.perf_counter() - self._start
        self.diag.record_stage(self.stage, elapsed, ok, error)
        if self._span is not None:
            self._span.ok = ok
            if error:
                self._span.set(error=error)
        if self._handle is not None:
            self._handle.__exit__(None, None, None)
            self._handle = None
            self._span = None
        session = current_session()
        if session is not None and session.metrics is not None:
            session.metrics.histogram(
                "repro_stage_seconds",
                "Pipeline stage wall-clock seconds",
                labels=("stage",),
            ).labels(stage=self.stage).observe(elapsed)

    def abort(self, exc: BaseException) -> None:
        """Close an open stage span when its stage raised (the staged
        exception path never reaches :meth:`end`)."""
        if self._handle is not None:
            self.diag.record_stage(
                self.stage, time.perf_counter() - self._start, ok=False,
                error=f"{type(exc).__name__}: {exc}",
            )
            self._handle.__exit__(type(exc), exc, exc.__traceback__)
            self._handle = None
            self._span = None


def compile_spec(spec: Spec, options: Optional[CompileOptions] = None) -> CompileResult:
    """Compile a lifted spec through saturation, extraction, lowering,
    and validation, degrading gracefully on stage failures (see the
    module docstring for the ladder).

    When ``options.observability`` is enabled the whole pipeline runs
    under a root ``compile`` span, the flight recorder captures the
    saturation loop, and the collected data is attached to
    ``CompileResult.observability`` (or, when the compile raises, to
    ``CompileError.partial['observability']`` and the configured
    post-mortem directory) -- a failed compile still leaves a black box
    to read.
    """
    with _COLLECTOR_PAUSE:
        return _compile_spec(spec, options or CompileOptions())


class _CollectorPause:
    """Pauses automatic cyclic garbage collection while any compile in
    the process runs (DESIGN.md §8, "No reference cycles, no collector
    passes").

    The compile path frees everything it drops by reference counting,
    so a collector pass during a compile finds nothing and only costs a
    walk over the live e-graph.  The pause is process-wide, as the
    collector's state is, and reentrant: the first entry disables the
    collector, and the last exit re-enables it only if it was enabled
    at the first entry, so a caller that disabled it keeps it disabled.
    A lock makes entries from several threads (a ``compile_many`` pool,
    the gateway's executor) count as one pause.  A child forked while
    another thread holds the pause starts with it released and with a
    fresh lock, since that thread does not exist in the child.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False
        os.register_at_fork(
            before=self._before_fork,
            after_in_parent=self._after_fork_in_parent,
            after_in_child=self._after_fork_in_child,
        )

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._resume:
                gc.enable()

    def _before_fork(self) -> None:
        self._lock.acquire()

    def _after_fork_in_parent(self) -> None:
        self._lock.release()

    def _after_fork_in_child(self) -> None:
        self._lock = threading.Lock()
        if self._depth:
            self._depth = 0
            if self._resume:
                gc.enable()


_COLLECTOR_PAUSE = _CollectorPause()


def _compile_spec(spec: Spec, options: CompileOptions) -> CompileResult:
    options = _clamp_to_deadline(spec, options)
    obs = options.observability
    if obs is None or not obs.enabled:
        return _compile_pipeline(spec, options)

    session = ObservabilitySession(obs)
    with activate(session):
        try:
            with span("compile", kernel=spec.name):
                result = _compile_pipeline(spec, options)
        except BaseException as exc:
            _export_failure(session, obs, spec, exc)
            raise
    data = session.export()
    result.observability = data
    failed = result.degraded or result.timed_out or result.report.errored
    write_compile_artifacts(data, obs, spec.name, failed=failed)
    return result


def _clamp_to_deadline(spec: Spec, options: CompileOptions) -> CompileOptions:
    """Deadline propagation, compiler side: fold the residual budget of
    ``options.deadline`` into the cooperative saturation ``time_limit``
    (which the runner's :class:`~repro.egraph.scheduler.Deadline`
    already polls between and inside rule searches).  A deadline that
    has already passed raises the typed error instead of starting work
    that cannot finish -- the same contract the supervisor enforces
    before forking a worker."""
    if options.deadline is None:
        return options
    residual = options.deadline - time.time()
    if residual <= 0:
        raise DeadlineExceededError(
            f"deadline expired {-residual:.3f}s before compilation started",
            kernel=spec.name,
            deadline=options.deadline,
            residual=residual,
        )
    if options.time_limit is None or options.time_limit > residual:
        options = dataclasses.replace(options, time_limit=residual)
    return options


def _export_failure(
    session: ObservabilitySession,
    obs: Observability,
    spec: Spec,
    exc: BaseException,
) -> None:
    """Dump the flight recorder / trace for a compile that *raised*
    (for example, an unloweable spec): the post-mortem must survive the
    exception."""
    session.record_event(
        "compile_crashed", error=f"{type(exc).__name__}: {exc}"
    )
    count("repro_compiles_total", "Compilations finished, by outcome",
          status="error")
    data = session.export()
    write_compile_artifacts(data, obs, spec.name, failed=True)
    if isinstance(exc, CompileError):
        exc.partial.setdefault("observability", data)


def _compile_pipeline(
    spec: Spec, options: CompileOptions
) -> CompileResult:
    diag = CompileDiagnostics(kernel=spec.name)
    clock = _StageClock(diag)
    own_trace = options.track_memory and not tracemalloc.is_tracing()
    if own_trace:
        tracemalloc.start()
    if options.track_memory:
        # A caller's running trace keeps running; its peak is reset.
        entry_bytes = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
    start = time.perf_counter()
    try:
        # ------------------------------------------------------ saturation
        clock.begin("saturation")
        egraph, root, report, plan_report = _saturate(spec, options, diag)
        clock.end(ok=not report.errored, error=report.error or "")

        # ------------------------------------------------------ extraction
        clock.begin("extraction")
        extraction = _extract(egraph, root, spec, options, diag)
        clock.end()

        # ------------------------------------------------------- lowering
        clock.begin("lowering")
        extraction, unoptimized, program = _lower(
            egraph, root, spec, options, diag, extraction
        )
        c_code = emit_c(program)
        clock.end()

        # ------------------------------------------------------ validation
        validation = None
        if options.validate:
            clock.begin("validation")
            validation = _validate(spec, extraction.term, options, diag)
            clock.end(ok=validation is not None)

        compile_time = time.perf_counter() - start
        peak = None
        if options.track_memory:
            # The compile's own peak, net of what was traced at entry.
            peak = max(0, tracemalloc.get_traced_memory()[1] - entry_bytes)

        result = CompileResult(
            spec=spec,
            options=options,
            optimized=extraction.term,
            cost=extraction.cost,
            report=report,
            program=program,
            program_unoptimized=unoptimized,
            c_code=c_code,
            compile_time=compile_time,
            egraph_nodes=egraph.num_nodes,
            egraph_classes=egraph.num_classes,
            peak_memory_bytes=peak,
            validation=validation,
            diagnostics=diag,
            phases=plan_report,
        )
        _record_compile_metrics(result)
        return result
    except BaseException as exc:
        # Close a stage span left open by a staged exception so the
        # trace of a failed compile still exports completely.
        clock.abort(exc)
        raise
    finally:
        # Stop only a trace this compile started, also when a stage
        # raised.
        if own_trace:
            tracemalloc.stop()


def _record_compile_metrics(result: CompileResult) -> None:
    session = current_session()
    if session is None:
        return
    if session.metrics is not None:
        status = (
            "degraded"
            if result.degraded
            else ("timeout" if result.timed_out else "ok")
        )
        count("repro_compiles_total", "Compilations finished, by outcome",
              status=status)
        session.metrics.histogram(
            "repro_egraph_nodes",
            "Final e-graph size per compile",
            buckets=(100, 1_000, 10_000, 100_000, 1_000_000),
        ).observe(result.egraph_nodes)
        session.metrics.histogram(
            "repro_compile_seconds",
            "End-to-end compile wall-clock seconds",
        ).observe(result.compile_time)
    if session.recorder is not None:
        session.recorder.record_stop(result.report.stop_reason)


# ----------------------------------------------------------------------
# Pipeline stages
# ----------------------------------------------------------------------


def _selected_plan(spec: Spec, options: CompileOptions) -> Optional[PhasePlan]:
    """Decide whether this compile saturates in phases; when it does,
    the plan is the shipped :func:`repro.phases.default_plan` for the
    vector width.  ``"auto"`` engages only at :data:`PHASE_THRESHOLD` so
    every paper-sized kernel keeps the monolithic trajectory (and its
    byte-identical extractions); vector rules off implies monolithic
    (the default plan's phases are vectorization stages)."""
    mode = options.phases
    if mode not in ("auto", "on", "off"):
        raise SaturationError(
            f"options.phases must be 'auto', 'on', or 'off', got {mode!r}",
            kernel=spec.name,
        )
    if mode == "off" or not options.enable_vector_rules:
        return None
    if mode == "auto" and unique_size(spec.term) < PHASE_THRESHOLD:
        return None
    return default_plan(options.vector_width)


def _saturate(
    spec: Spec, options: CompileOptions, diag: CompileDiagnostics
) -> Tuple[EGraph, int, RunReport, Optional[PlanReport]]:
    """Build the e-graph and run equality saturation.  A crashed run
    leaves the graph in its last consistent rebuilt state; rung 1 of
    the ladder records the degradation and extraction proceeds.

    Large kernels route through the phased executor (see
    :func:`_selected_plan`); its failure handling adds a ladder rung of
    its own: a failed phase falls back to the *last successful phase's*
    extracted term -- still partially vectorized -- before the generic
    scalar/spec-term rungs further down the pipeline."""
    plan = _selected_plan(spec, options)
    if plan is not None:
        return _saturate_phased(spec, options, diag, plan)
    try:
        rules = build_ruleset(
            width=options.vector_width,
            enable_vector=options.enable_vector_rules,
            extra_rules=list(options.extra_rules),
        )
        egraph = EGraph()
        root = egraph.add_term(spec.term)
    except Exception as exc:
        raise SaturationError(
            f"ruleset/e-graph construction failed: {exc}", kernel=spec.name
        ) from exc

    persist = None
    if options.checkpoint_dir:
        # Lazy import: repro.service imports this module at load time.
        from .service.checkpoint import CheckpointStore

        persist = CheckpointStore(options.checkpoint_dir).checkpointer_for(
            spec, options
        )

    runner = Runner(
        rules,
        iter_limit=options.iter_limit,
        node_limit=options.node_limit,
        time_limit=options.time_limit,
        match_limit=options.match_limit,
        checkpoint_stride=options.checkpoint_stride,
        persist=persist,
    )
    report = runner.run(egraph)
    if report.errored:
        diag.degrade(
            "saturation",
            f"rule {report.failed_rule or '?'} crashed: {report.error}",
            "extracting from the last consistent e-graph",
        )
    return egraph, root, report, None


def _saturate_phased(
    spec: Spec,
    options: CompileOptions,
    diag: CompileDiagnostics,
    plan: PhasePlan,
) -> Tuple[EGraph, int, RunReport, Optional[PlanReport]]:
    """Saturation via the phase executor (DESIGN.md §13).

    A failed phase (a crashed rule) degrades to the **last successful
    phase's extracted term**: the compile keeps every rewrite the
    completed phases earned instead of dropping straight to the
    scalar/spec-term rungs.  The fallback program's node list is
    re-seeded into a fresh graph so the downstream extraction rungs
    operate exactly as they would on a monolithic result.
    """
    try:
        execution = execute_plan(spec, options, plan)
    except Exception as exc:
        raise SaturationError(
            f"phase execution failed: {exc}",
            kernel=spec.name,
            partial={"plan": repr(plan)},
        ) from exc
    if not execution.failed:
        return (
            execution.egraph,
            execution.root,
            execution.report,
            execution.plan_report,
        )
    if execution.fallback_nodes is not None:
        diag.degrade(
            "saturation",
            execution.failure,
            "falling back to the last successful phase's extracted term",
        )
        egraph = EGraph()
        root = egraph.add_term(execution.fallback_nodes)
        execution.report.nodes = egraph.num_nodes
        execution.report.classes = egraph.num_classes
        return egraph, root, execution.report, execution.plan_report
    # The very first phase failed: there is no boundary term to fall
    # back to, so extraction proceeds from the failed phase's graph
    # (rungs 2/3 downstream still apply).
    diag.degrade(
        "saturation",
        execution.failure,
        "extracting from the failed phase's e-graph",
    )
    return execution.egraph, execution.root, execution.report, execution.plan_report


def _extract(
    egraph: EGraph,
    root: int,
    spec: Spec,
    options: CompileOptions,
    diag: CompileDiagnostics,
) -> ExtractionResult:
    """Extraction with the vector cost model, degrading to the scalar
    model (rung 2) and finally the unrewritten spec term (rung 3)."""
    try:
        chaos_point("extract.start")
        extraction = Extractor(egraph, options.cost_model()).extract(root)
    except Exception as exc:
        diag.degrade(
            "extraction",
            f"vector-cost extraction failed: {exc}",
            "falling back to scalar-only extraction",
        )
        try:
            extraction = Extractor(egraph, ScalarOnlyCostModel()).extract(root)
        except Exception as exc2:
            diag.degrade(
                "extraction",
                f"scalar-only extraction failed: {exc2}",
                "using the unrewritten spec term",
            )
            extraction = ExtractionResult(term=spec.term, cost=float("inf"))
        return extraction

    if options.select_best_candidate:
        try:
            extraction = _pick_candidate(egraph, root, extraction, spec, options, diag)
        except Exception as exc:
            diag.degrade(
                "extraction",
                f"candidate selection failed: {exc}",
                "keeping the vector-cost extraction",
            )
    return extraction


def _lower(
    egraph: EGraph,
    root: int,
    spec: Spec,
    options: CompileOptions,
    diag: CompileDiagnostics,
    extraction: ExtractionResult,
) -> Tuple[ExtractionResult, Program, Program]:
    """Lower the extracted term, falling back to a scalar extraction
    (rung 2) and then the raw spec term (rung 3) so every compilation
    yields runnable IR."""

    def attempt(term: Term) -> Tuple[Program, Program]:
        unoptimized = lower_spec_program(spec, term, options.vector_width)
        return unoptimized, lvn_optimize(unoptimized)

    try:
        chaos_point("lower.start")
        unoptimized, program = attempt(extraction.term)
        return extraction, unoptimized, program
    except Exception as exc:
        diag.degrade(
            "lowering",
            f"lowering the vector-cost extraction failed: {exc}",
            "falling back to scalar-only extraction",
        )

    # Rung 2: the best purely scalar term still reflects the scalar
    # simplification rules that fired during saturation.
    try:
        scalar = Extractor(egraph, ScalarOnlyCostModel()).extract(root)
        if scalar.term != extraction.term:
            unoptimized, program = attempt(scalar.term)
            return scalar, unoptimized, program
    except Exception as exc:
        diag.swallow(f"scalar fallback lowering failed: {exc}")

    # Rung 3: the unrewritten spec term always lowers -- it is exactly
    # what the frontend lifted.  If even this raises, the spec itself
    # is unloweable and there is nothing to degrade to.
    diag.degrade(
        "lowering",
        "scalar fallback also failed to lower",
        "lowering the unrewritten spec term directly",
    )
    try:
        fallback = ExtractionResult(term=spec.term, cost=float("inf"))
        unoptimized, program = attempt(spec.term)
        return fallback, unoptimized, program
    except Exception as exc:
        raise LoweringError(
            f"even the unrewritten spec term failed to lower: {exc}",
            kernel=spec.name,
            partial={"term": spec.term},
        ) from exc


def _validate(
    spec: Spec,
    term: Term,
    options: CompileOptions,
    diag: CompileDiagnostics,
) -> Optional[ValidationResult]:
    """Validation with one escalated retry; a persistent crash marks
    the result degraded-unvalidated (rung 4) instead of raising.  A
    *negative verdict* is not a crash -- it is returned as-is."""
    try:
        return validate(spec, term, seed=options.seed)
    except Exception as exc:
        first_error = exc
    diag.retry("validation")
    try:
        # Escalated budget: more random trials can dodge e.g. a lane
        # whose canonical form crashed, at differential-testing cost.
        # The retry draws from a shifted seed so it explores different
        # samples instead of replaying the crashing ones.
        return validate(
            spec,
            term,
            random_trials=VALIDATION_RETRY_TRIALS,
            seed=options.seed + 1,
        )
    except Exception as exc:
        diag.unvalidated = True
        diag.degrade(
            "validation",
            f"validation crashed twice ({first_error}; retry: {exc})",
            "marking result degraded-unvalidated",
        )
        return None


def _pick_candidate(
    egraph: EGraph,
    root: int,
    vector_extraction: ExtractionResult,
    spec: Spec,
    options: CompileOptions,
    diag: Optional[CompileDiagnostics] = None,
) -> ExtractionResult:
    """Compare the vector-cost extraction against the best purely
    scalar extraction by static machine cycles; keep the cheaper
    kernel.  A candidate that fails to *lower* forfeits (recorded in
    the diagnostics); any other failure propagates to the caller."""
    from .machine.config import static_cycles

    alternative = Extractor(egraph, ScalarOnlyCostModel()).extract(root)
    if alternative.nodes == vector_extraction.nodes:
        return vector_extraction

    def cycles_of(term: Term) -> float:
        try:
            program = lvn_optimize(
                lower_spec_program(spec, term, options.vector_width)
            )
        except Exception as exc:
            raise LoweringError(
                f"candidate failed to lower: {exc}", kernel=spec.name
            ) from exc
        return static_cycles(program)

    try:
        if cycles_of(alternative.term) < cycles_of(vector_extraction.term):
            return alternative
    except LoweringError as exc:
        # Only lowering-stage failures are swallowed (the candidate
        # simply forfeits); the seed's bare ``except Exception`` also
        # hid cost-model and extraction bugs here.
        if diag is not None:
            diag.swallow(f"candidate selection: {exc}")
        return vector_extraction
    return vector_extraction


def compile_kernel(
    name: str,
    fn: Callable[..., None],
    inputs: Sequence[Tuple[str, Shape]],
    outputs: Sequence[Tuple[str, Shape]],
    options: Optional[CompileOptions] = None,
) -> CompileResult:
    """Lift a Python reference kernel and compile it.

    Lifting has nothing to degrade to (no spec exists yet), so a
    failure there always raises :class:`repro.errors.LiftError`.
    """
    try:
        spec = lift(name, fn, inputs, outputs)
    except CompileError:
        raise
    except Exception as exc:
        raise LiftError(
            f"symbolic evaluation of the reference kernel failed: {exc}",
            kernel=name,
        ) from exc
    return compile_spec(spec, options)
