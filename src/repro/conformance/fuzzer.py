"""Fuzzing campaigns over the compiler: blind random and
coverage-guided.

Each campaign feeds kernels to the differential oracle of
:mod:`repro.validation.fuzz` (:func:`~repro.validation.fuzz.random_spec`
generates the fresh kernels, :func:`~repro.validation.fuzz.check_result`
checks each compile).  Guided mode adds a feedback loop:

1. compile a kernel under full observability and extract its behavior
   features (:func:`repro.conformance.coverage.result_features`);
2. a kernel that exhibited *any* new feature is kept as a seed in the
   corpus (:class:`repro.conformance.corpus.Corpus`);
3. most subsequent kernels are mutations of kept seeds (biased toward
   recent ones, which sit at the coverage frontier) rather than fresh
   random samples.

``mode="random"`` runs the identical loop with retention and mutation
disabled.  It is the blind fuzz campaign CI's fuzz-smoke job runs
(``repro conformance random --budget 200 --seed 1``), and the ablation
baseline the acceptance test compares against: at the same seed and
budget, guided mode must reach a strictly larger coverage-map
cardinality.

Every campaign is deterministic for a fixed ``(budget, seed, mode,
options)``: RNG streams are domain-separated via
:func:`repro.seeding.stable_rng`, compiles run with ``time_limit=None``
and fixed iteration/node limits, and coverage features exclude all
timing.  Compile *crashes* are coverage too (an ``error:`` feature) --
a kernel that breaks the compiler is the most interesting seed of all.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..compiler import CompileOptions, compile_spec
from ..frontend.lift import Spec
from ..observability import Observability
from ..seeding import stable_rng
from ..validation.fuzz import FuzzDivergence, check_result, random_spec
from .corpus import Corpus, spec_key, spec_to_json
from .coverage import CoverageMap, result_features
from .mutate import mutate

__all__ = [
    "CampaignReport",
    "conformance_options",
    "run_campaign",
    "render_campaign_report",
    "campaign_to_json",
]

#: Bandit parameters for the guided generator-vs-mutator choice.
#: Novelty per arm is tracked as an exponential moving average; the
#: arm with the higher recent payoff wins, with a small epsilon of
#: forced exploration so a temporarily-cold arm can recover.
BANDIT_ALPHA = 0.25
BANDIT_EPSILON = 0.1
#: Optimistic initial estimate -- both arms start "promising" so the
#: first few pulls measure rather than assume.
BANDIT_INIT = 8.0


def conformance_options(seed: int = 0) -> CompileOptions:
    """Deterministic per-kernel compile budgets for campaigns.

    ``time_limit=None`` is load-bearing: a wall-clock limit makes stop
    reasons (and therefore coverage features) machine-dependent, which
    would break replay and the CI coverage gate.  Budget is bounded by
    fixed iteration and node limits instead.  Metrics and the flight
    recorder are on (they feed two coverage planes); spans are off --
    timing is excluded from features anyway.
    """
    return CompileOptions(
        time_limit=None,
        iter_limit=8,
        node_limit=4_000,
        validate=False,
        track_memory=False,
        seed=seed,
        observability=Observability.on(trace=False),
    )


@dataclass
class CampaignReport:
    """Outcome of one coverage-guided (or ablation-random) campaign."""

    mode: str
    budget: int
    seed: int
    executed: int = 0
    compiled: int = 0
    degraded: int = 0
    checked_trials: int = 0
    #: (kernel name, error) for kernels whose compilation raised.
    compile_failures: List[Tuple[str, str]] = field(default_factory=list)
    #: (spec, divergences) for kernels the differential oracle flagged.
    divergent: List[Tuple[Spec, List[FuzzDivergence]]] = field(
        default_factory=list
    )
    coverage: CoverageMap = field(default_factory=CoverageMap)
    #: Coverage cardinality after each executed kernel -- the plot CI
    #: artifacts carry, and what the guided-vs-random test compares.
    coverage_curve: List[int] = field(default_factory=list)
    #: Kernels retained this run because they extended coverage.
    seeds_kept: int = 0
    #: Total corpus size after the run (includes pre-existing seeds).
    corpus_size: int = 0
    truncated: bool = False
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergent

    @property
    def divergences(self) -> List[FuzzDivergence]:
        return [d for _, divs in self.divergent for d in divs]


def run_campaign(
    budget: int,
    seed: int = 0,
    mode: str = "guided",
    options: Optional[CompileOptions] = None,
    corpus_dir: Optional[str] = None,
    service=None,
    trials: int = 3,
    tolerance: float = 1e-5,
    time_budget: Optional[float] = None,
    max_depth: int = 3,
) -> CampaignReport:
    """Run ``budget`` kernels through the compile + differential-check
    loop, guided by the coverage map (or blind, ``mode="random"``).

    ``corpus_dir`` persists kept seeds across runs (nightly CI resumes
    from the accumulated corpus); ``service`` routes compilations
    through the sandboxed :class:`repro.service.CompileService` so a
    crashing kernel is a data point, not a dead campaign.
    """
    if mode not in ("guided", "random"):
        raise ValueError(f"unknown campaign mode: {mode!r}")
    guided = mode == "guided"
    options = options or conformance_options(seed)
    gen_rng = stable_rng(seed, "conformance-gen")
    mut_rng = stable_rng(seed, "conformance-mut")
    corpus = Corpus(corpus_dir if guided else None)
    kept: List[Spec] = corpus.seeds()
    report = CampaignReport(mode=mode, budget=budget, seed=seed)
    started = time.perf_counter()
    # Guided mode arbitrates generator-vs-mutator with a two-armed
    # bandit over recent novelty.  Early on, fresh random kernels are
    # feature-dense and the bandit keeps sampling them (tracking the
    # ablation baseline); once the random envelope saturates and its
    # payoff decays toward zero, mutation -- which can leave that
    # envelope -- takes over.  A fixed mutation fraction gets this
    # wrong in both phases.
    payoff = {"random": BANDIT_INIT, "mutate": BANDIT_INIT}
    executed_keys: set = set()

    for index in range(budget):
        if time_budget is not None and time.perf_counter() - started > time_budget:
            report.truncated = True
            break
        # Re-executing a byte-identical kernel cannot add coverage, so
        # guided mode resamples instead of burning budget on it (the
        # blind baseline has no memory, by construction).
        spec = None
        arm = "random"
        for _ in range(4):
            arm = "random"
            if guided and kept:
                if mut_rng.random() < BANDIT_EPSILON:
                    arm = ("random", "mutate")[mut_rng.randrange(2)]
                elif payoff["mutate"] > payoff["random"]:
                    arm = "mutate"
            if arm == "mutate":
                # Quadratic bias toward recently-kept seeds: they sit
                # at the coverage frontier, so their neighborhoods are
                # the most likely to contain further novelty.
                pick = len(kept) - 1 - int(mut_rng.random() ** 2 * len(kept))
                spec = mutate(kept[pick], mut_rng, name=f"conf-{index}")
            else:
                spec = random_spec(gen_rng, index, max_depth=max_depth)
            if not guided or spec_key(spec) not in executed_keys:
                break
        if guided:
            executed_keys.add(spec_key(spec))
        report.executed += 1

        features = None
        result = None
        try:
            if service is not None:
                result = service.compile_spec(spec, options)
            else:
                result = compile_spec(spec, options)
        except Exception as exc:  # noqa: BLE001 - campaign must continue
            report.compile_failures.append(
                (spec.name, f"{type(exc).__name__}: {exc}")
            )
            # A compiler crash is a behavior class in its own right --
            # and the seed most worth mutating further.
            features = {f"error:{type(exc).__name__}"}

        if result is not None:
            report.compiled += 1
            if result.degraded:
                report.degraded += 1
            features = result_features(result)

        new = report.coverage.add_all(features or ())
        if guided:
            payoff[arm] = (1 - BANDIT_ALPHA) * payoff[arm] + BANDIT_ALPHA * new
        if guided and new > 0:
            _, was_new = corpus.add(spec)
            if was_new:
                kept.append(spec)
                report.seeds_kept += 1
        report.coverage_curve.append(report.coverage.cardinality)

        if result is not None:
            check_rng = stable_rng(seed, "conformance-check", index)
            divergences = check_result(spec, result, check_rng, trials, tolerance)
            report.checked_trials += trials
            if divergences:
                report.divergent.append((spec, divergences))

    report.corpus_size = len(corpus)
    report.elapsed = time.perf_counter() - started
    return report


def render_campaign_report(
    report: CampaignReport, verbose: bool = False
) -> str:
    lines = [
        f"conformance campaign ({report.mode}): seed {report.seed}, "
        f"{report.executed}/{report.budget} kernels"
        + (" (TRUNCATED by time budget)" if report.truncated else ""),
        f"  compiled: {report.compiled} ({report.degraded} degraded, "
        f"{len(report.compile_failures)} compile failures)",
        f"  coverage: {report.coverage.cardinality} features "
        f"across planes {report.coverage.by_plane()}",
        f"  corpus: {report.seeds_kept} seeds kept this run, "
        f"{report.corpus_size} total",
        f"  differential trials: {report.checked_trials} "
        f"({report.elapsed:.1f}s elapsed)",
        f"  divergent kernels: {len(report.divergent)}",
    ]
    for spec, divergences in report.divergent:
        lines.append(f"  {spec.name}:")
        lines.extend(f"    {d}" for d in divergences)
    if verbose and report.compile_failures:
        lines.append("compile failures:")
        lines.extend(f"  {n}: {e}" for n, e in report.compile_failures)
    lines.append(
        "VERDICT: " + ("OK" if report.ok else "DIVERGENCE DETECTED")
    )
    return "\n".join(lines)


def campaign_to_json(report: CampaignReport) -> Dict:
    """JSON export for CI artifacts (coverage gate + divergence triage)."""
    return {
        "schema": "conformance_campaign/v1",
        "mode": report.mode,
        "budget": report.budget,
        "seed": report.seed,
        "executed": report.executed,
        "compiled": report.compiled,
        "degraded": report.degraded,
        "compile_failures": [list(x) for x in report.compile_failures],
        "coverage": report.coverage.to_json(),
        "coverage_curve": report.coverage_curve,
        "seeds_kept": report.seeds_kept,
        "corpus_size": report.corpus_size,
        "truncated": report.truncated,
        "divergent": [
            {
                "spec": spec_to_json(spec),
                "divergences": [vars(d) for d in divergences],
            }
            for spec, divergences in report.divergent
        ],
        "ok": report.ok,
    }


def write_campaign_json(report: CampaignReport, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(campaign_to_json(report), handle, indent=2, sort_keys=True)
        handle.write("\n")
