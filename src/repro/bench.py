"""Stage-level performance benchmark harness (``repro bench``).

Runs a set of paper kernels plus fuzz-generated stress kernels through
the full lift -> saturate -> extract -> lower pipeline and records, per
kernel:

* per-stage wall-clock (saturation, extraction, lowering, total);
* e-graph growth (final nodes/classes, peak nodes, iterations);
* matcher work, by *deterministic counters*: candidate classes visited
  vs skipped by the dirty-set filter, compared against a full-rescan
  run of the same kernel;
* per-rule search statistics (matches, applied, search seconds, visit
  and skip counts, full rescans);
* the number of cross-iteration duplicate matches the runner dropped.

Every saturation runs with ``time_limit=None`` so the incremental and
full-rescan runs evolve the e-graph identically and the visited-class
ratio -- and the extracted term/cost identity check -- are exactly
reproducible; wall-clock numbers are reported for trend-watching, but
the regression *gate* primarily guards the counters, with a generous
2x slowdown threshold (and an absolute floor) on timings so CI noise
does not flap the job.

The result is written to ``BENCH_egraph.json``; see EXPERIMENTS.md for
how to read and update it, and ``benchmarks/bench_baseline.json`` for
the committed reference the CI perf-smoke job gates against.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .backend.lower import lower_spec_program
from .backend.lvn import optimize as lvn_optimize
from .compiler import CompileOptions
from .egraph.egraph import EGraph
from .egraph.extract import Extractor
from .egraph.runner import Runner, RunReport
from .frontend.lift import Spec
from .kernels import table1_kernels
from .rules import build_ruleset
from .validation.fuzz import random_spec

__all__ = [
    "BENCH_SCHEMA",
    "BenchGate",
    "bench_kernel",
    "bench_phased_kernel",
    "run_bench",
    "check_gate",
    "write_report",
]

BENCH_SCHEMA = "bench_egraph/v1"


def _git_commit() -> Optional[str]:
    """The repo's HEAD commit, for provenance in bench reports.  Never
    raises: outside a checkout (an installed wheel, a stripped CI
    artifact) provenance is simply absent."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    commit = out.stdout.strip()
    return commit or None

#: Table 1 kernels benchmarked in quick (CI) and full mode.
_QUICK_PAPER = [
    "matmul-2x2-2x2",
    "matmul-2x3-3x3",
    "2dconv-3x3-2x2",
    "2dconv-3x3-3x3",
]
_FULL_PAPER = _QUICK_PAPER + [
    "matmul-3x3-3x3",
    "matmul-4x4-4x4",
    "2dconv-3x5-3x3",
    "2dconv-4x4-3x3",
]
_QUICK_FUZZ = 2
_FULL_FUZZ = 6

#: Large kernels for the phased-vs-monolithic comparison (DESIGN.md
#: §13): sized so the default phase plan engages and the monolithic
#: path cannot reach the vectorized form within the phased node
#: budget.  Quick (CI) mode runs the 2DConv only; full mode adds the
#: 16x16 MatMul.
_QUICK_PHASED = ["2dconv-8x8-4x4"]
_FULL_PHASED = _QUICK_PHASED + ["matmul-16x16-16x16"]

#: Minimum stage duration (seconds) considered for the slowdown gate;
#: below this, timing noise dominates and the gate ignores the stage.
_GATE_FLOOR = 0.05
#: Maximum tolerated per-stage slowdown vs the committed baseline.
_GATE_MAX_SLOWDOWN = 2.0
#: Required dirty-set advantage on the largest kernel: the full-rescan
#: matcher must visit at least this many times more classes.
_GATE_MIN_VISIT_RATIO = 2.0


@dataclass
class BenchGate:
    """Outcome of the regression gate."""

    ok: bool = True
    failures: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.ok = False
        self.failures.append(message)


def _bench_options(quick: bool, seed: int) -> CompileOptions:
    # time_limit=None: determinism is the whole point (see module
    # docstring); the node/iteration limits bound the run instead.
    return CompileOptions(
        time_limit=None,
        iter_limit=20 if quick else 30,
        node_limit=60_000 if quick else 200_000,
        validate=False,
        seed=seed,
    )


def _saturate(
    spec: Spec, options: CompileOptions, incremental: bool
) -> Tuple[EGraph, int, RunReport, float]:
    rules = build_ruleset(width=options.vector_width)
    egraph = EGraph()
    root = egraph.add_term(spec.term)
    runner = Runner(
        rules,
        iter_limit=options.iter_limit,
        node_limit=options.node_limit,
        time_limit=options.time_limit,
        incremental=incremental,
        catch_errors=False,
    )
    start = time.perf_counter()
    report = runner.run(egraph)
    return egraph, root, report, time.perf_counter() - start


def _matcher_totals(report: RunReport) -> Tuple[int, int]:
    visited = sum(s.classes_visited for s in report.rule_stats.values())
    skipped = sum(s.classes_skipped for s in report.rule_stats.values())
    return visited, skipped


def bench_kernel(spec: Spec, options: CompileOptions) -> Dict:
    """Benchmark one kernel; returns its JSON-ready record.

    The kernel is saturated twice -- dirty-set incremental and full
    rescan -- from identical starting e-graphs, then extracted from
    both graphs to verify the incremental matcher changed nothing.
    """
    from .observability import span

    with span("bench.kernel", kernel=spec.name):
        return _bench_kernel(spec, options)


def _bench_kernel(spec: Spec, options: CompileOptions) -> Dict:
    egraph, root, report, saturate_s = _saturate(spec, options, incremental=True)
    full_graph, full_root, full_report, _ = _saturate(
        spec, options, incremental=False
    )

    start = time.perf_counter()
    extraction = Extractor(egraph, options.cost_model()).extract(root)
    extract_s = time.perf_counter() - start

    start = time.perf_counter()
    program = lvn_optimize(
        lower_spec_program(spec, extraction.term, options.vector_width)
    )
    lower_s = time.perf_counter() - start

    full_extraction = Extractor(full_graph, options.cost_model()).extract(
        full_root
    )
    identical = (
        extraction.term == full_extraction.term
        and abs(extraction.cost - full_extraction.cost) < 1e-9
    )

    visited, skipped = _matcher_totals(report)
    full_visited, _ = _matcher_totals(full_report)
    ratio = full_visited / visited if visited else float("inf")

    rules = {
        name: {
            "matches": s.matches,
            "applied": s.applied,
            "search_time": round(s.search_time, 6),
            "classes_visited": s.classes_visited,
            "classes_skipped": s.classes_skipped,
            "full_rescans": s.full_rescans,
        }
        for name, s in sorted(report.rule_stats.items())
    }

    return {
        "name": spec.name,
        "stages": {
            "saturate": round(saturate_s, 6),
            "extract": round(extract_s, 6),
            "lower": round(lower_s, 6),
            "total": round(saturate_s + extract_s + lower_s, 6),
        },
        "egraph": {
            "nodes": egraph.num_nodes,
            "classes": egraph.num_classes,
            "peak_nodes": max((it.nodes for it in report.iterations), default=0),
            "iterations": len(report.iterations),
            "stop_reason": report.stop_reason,
        },
        "matcher": {
            "incremental": {"visited": visited, "skipped": skipped},
            "full_rescan": {"visited": full_visited},
            "visit_ratio": round(ratio, 3),
            "extraction_identical": identical,
        },
        "rules": rules,
        "deduped": sum(it.deduped for it in report.iterations),
        "ir_instructions": len(program),
        "extracted_cost": extraction.cost,
    }


def bench_phased_kernel(name: str, seed: int) -> Dict:
    """Benchmark one large kernel phased vs monolithic vs naive.

    Three measurements per kernel:

    * **phased**: the default phase plan (``phases="on"``), validated,
      with the plan's per-phase rounds and peak cumulative node count;
    * **monolithic**: a single saturation run capped at the *largest
      node budget any phase round used* -- the apples-to-apples
      comparison the gate relies on: at the same budget the monolithic
      path must hit its node watchdog before reaching the vectorized
      form, while the phased path completes;
    * **naive**: the unvectorized baseline program's cycle count, the
      quality floor the phased result must strictly beat.
    """
    from .baselines import baseline_program
    from .compiler import compile_spec
    from .evaluation.common import measure
    from .kernels import get_kernel
    from .observability import span

    with span("bench.phased", kernel=name):
        kernel = get_kernel(name)
        spec = kernel.spec()

        phased_options = CompileOptions(
            time_limit=None, validate=True, phases="on", seed=seed
        )
        start = time.perf_counter()
        phased = compile_spec(spec, phased_options)
        phased_total_s = time.perf_counter() - start
        phased_cycles, phased_ok = measure(phased.program, kernel, seed)
        plan = phased.phases
        node_budget = max(
            (r.node_limit for p in plan.phases for r in p.rounds), default=0
        )

        mono_options = CompileOptions(
            time_limit=None,
            node_limit=node_budget,
            validate=False,
            phases="off",
            seed=seed,
        )
        start = time.perf_counter()
        mono = compile_spec(spec, mono_options)
        mono_s = time.perf_counter() - start
        mono_cycles, mono_ok = measure(mono.program, kernel, seed)

        naive = baseline_program("naive", kernel)
        naive_cycles, _ = measure(naive, kernel, seed)

        return {
            "name": name,
            "naive_cycles": naive_cycles,
            "phased": {
                "plan": plan.plan_name,
                "completed": plan.completed,
                "saturate_seconds": round(plan.total_time, 6),
                "total_seconds": round(phased_total_s, 6),
                "peak_nodes": plan.peak_version,
                "node_budget": node_budget,
                "cycles": phased_cycles,
                "correct": phased_ok,
                "validated": phased.validated,
                "phases": [
                    {
                        "name": p.name,
                        "rounds": len(p.rounds),
                        "peak_nodes": p.peak_version,
                        "satisfied": p.sketch_satisfied,
                        "outcome": p.outcome or "hit",
                    }
                    for p in plan.phases
                ],
            },
            "monolithic": {
                "saturate_seconds": round(mono_s, 6),
                "peak_nodes": mono.report.final_version,
                "stop_reason": mono.report.stop_reason,
                "timed_out": mono.report.timed_out,
                "cycles": mono_cycles,
                "correct": mono_ok,
            },
        }


def _bench_specs(quick: bool, seed: int, name_filter: str = "") -> List[Spec]:
    wanted = _QUICK_PAPER if quick else _FULL_PAPER
    by_name = {k.name: k for k in table1_kernels()}
    specs = [by_name[name].spec() for name in wanted if name in by_name]
    rng = random.Random(seed)
    n_fuzz = _QUICK_FUZZ if quick else _FULL_FUZZ
    specs.extend(
        random_spec(
            rng, index=i, max_inputs=3, max_input_len=8, max_outputs=8
        )
        for i in range(n_fuzz)
    )
    if name_filter:
        specs = [s for s in specs if name_filter in s.name]
    return specs


def run_bench(
    quick: bool = True,
    seed: int = 0,
    name_filter: str = "",
    phased: bool = True,
) -> Dict:
    """Run the benchmark suite; returns the full JSON-ready report."""
    options = _bench_options(quick, seed)
    kernels = [
        bench_kernel(spec, options)
        for spec in _bench_specs(quick, seed, name_filter)
    ]
    largest = max(
        kernels, key=lambda k: k["egraph"]["nodes"], default=None
    )
    phased_names = _QUICK_PHASED if quick else _FULL_PHASED
    if name_filter:
        phased_names = [n for n in phased_names if name_filter in n]
    phased_entries = (
        [bench_phased_kernel(n, seed) for n in phased_names] if phased else []
    )
    return {
        "schema": BENCH_SCHEMA,
        "git_commit": _git_commit(),
        "quick": quick,
        "seed": seed,
        "kernels": kernels,
        "largest_kernel": largest["name"] if largest else None,
        "phased": phased_entries,
    }


def check_gate(report: Dict, baseline: Optional[Dict] = None) -> BenchGate:
    """Regression gate: deterministic counters always, timings when a
    baseline is supplied.

    Refuses to compare across schema versions: a report or baseline
    whose ``schema`` is not :data:`BENCH_SCHEMA` fails the gate outright
    rather than silently gating incomparable numbers."""
    gate = BenchGate()

    schema = report.get("schema")
    if schema != BENCH_SCHEMA:
        gate.fail(
            f"report schema {schema!r} does not match {BENCH_SCHEMA!r}; "
            "re-run `repro bench` with this tree"
        )
        return gate
    if baseline is not None:
        base_schema = baseline.get("schema")
        if base_schema != BENCH_SCHEMA:
            gate.fail(
                f"baseline schema {base_schema!r} does not match "
                f"{BENCH_SCHEMA!r}; regenerate benchmarks/bench_baseline.json"
            )
            return gate

    largest_name = report.get("largest_kernel")
    for kernel in report["kernels"]:
        matcher = kernel["matcher"]
        if not matcher["extraction_identical"]:
            gate.fail(
                f"{kernel['name']}: incremental and full-rescan runs "
                "extracted different terms/costs"
            )
        if (
            kernel["name"] == largest_name
            and matcher["visit_ratio"] < _GATE_MIN_VISIT_RATIO
        ):
            gate.fail(
                f"{kernel['name']}: dirty-set matcher visited only "
                f"{matcher['visit_ratio']}x fewer classes than full "
                f"rescan (require >= {_GATE_MIN_VISIT_RATIO}x)"
            )

    # Phased-saturation dichotomy (DESIGN.md §13): the phased run must
    # complete, validate, and strictly beat the naive baseline, while a
    # monolithic run capped at the same node budget must fail to finish.
    for entry in report.get("phased", []):
        name = entry["name"]
        phased = entry["phased"]
        mono = entry["monolithic"]
        if not phased["completed"]:
            gate.fail(f"{name}: phase plan {phased['plan']} did not complete")
        if not phased["validated"] or not phased["correct"]:
            gate.fail(
                f"{name}: phased output failed validation "
                f"(validated={phased['validated']}, correct={phased['correct']})"
            )
        if not phased["cycles"] < entry["naive_cycles"]:
            gate.fail(
                f"{name}: phased cycles {phased['cycles']} not below the "
                f"naive baseline {entry['naive_cycles']}"
            )
        if not mono["timed_out"]:
            gate.fail(
                f"{name}: monolithic saturation at the phased node budget "
                f"unexpectedly completed (stop={mono['stop_reason']}); the "
                "phased path no longer demonstrates an advantage"
            )

    if baseline is not None:
        base_kernels = {k["name"]: k for k in baseline.get("kernels", [])}
        for kernel in report["kernels"]:
            base = base_kernels.get(kernel["name"])
            if base is None:
                continue
            for stage, seconds in kernel["stages"].items():
                base_s = base["stages"].get(stage)
                if base_s is None:
                    continue
                slowdown = seconds / max(base_s, _GATE_FLOOR)
                if seconds > _GATE_FLOOR and slowdown > _GATE_MAX_SLOWDOWN:
                    gate.fail(
                        f"{kernel['name']}/{stage}: {seconds:.3f}s is "
                        f"{slowdown:.2f}x the baseline {base_s:.3f}s "
                        f"(limit {_GATE_MAX_SLOWDOWN}x)"
                    )
        base_phased = {e["name"]: e for e in baseline.get("phased", [])}
        for entry in report.get("phased", []):
            base = base_phased.get(entry["name"])
            if base is None:
                continue
            cycles = entry["phased"]["cycles"]
            base_cycles = base["phased"]["cycles"]
            # Cycle counts are deterministic: any increase is a real
            # quality regression, not noise.
            if cycles > base_cycles:
                gate.fail(
                    f"{entry['name']}: phased cycles regressed "
                    f"{base_cycles} -> {cycles}"
                )
            seconds = entry["phased"]["saturate_seconds"]
            base_s = base["phased"]["saturate_seconds"]
            slowdown = seconds / max(base_s, _GATE_FLOOR)
            if seconds > _GATE_FLOOR and slowdown > _GATE_MAX_SLOWDOWN:
                gate.fail(
                    f"{entry['name']}/phased-saturate: {seconds:.3f}s is "
                    f"{slowdown:.2f}x the baseline {base_s:.3f}s "
                    f"(limit {_GATE_MAX_SLOWDOWN}x)"
                )
    return gate


def write_report(report: Dict, gate: BenchGate, path: str) -> None:
    payload = dict(report)
    payload["gate"] = {"ok": gate.ok, "failures": gate.failures}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
