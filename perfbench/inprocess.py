"""Closed-loop in-process workloads: one caller compiles a fixed kernel
list through ``compile_spec``, pass after pass, until the run's time is
up.  Compiles use ``time_limit=None`` and the default node and
iteration limits, so the work done and the program emitted do not
depend on machine load."""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.compiler import CompileOptions, compile_spec
from repro.kernels import get_kernel
from repro.kernels.base import Kernel
from repro.seeding import stable_seed

from common import Outcome, Setup, check_programs
from calibrate import Calibrator
from spans import Tracer, compiler_layers, self_times

#: The 11 Table 1 kernels whose monolithic saturation completes
#: (QR 3x3 alone takes ~17 s and is left out).
TABLE1_SMALL = [
    "matmul-2x2-2x2",
    "matmul-2x3-3x3",
    "matmul-3x3-3x3",
    "matmul-4x4-4x4",
    "matmul-8x8-8x8",
    "2dconv-3x3-2x2",
    "2dconv-3x3-3x3",
    "2dconv-3x5-3x3",
    "2dconv-4x4-3x3",
    "2dconv-8x8-3x3",
    "qprod-4-3-4-3",
]

#: Kernels past ``phase_threshold``: ``phases="auto"`` saturates them in
#: phases, and matmul-16x16 stops on ``node_limit``.
LARGE_PHASED = ["2dconv-8x8-4x4", "matmul-16x16-16x16"]

KERNELS = {"table1-small": TABLE1_SMALL, "large-phased": LARGE_PHASED}

#: Compiled once during set-up so lazy imports and first-call costs are
#: paid before timing starts.
WARMUP_KERNEL = "matmul-2x2-2x2"


def compile_options(seed: int) -> CompileOptions:
    return CompileOptions(
        time_limit=None,
        validate=True,
        seed=stable_seed(seed, "perfbench-validate") % (1 << 31),
    )


def setup(names: List[str], seed: int, tracer: Optional[Tracer] = None) -> Setup:
    """Kernel construction, lift, and one warm-up compile."""
    start = time.perf_counter()
    kernels = [get_kernel(name) for name in names]
    lift_s = 0.0
    for kernel in kernels:
        t = time.perf_counter()
        if tracer is not None:
            with tracer.span("frontend.lift", request=f"lift:{kernel.name}"):
                kernel.spec()
        else:
            kernel.spec()
        lift_s += time.perf_counter() - t
    compile_spec(get_kernel(WARMUP_KERNEL).spec(), compile_options(seed))
    return Setup(kernels=kernels, seconds=time.perf_counter() - start, lift_s=lift_s)


@dataclass
class CompileRecord:
    kernel: str
    pass_index: int
    traced: bool
    start: float
    end: float
    error: Optional[str] = None
    validated: bool = False
    degraded: bool = False
    fingerprint: str = ""
    layers: Dict[str, float] = field(default_factory=dict)
    #: Wall time scaled by the machine-speed probes around it.
    seconds: float = 0.0


def _result_layers(result) -> Dict[str, float]:
    """Per-layer counts read from public result fields."""
    lanes = result.validation.lanes if result.validation is not None else []
    layers = {
        "backend.ir_instrs": len(result.program),
        "backend.ir_instrs_unoptimized": len(result.program_unoptimized),
        "validation.lanes": len(lanes),
        "validation.random_lanes": sum(1 for lane in lanes if lane.method == "random"),
        "phases.rounds": 0,
        "phases.phases": 0,
        "phases.sketch_hits": 0,
    }
    if result.phases is not None:
        layers["phases.rounds"] = sum(len(p.rounds) for p in result.phases.phases)
        layers["phases.phases"] = len(result.phases.phases)
        layers["phases.sketch_hits"] = sum(
            1 for p in result.phases.phases if p.sketch_satisfied
        )
    return layers


def _compile_one(kernel: Kernel, options: CompileOptions, pass_index: int,
                 tracer: Optional[Tracer], programs: Dict) -> CompileRecord:
    request = f"p{pass_index}:{kernel.name}"
    start = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span("compile", request=request):
                result = compile_spec(kernel.spec(), options)
        else:
            result = compile_spec(kernel.spec(), options)
    except Exception as exc:  # noqa: BLE001 - a raised compile is a counted failure
        return CompileRecord(kernel.name, pass_index, tracer is not None,
                             start, time.perf_counter(),
                             error=f"{type(exc).__name__}: {exc}")
    end = time.perf_counter()
    fingerprint = result.program.fingerprint()
    programs.setdefault((kernel.name, fingerprint), result.program)
    return CompileRecord(
        kernel=kernel.name,
        pass_index=pass_index,
        traced=tracer is not None,
        start=start,
        end=end,
        validated=result.validated,
        degraded=result.degraded,
        fingerprint=fingerprint,
        layers=_result_layers(result) if tracer is not None else {},
    )


def run(names: List[str], seed: int, seconds: float, trace: bool,
        tracer: Tracer, setup_result: Setup) -> Outcome:
    """Compile every kernel once per pass until ``seconds`` have passed.

    Each compile's latency is its wall time scaled by the machine-speed
    probes around it; a pass's time is the sum over its compiles.
    Traced runs alternate untraced and traced passes so the tracing
    overhead is measured on the same machine state."""
    kernels = setup_result.kernels
    options = compile_options(seed)
    programs: Dict = {}
    records: List[CompileRecord] = []
    calibrator = Calibrator()
    started = time.perf_counter()
    pass_index = 0
    while pass_index == 0 or time.perf_counter() - started < seconds or (
        trace and pass_index < 2
    ):
        traced = trace and pass_index % 2 == 1
        calibrator.measure()
        for kernel in kernels:
            # Every compile starts from an empty young generation, so the
            # collector runs at the same allocation points each time.
            gc.collect()
            if traced:
                with compiler_layers(tracer):
                    records.append(_compile_one(kernel, options, pass_index, tracer, programs))
            else:
                records.append(_compile_one(kernel, options, pass_index, None, programs))
            calibrator.maybe_measure()
        pass_index += 1
    calibrator.measure()
    for record in records:
        record.seconds = calibrator.scaled(record.start, record.end)
    pass_seconds: Dict[bool, List[float]] = {False: [], True: []}
    for index in range(pass_index):
        mine = [r for r in records if r.pass_index == index]
        pass_seconds[mine[0].traced].append(sum(r.seconds for r in mine))

    checks = check_programs(programs, {k.name: k for k in kernels}, seed)
    outcome = Outcome(attempted=len(records))
    for record in records:
        reason = record.error
        if reason is None and not record.validated:
            reason = "unvalidated"
        if reason is None and record.degraded:
            reason = "degraded"
        if reason is None and not checks[(record.kernel, record.fingerprint)].ok:
            reason = "wrong output"
        if reason is not None:
            outcome.fail(f"{record.kernel} pass {record.pass_index}: {reason}",
                         untrusted=record.error is None)
    outcome.kernels = _kernel_rows(names, records, checks)
    outcome.samples_ms = [r.seconds * 1e3 for r in records if not r.traced]
    outcome.passes = len(pass_seconds[False])
    outcome.end_to_end = {
        "suite_s": statistics.median(pass_seconds[False]),
        "compile_ms_geomean": _geomean(row["median_ms"] for row in outcome.kernels),
    }
    outcome.notes = {
        "raw_suite_s": statistics.median(
            sum(r.end - r.start for r in records if r.pass_index == i)
            for i in range(pass_index) if not (trace and i % 2 == 1)),
        "speed_probes_s": [round(s, 4) for _, s in calibrator.samples],
    }
    if trace:
        outcome.per_layer = _layer_metrics(records, tracer, pass_seconds, setup_result)
    return outcome


def _kernel_rows(names, records, checks) -> List[Dict]:
    rows = []
    for name in names:
        mine = [r for r in records if r.kernel == name and r.error is None]
        untraced = [r.seconds for r in mine if not r.traced] or [r.seconds for r in mine]
        fingerprints = sorted({r.fingerprint for r in mine})
        first = checks.get((name, mine[0].fingerprint)) if mine else None
        rows.append({
            "kernel": name,
            "compiles": len(mine),
            "median_ms": statistics.median(untraced) * 1e3 if untraced else float("nan"),
            "fingerprint": fingerprints[0] if len(fingerprints) == 1 else fingerprints,
            "cycles": first.cycles if first else None,
            "naive_cycles": first.naive_cycles if first else None,
            "correct": all(checks[(name, f)].ok for f in fingerprints),
        })
    return rows


def _geomean(values) -> float:
    values = list(values)
    return statistics.geometric_mean(values) if values else float("nan")


def _layer_metrics(records, tracer: Tracer, pass_seconds, setup_result: Setup) -> Dict[str, float]:
    """Per-pass layer totals from the traced passes: span self times,
    saturation counters carried on the spans, and counts read from each
    result."""
    traced = [r for r in records if r.traced]
    passes = max(1, len(pass_seconds[True]))
    own = self_times(tracer.spans)
    by_name: Dict[str, float] = {}
    inclusive: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    compile_total = 0.0
    covered = 0.0
    for s in tracer.spans:
        if s.name == "compile":
            compile_total += s.duration
            continue
        if s.name == "frontend.lift":
            continue
        by_name[s.name] = by_name.get(s.name, 0.0) + own[s.id]
        inclusive[s.name] = inclusive.get(s.name, 0.0) + s.duration
        covered += own[s.id]
        if s.name == "egraph.saturate":
            for key, value in s.attrs.items():
                if key == "peak_nodes":
                    counts[key] = max(counts.get(key, 0), value)
                else:
                    counts[key] = counts.get(key, 0) + value / passes

    def per_pass(key: str) -> float:
        return sum(r.layers.get(key, 0) for r in traced) / passes

    saturate = inclusive.get("egraph.saturate", 0.0) / passes
    search = counts.get("search_s", 0.0)
    matches = counts.get("matches", 0)
    unions = counts.get("unions", 0)
    ir = per_pass("backend.ir_instrs")
    ir_raw = per_pass("backend.ir_instrs_unoptimized")
    lanes = per_pass("validation.lanes")
    phases = per_pass("phases.phases")
    metrics = {
        "frontend.lift_s": setup_result.lift_s,
        "rules.build_s": by_name.get("rules.build", 0.0) / passes,
        "egraph.seed_s": by_name.get("egraph.seed", 0.0) / passes,
        "egraph.saturate_s": saturate,
        "egraph.search_s": search,
        "egraph.apply_rebuild_s": saturate - search,
        "egraph.extract_s": inclusive.get("egraph.extract", 0.0) / passes,
        "egraph.classes_visited": counts.get("classes_visited", 0),
        "egraph.matches": matches,
        "egraph.unions": unions,
        "egraph.union_yield": unions / matches if matches else 0.0,
        "egraph.iterations": counts.get("iterations", 0),
        "egraph.peak_nodes": counts.get("peak_nodes", 0),
        "phases.saturate_s": inclusive.get("phases.execute_plan", 0.0) / passes,
        "phases.self_s": by_name.get("phases.execute_plan", 0.0) / passes,
        "phases.rounds": per_pass("phases.rounds"),
        "phases.sketch_hit_ratio": per_pass("phases.sketch_hits") / phases if phases else 0.0,
        "backend.lower_s": by_name.get("backend.lower", 0.0) / passes,
        "backend.lvn_s": by_name.get("backend.lvn", 0.0) / passes,
        "backend.codegen_s": by_name.get("backend.codegen", 0.0) / passes,
        "backend.ir_instrs": ir,
        "backend.lvn_kept_ratio": ir / ir_raw if ir_raw else 0.0,
        "validation.validate_s": by_name.get("validation.validate", 0.0) / passes,
        "validation.random_lane_frac": per_pass("validation.random_lanes") / lanes if lanes else 0.0,
        "trace.compile_s": compile_total / passes,
        "trace.coverage": covered / compile_total if compile_total else 0.0,
        "trace.overhead_s": statistics.median(pass_seconds[True]) - statistics.median(pass_seconds[False]),
    }
    return metrics
