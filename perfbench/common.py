"""Shared pieces of the benchmark: set-up and outcome records, and the
output check against each kernel's Python reference."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.baselines import baseline_program, trace_kernel
from repro.evaluation.common import measure
from repro.kernels.base import Kernel
from repro.seeding import stable_seed

#: Categories the repository's loop-nest naive baseline covers; other
#: kernels (the served path's straight-line kernels) use the
#: register-traced naive baseline, as QProd does.
_LOOP_CATEGORIES = ("2DConv", "MatMul", "QRDecomp", "QProd")


@dataclass
class Setup:
    kernels: List[Kernel]
    seconds: float
    lift_s: float
    extra: Dict = field(default_factory=dict)


@dataclass
class Check:
    ok: bool
    cycles: float
    naive_cycles: float


@dataclass
class Outcome:
    """What one workload run produced, before set-up and memory are
    added by the caller."""

    attempted: int = 0
    failed: int = 0
    untrusted: int = 0
    failures: List[str] = field(default_factory=list)
    kernels: List[Dict] = field(default_factory=list)
    samples_ms: List[float] = field(default_factory=list)
    passes: int = 0
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    notes: Dict = field(default_factory=dict)

    def fail(self, message: str, untrusted: bool) -> None:
        """Count one failed request; ``untrusted`` marks an emitted
        program that is wrong, unvalidated or degraded."""
        self.failed += 1
        self.untrusted += int(untrusted)
        if len(self.failures) < 20:
            self.failures.append(message)


def naive_program(kernel: Kernel):
    if kernel.category in _LOOP_CATEGORIES:
        return baseline_program("naive", kernel)
    return trace_kernel(kernel, "naive", cache_loads=False)


def check_programs(programs: Dict[Tuple[str, str], object],
                   kernels: Dict[str, Kernel], seed: int) -> Dict[Tuple[str, str], Check]:
    """Simulate each distinct emitted program on seeded inputs and
    compare it with the kernel's Python reference; also simulate the
    naive baseline on the same inputs for the speed-up."""
    naive: Dict[str, float] = {}
    checks: Dict[Tuple[str, str], Check] = {}
    for (name, fingerprint), program in programs.items():
        kernel = kernels[name]
        inputs_seed = stable_seed(seed, "perfbench-inputs", name) % (1 << 31)
        cycles, ok = measure(program, kernel, inputs_seed)
        if name not in naive:
            naive[name], _ = measure(naive_program(kernel), kernel, inputs_seed)
        checks[(name, fingerprint)] = Check(ok, cycles, naive[name])
    return checks


def speedup_geomean(rows: List[Dict]) -> float:
    ratios = [row["naive_cycles"] / row["cycles"] for row in rows if row.get("cycles")]
    return statistics.geometric_mean(ratios) if ratios else float("nan")


def percentile(values: List[float], q: float) -> float:
    """Percentile with linear interpolation between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
