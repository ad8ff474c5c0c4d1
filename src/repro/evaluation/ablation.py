"""Ablation studies.

* :func:`run_vector_ablation` -- Section 5.6: compile with vector
  rewrite rules disabled (symbolic evaluation + scalar rules + LVN
  only) and compare against the full compiler.  The paper reports
  2.2x (scalar-only) vs 3.1x (full) over the best baseline, with the
  non-vectorized code *faster* on 4 of 21 kernels.
* :func:`run_lvn_ablation` -- Section 4's claim that local value
  numbering collapses the unrolled output by orders of magnitude
  (QProd: >100k lines of C++ down to <500).
* :func:`run_cost_ablation` -- Section 6's portability discussion: on
  a machine *without* a fast unrestricted shuffle, the same generated
  kernels lose much of their advantage (DESIGN.md design-choice
  ablation).
* :func:`run_ac_ablation` -- Section 3.3: full associativity /
  commutativity rules explode the e-graph; the custom searchers
  recover the profitable cases at a fraction of the size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..backend.codegen import c_line_count
from ..baselines import baseline_program
from ..egraph.egraph import EGraph
from ..egraph.runner import Runner
from ..kernels import make_matmul, table1_kernels
from ..kernels.base import Kernel
from ..machine import fusion_g3, no_shuffle_machine
from ..rules import build_ruleset
from .common import (
    Budget,
    DEFAULT_BUDGET,
    SweepError,
    compile_kernel_resilient,
    compile_kernel_with_budget,
    geomean,
    measure,
    render_sweep_errors,
    render_table,
)

__all__ = [
    "VectorAblationRow",
    "run_vector_ablation",
    "render_vector_ablation",
    "run_lvn_ablation",
    "run_cost_ablation",
    "run_ac_ablation",
]

PAPER_SCALAR_ONLY_GEOMEAN = 2.2
PAPER_FULL_GEOMEAN = 3.1
PAPER_SCALAR_WINS = 4


@dataclass
class VectorAblationRow:
    kernel: str
    vector_cycles: float
    scalar_cycles: float
    best_baseline_cycles: float
    correct: bool

    @property
    def scalar_wins(self) -> bool:
        return self.scalar_cycles < self.vector_cycles


@dataclass
class VectorAblationResult:
    rows: List[VectorAblationRow]
    geomean_vector: float
    geomean_scalar: float
    scalar_wins: int
    errors: List[SweepError] = field(default_factory=list)


def run_vector_ablation(
    budget: Budget = DEFAULT_BUDGET,
    kernels: Optional[Sequence[Kernel]] = None,
    seed: int = 0,
) -> VectorAblationResult:
    """Compile each kernel with and without the vector rules.

    Per-kernel failures (on either configuration) are recorded and the
    sweep continues; geomeans cover the survivors."""
    rows: List[VectorAblationRow] = []
    errors: List[SweepError] = []
    for kernel in kernels if kernels is not None else table1_kernels():
        full = compile_kernel_resilient(kernel, budget, errors=errors)
        if full is None:
            continue
        scalar = compile_kernel_resilient(
            kernel, budget, errors=errors, enable_vector_rules=False
        )
        if scalar is None:
            continue
        vec_cycles, ok1 = measure(full.program, kernel, seed)
        sc_cycles, ok2 = measure(scalar.program, kernel, seed)

        best = None
        for name in ("naive", "naive-fixed", "nature", "eigen"):
            program = baseline_program(name, kernel)
            if program is None:
                continue
            cycles, _ = measure(program, kernel, seed)
            best = cycles if best is None else min(best, cycles)
        rows.append(
            VectorAblationRow(
                kernel=kernel.name,
                vector_cycles=vec_cycles,
                scalar_cycles=sc_cycles,
                best_baseline_cycles=best if best is not None else float("nan"),
                correct=ok1 and ok2,
            )
        )
    vec_ratios = [r.best_baseline_cycles / r.vector_cycles for r in rows]
    sc_ratios = [r.best_baseline_cycles / r.scalar_cycles for r in rows]
    return VectorAblationResult(
        rows=rows,
        geomean_vector=geomean(vec_ratios) if vec_ratios else float("nan"),
        geomean_scalar=geomean(sc_ratios) if sc_ratios else float("nan"),
        scalar_wins=sum(1 for r in rows if r.scalar_wins),
        errors=errors,
    )


def render_vector_ablation(result: VectorAblationResult) -> str:
    table = render_table(
        ["Kernel", "Vector cycles", "Scalar-only cycles", "Best baseline", "Scalar wins"],
        [
            [r.kernel, r.vector_cycles, r.scalar_cycles, r.best_baseline_cycles,
             "yes" if r.scalar_wins else ""]
            for r in result.rows
        ],
        title="Section 5.6 vectorization ablation",
    )
    text = (
        f"{table}\n\n"
        f"Geomean over best baseline: full {result.geomean_vector:.2f}x "
        f"(paper {PAPER_FULL_GEOMEAN}x), scalar-only "
        f"{result.geomean_scalar:.2f}x (paper {PAPER_SCALAR_ONLY_GEOMEAN}x)\n"
        f"Kernels where scalar-only wins: {result.scalar_wins}/"
        f"{len(result.rows)} (paper {PAPER_SCALAR_WINS}/21)"
    )
    if result.errors:
        text += "\n" + render_sweep_errors(result.errors)
    return text


@dataclass
class LvnAblationResult:
    kernel: str
    lines_without_lvn: int
    lines_with_lvn: int

    @property
    def reduction_factor(self) -> float:
        return self.lines_without_lvn / max(1, self.lines_with_lvn)


def run_lvn_ablation(
    budget: Budget = DEFAULT_BUDGET, kernel: Optional[Kernel] = None
) -> LvnAblationResult:
    """Section 4's LVN/CSE effect.

    The "without" side tree-expands the fully unrolled spec with no
    hash-consed sharing -- the naive code generation the paper
    describes producing >100k lines of C++; the "with" side is the
    shipping pipeline (DAG lowering + LVN + DCE).  The paper quotes
    QProd; the *magnitude* of the effect shows best on QRDecomp 3x3,
    whose unrolled tree is ~50k nodes sharing a 143-node DAG, so that
    is the default here (pass ``kernel`` to measure others).
    """
    from ..backend.lower import lower_spec_program
    from ..kernels import make_qr

    kernel = kernel or make_qr(3)
    result = compile_kernel_with_budget(kernel, budget)
    expanded = lower_spec_program(
        result.spec, result.spec.term, share_subterms=False
    )
    return LvnAblationResult(
        kernel=kernel.name,
        lines_without_lvn=c_line_count(expanded),
        lines_with_lvn=c_line_count(result.program),
    )


@dataclass
class CostAblationResult:
    kernel: str
    fusion_cycles: float
    no_shuffle_cycles: float

    @property
    def slowdown(self) -> float:
        return self.no_shuffle_cycles / self.fusion_cycles


def run_cost_ablation(
    budget: Budget = DEFAULT_BUDGET, kernel: Optional[Kernel] = None, seed: int = 0
) -> CostAblationResult:
    """Run the same generated kernel on the no-fast-shuffle machine
    (Section 6): data movement dominates without the G3's shuffle."""
    kernel = kernel or make_matmul(3, 3, 3)
    compiled = compile_kernel_with_budget(kernel, budget)
    fusion, _ = measure(compiled.program, kernel, seed, machine=fusion_g3())
    slow, _ = measure(compiled.program, kernel, seed, machine=no_shuffle_machine())
    return CostAblationResult(
        kernel=kernel.name, fusion_cycles=fusion, no_shuffle_cycles=slow
    )


@dataclass
class AcAblationResult:
    kernel: str
    nodes_without_ac: int
    nodes_with_ac: int
    iterations_without_ac: int
    iterations_with_ac: int

    @property
    def growth_factor(self) -> float:
        return self.nodes_with_ac / max(1, self.nodes_without_ac)


def run_ac_ablation(
    kernel: Optional[Kernel] = None, seconds: float = 5.0
) -> AcAblationResult:
    """E-graph size with and without full AC rules on a small kernel
    (Section 3.3's memory-blowup argument, at a survivable scale)."""
    kernel = kernel or make_matmul(2, 2, 2)
    sizes = {}
    iters = {}
    for label, enable_ac in (("off", False), ("on", True)):
        egraph = EGraph()
        egraph.add_term(kernel.spec().term)
        rules = build_ruleset(width=4, enable_ac=enable_ac)
        report = Runner(
            rules, iter_limit=30, node_limit=300_000, time_limit=seconds
        ).run(egraph)
        sizes[label] = egraph.num_nodes
        iters[label] = len(report.iterations)
    return AcAblationResult(
        kernel=kernel.name,
        nodes_without_ac=sizes["off"],
        nodes_with_ac=sizes["on"],
        iterations_without_ac=iters["off"],
        iterations_with_ac=iters["on"],
    )
