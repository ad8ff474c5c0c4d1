"""Table 1 reproduction: per-kernel compilation statistics.

The paper's Table 1 reports, for each of 21 kernels: compile time,
peak memory, and whether equality saturation timed out.  We report the
same columns from our compiler (memory via ``tracemalloc``, e-graph
size in nodes as an additional scale indicator) next to the paper's
published numbers for side-by-side comparison in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..dsl.ast import unique_size
from ..kernels import table1_kernels
from ..kernels.base import Kernel
from .common import (
    Budget,
    DEFAULT_BUDGET,
    SweepError,
    compile_kernel_resilient,
    render_sweep_errors,
    render_table,
)

__all__ = ["Table1Row", "run_table1", "render_table1", "PAPER_TABLE1"]

#: The paper's Table 1: kernel name -> (compile time seconds, memory
#: MB, timed out).  Times marked with † in the paper (saturation
#: timeout at 180 s) are flagged True.
PAPER_TABLE1: Dict[str, tuple] = {
    "2dconv-3x3-2x2": (2.2, 145, False),
    "2dconv-3x3-3x3": (5.6, 145, False),
    "2dconv-3x5-3x3": (30.3, 626, False),
    "2dconv-4x4-3x3": (23.8, 370, False),
    "2dconv-8x8-3x3": (196, 3800, True),
    "2dconv-10x10-2x2": (21.6, 401, False),
    "2dconv-10x10-3x3": (204, 4100, True),
    "2dconv-10x10-4x4": (191, 5000, True),
    "2dconv-16x16-2x2": (68, 1200, False),
    "2dconv-16x16-3x3": (189, 4700, True),
    "2dconv-16x16-4x4": (237, 4400, True),
    "matmul-2x2-2x2": (1.9, 144, False),
    "matmul-2x3-3x3": (2.2, 136, False),
    "matmul-3x3-3x3": (2.7, 124, False),
    "matmul-4x4-4x4": (5.8, 130, False),
    "matmul-8x8-8x8": (202, 4000, True),
    "matmul-10x10-10x10": (210, 6000, True),
    "matmul-16x16-16x16": (218, 4500, True),
    "qprod-4-3-4-3": (6.7, 128, False),
    "qrdecomp-3x3": (278, 2200, True),
    "qrdecomp-4x4": (15900, 35400, True),
}


@dataclass
class Table1Row:
    kernel: str
    category: str
    size: str
    spec_nodes: int
    compile_time: float
    egraph_nodes: int
    peak_memory_mb: Optional[float]
    timed_out: bool
    paper_time: Optional[float] = None
    paper_memory_mb: Optional[float] = None
    paper_timed_out: Optional[bool] = None


def run_table1(
    budget: Budget = DEFAULT_BUDGET,
    kernels: Optional[Sequence[Kernel]] = None,
    track_memory: bool = True,
    errors: Optional[List[SweepError]] = None,
    service=None,
    **overrides,
) -> List[Table1Row]:
    """Compile every kernel and collect Table 1 statistics.

    A kernel whose compilation fails is recorded in ``errors`` (when a
    list is supplied) and skipped; the sweep always completes.  Pass a
    :class:`repro.service.CompileService` as ``service`` to run each
    kernel in a sandboxed worker with the artifact cache (warm-start
    reruns and per-kernel blast-radius containment).
    """
    rows: List[Table1Row] = []
    for kernel in kernels if kernels is not None else table1_kernels():
        spec = kernel.spec()
        result = compile_kernel_resilient(
            kernel, budget, errors=errors, service=service,
            track_memory=track_memory, **overrides,
        )
        if result is None:
            continue
        paper = PAPER_TABLE1.get(kernel.name)
        rows.append(
            Table1Row(
                kernel=kernel.name,
                category=kernel.category,
                size=kernel.size_label,
                spec_nodes=unique_size(spec.term),
                compile_time=result.compile_time,
                egraph_nodes=result.egraph_nodes,
                peak_memory_mb=(
                    result.peak_memory_bytes / 1e6
                    if result.peak_memory_bytes is not None
                    else None
                ),
                timed_out=result.timed_out,
                paper_time=paper[0] if paper else None,
                paper_memory_mb=paper[1] if paper else None,
                paper_timed_out=paper[2] if paper else None,
            )
        )
    return rows


def render_table1(
    rows: Sequence[Table1Row],
    budget: Budget = DEFAULT_BUDGET,
    errors: Optional[Sequence[SweepError]] = None,
) -> str:
    table = render_table(
        [
            "Benchmark",
            "Size",
            "Spec nodes",
            "Time (s)",
            "E-nodes",
            "Mem (MB)",
            "Timeout",
            "Paper t(s)",
            "Paper MB",
            "Paper TO",
        ],
        [
            [
                r.kernel,
                r.size,
                r.spec_nodes,
                r.compile_time,
                r.egraph_nodes,
                r.peak_memory_mb,
                "yes" if r.timed_out else "",
                r.paper_time,
                r.paper_memory_mb,
                "yes" if r.paper_timed_out else ("" if r.paper_timed_out is not None else "-"),
            ]
            for r in rows
        ],
        title=(
            f"Table 1 reproduction (saturation budget: {budget.seconds:.0f}s "
            f"~ paper {budget.paper_seconds:.0f}s, node limit {budget.node_limit})"
        ),
    )
    timeouts = sum(1 for r in rows if r.timed_out)
    paper_timeouts = sum(1 for r in rows if r.paper_timed_out)
    text = (
        f"{table}\n\nTimed out: {timeouts}/{len(rows)} "
        f"(paper: {paper_timeouts}/{len(rows)})"
    )
    if errors:
        text += "\n" + render_sweep_errors(errors)
    return text
