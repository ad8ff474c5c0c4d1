"""Section 5.7 reproduction: the Theia application case study.

Runs ``DecomposeProjectionMatrix`` twice -- with Eigen's generic QR
and with the Diospyros-compiled QR -- and reports per-stage cycles,
the QR share of the baseline (paper: 61%), and the end-to-end speedup
(paper: 2.1x, 64,025 vs 30,552 cycles on the real hardware model).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.theia import (
    TheiaResult,
    decompose_projection_matrix,
    diospyros_qr_program,
    eigen_qr_program,
)
from .common import Budget, DEFAULT_BUDGET, render_table

__all__ = ["CaseStudyResult", "run_casestudy", "render_casestudy"]

PAPER_SPEEDUP = 2.1
PAPER_QR_SHARE = 0.61
PAPER_BASELINE_CYCLES = 64_025
PAPER_OPTIMIZED_CYCLES = 30_552


@dataclass
class CaseStudyResult:
    baseline: TheiaResult
    optimized: TheiaResult

    @property
    def speedup(self) -> float:
        return self.baseline.total_cycles / self.optimized.total_cycles

    @property
    def qr_share_baseline(self) -> float:
        return self.baseline.qr_share

    @property
    def outputs_match(self) -> bool:
        pairs = [
            (self.baseline.calibration, self.optimized.calibration),
            (self.baseline.rotation_rq, self.optimized.rotation_rq),
            (self.baseline.position, self.optimized.position),
        ]
        for expected, actual in pairs:
            for a, b in zip(expected, actual):
                if abs(a - b) > 1e-3 * max(1.0, abs(a)):
                    return False
        return True


def run_casestudy(budget: Budget = DEFAULT_BUDGET) -> CaseStudyResult:
    """Compile the Diospyros QR under ``budget`` and run both
    configurations of the camera-model decomposition."""
    qr_options = budget.options(select_best_candidate=True)
    optimized_qr = diospyros_qr_program(qr_options)
    baseline = decompose_projection_matrix(qr_program=eigen_qr_program())
    optimized = decompose_projection_matrix(qr_program=optimized_qr)
    return CaseStudyResult(baseline=baseline, optimized=optimized)


def render_casestudy(result: CaseStudyResult) -> str:
    stages = sorted(result.baseline.stage_cycles)
    table = render_table(
        ["Stage", "Eigen baseline (cycles)", "Diospyros QR (cycles)"],
        [
            [s, result.baseline.stage_cycles[s], result.optimized.stage_cycles[s]]
            for s in stages
        ]
        + [["TOTAL", result.baseline.total_cycles, result.optimized.total_cycles]],
        title="Section 5.7: Theia DecomposeProjectionMatrix on the simulator",
    )
    return (
        f"{table}\n\n"
        f"QR share of baseline runtime: {result.qr_share_baseline:.0%} "
        f"(paper: {PAPER_QR_SHARE:.0%})\n"
        f"End-to-end speedup: {result.speedup:.2f}x (paper: {PAPER_SPEEDUP}x, "
        f"{PAPER_BASELINE_CYCLES} vs {PAPER_OPTIMIZED_CYCLES} cycles)\n"
        f"Outputs agree across configurations: {result.outputs_match}"
    )
