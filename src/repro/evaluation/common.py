"""Shared infrastructure for the evaluation harness.

The paper's evaluation ran equality saturation with a 3-minute timeout
and a 10M-node limit on a Xeon server, against the licensed ``xt-run``
simulator.  Our engine is pure Python, so budgets are scaled: a
:class:`Budget` carries the *paper-equivalent* seconds (what the
experiment id means) and the *actual* seconds given to our runner.
EXPERIMENTS.md records the mapping used for every reported number.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..compiler import CompileOptions, CompileResult, compile_spec
from ..errors import CompileError, is_resource_failure
from ..kernels.base import Kernel
from ..machine import MachineConfig, fusion_g3, simulate

__all__ = [
    "Budget",
    "DEFAULT_BUDGET",
    "SweepError",
    "compile_kernel_with_budget",
    "compile_kernel_resilient",
    "measure",
    "check_correct",
    "geomean",
    "render_table",
    "render_sweep_errors",
]


@dataclass(frozen=True)
class Budget:
    """A saturation budget with its paper-equivalent label.

    ``paper_seconds`` is what the experiment nominally allows (the
    paper's 180 s default); ``seconds`` is the wall-clock given to our
    Python engine.  The default scale maps the paper's 180 s to 18 s,
    i.e. a 10:1 ratio; pass ``scale=1.0`` for a paper-duration run.
    """

    paper_seconds: float
    seconds: float
    node_limit: int = 200_000
    iter_limit: int = 60

    @staticmethod
    def from_paper(paper_seconds: float, scale: float = 0.1) -> "Budget":
        return Budget(paper_seconds=paper_seconds, seconds=paper_seconds * scale)

    def options(self, **overrides) -> CompileOptions:
        base = CompileOptions(
            time_limit=self.seconds,
            node_limit=self.node_limit,
            iter_limit=self.iter_limit,
            validate=False,
            track_memory=False,
        )
        return replace(base, **overrides)


#: The evaluation default: the paper's 180 s scaled 10:1.
DEFAULT_BUDGET = Budget.from_paper(180.0)


def compile_kernel_with_budget(
    kernel: Kernel, budget: Budget = DEFAULT_BUDGET, **overrides
) -> CompileResult:
    """Compile one benchmark kernel under a budget."""
    return compile_spec(kernel.spec(), budget.options(**overrides))


@dataclass
class SweepError:
    """One failed kernel in an evaluation sweep.

    The harness records these and keeps going, so a single pathological
    kernel cannot kill a 21-kernel Table 1 / Figure 5 run; aggregates
    (geomean etc.) are computed over the survivors.
    """

    kernel: str
    stage: str
    error: str
    elapsed: float
    retried: bool = False

    def __str__(self) -> str:
        retry = " (after halved-budget retry)" if self.retried else ""
        return (
            f"{self.kernel}: {self.stage} failed after {self.elapsed:.2f}s"
            f"{retry} -- {self.error}"
        )


#: Retry taxonomy now lives in :mod:`repro.errors` so the compilation
#: service shares it; the old private name stays importable.
_is_resource_failure = is_resource_failure


def compile_kernel_resilient(
    kernel: Kernel,
    budget: Budget = DEFAULT_BUDGET,
    errors: Optional[List[SweepError]] = None,
    service=None,
    **overrides,
) -> Optional[CompileResult]:
    """Compile one kernel, surviving failures.

    On an exception the error is recorded in ``errors`` (stage,
    exception text, elapsed seconds) and ``None`` is returned so the
    sweep continues.  Node-limit / memory failures get one bounded
    retry at a *halved budget* first -- both the wall-clock and the
    node limit are halved, so a node-limit overflow does not retry
    straight into the same doomed ceiling.

    When ``service`` (a :class:`repro.service.CompileService`) is
    given, the compilation routes through its sandboxed worker pool and
    artifact cache instead; the service runs its own backoff/shrink
    retry loop, so the local halved-budget retry is skipped and only
    the final failure is recorded here.
    """
    start = time.perf_counter()
    retried = False
    if service is not None:
        try:
            return service.compile_spec(kernel.spec(), budget.options(**overrides))
        except Exception as exc:
            failure: BaseException = exc
            retried = is_resource_failure(failure)
    else:
        try:
            return compile_kernel_with_budget(kernel, budget, **overrides)
        except Exception as exc:
            failure = exc
        if is_resource_failure(failure):
            retried = True
            half = budget.options().scaled(0.5)
            smaller = replace(
                budget, seconds=half.time_limit, node_limit=half.node_limit
            )
            try:
                return compile_kernel_with_budget(kernel, smaller, **overrides)
            except Exception as exc:
                failure = exc
    if errors is not None:
        errors.append(
            SweepError(
                kernel=kernel.name,
                stage=getattr(failure, "stage", "compile"),
                error=f"{type(failure).__name__}: {failure}",
                elapsed=time.perf_counter() - start,
                retried=retried,
            )
        )
    return None


def render_sweep_errors(errors: Sequence[SweepError]) -> str:
    """Plain-text error-row rendering appended to sweep reports."""
    if not errors:
        return ""
    lines = [f"Failed kernels ({len(errors)}):"]
    lines.extend(f"  {e}" for e in errors)
    return "\n".join(lines)


def measure(
    program,
    kernel: Kernel,
    seed: Optional[int] = None,
    machine: Optional[MachineConfig] = None,
    *,
    options: Optional[CompileOptions] = None,
) -> Tuple[float, bool]:
    """Simulate ``program`` on random inputs; return (cycles, correct).

    Correctness is checked against the kernel's trusted reference on
    the same inputs, so every benchmark run doubles as a differential
    test.  The input seed resolves, in order: an explicit ``seed``
    argument, the ``seed`` carried by ``options`` (so one
    ``CompileOptions.seed`` drives validation *and* the harness's
    differential probes), else the historical default 0.
    """
    if seed is None:
        seed = options.seed if options is not None else 0
    inputs = kernel.random_inputs(seed)
    result = simulate(program, inputs, machine or fusion_g3())
    reference = kernel.reference_outputs(inputs)
    produced = result.output("out")[: len(reference)]
    ok = all(
        abs(a - b) <= 1e-4 * max(1.0, abs(a)) for a, b in zip(reference, produced)
    )
    return result.cycles, ok


def check_correct(
    program,
    kernel: Kernel,
    seed: Optional[int] = None,
    *,
    options: Optional[CompileOptions] = None,
) -> bool:
    """Correctness only (used by tests).  Seed resolution follows
    :func:`measure`: explicit argument, then ``options.seed``, then 0
    -- reproducible by default, variable across service retries (which
    shift ``options.seed`` per attempt)."""
    _, ok = measure(program, kernel, seed, options=options)
    return ok


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregate for Figure 5)."""
    values = [v for v in values if v > 0]
    if not values:
        raise ValueError("geomean of no positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Plain-text table rendering for reports."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 100:
            return f"{value:.0f}"
        return f"{value:.2f}"
    if value is None:
        return "-"
    return str(value)
