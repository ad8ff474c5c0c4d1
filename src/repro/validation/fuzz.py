"""Differential-fuzzing correctness oracle: the random kernel
generator and the check that runs on each compiled kernel.

Translation validation (Section 3.4) proves one compilation's output
equivalent to its spec; this module turns the same trusted artifacts
into an *active* detector.  :func:`random_spec` generates randomized
small kernels straight from the frontend's specification language, and
:func:`check_result` cross-checks one compile of such a kernel through
the full pipeline (saturation, extraction, lowering, LVN) by comparing

* the **scalar interpreter on the lifted spec** (the semantics ground
  truth),
* the scalar interpreter on the **extracted/optimized term** (isolates
  rewrite/extraction bugs), and
* the **machine simulator on the lowered vector IR** (isolates
  lowering/LVN/codegen bugs)

on shared random inputs.  Any disagreement is a
:class:`FuzzDivergence` carrying the full reproducer (kernel
s-expression, lane, values).

The campaigns that drive them -- blind random generation and
coverage-guided mutation -- are
:func:`repro.conformance.fuzzer.run_campaign` (``repro conformance
random`` / ``guided``); CI's fuzz-smoke job fails on any divergence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from ..compiler import CompileResult
from ..dsl.ast import Term, get, lst, num
from ..dsl.interp import evaluate_output
from ..frontend.lift import ArrayDecl, Spec, random_inputs
from ..machine import simulate

__all__ = [
    "FuzzDivergence",
    "random_spec",
    "check_result",
]


# ----------------------------------------------------------------------
# Kernel generation
# ----------------------------------------------------------------------

_BINOPS = ("+", "-", "*")


def _random_expr(
    rng: random.Random,
    inputs: Tuple[ArrayDecl, ...],
    depth: int,
    pool: List[Term],
) -> Term:
    """One random scalar expression over ``Get``s of the inputs.

    ``pool`` collects generated subexpressions and is occasionally
    sampled, so specs exhibit the DAG sharing that real lifted kernels
    (QR-style reuse) have -- sharing is what LVN and the memoizing
    interpreter exist for, so the fuzzer must produce it.
    """
    if pool and rng.random() < 0.15:
        return rng.choice(pool)
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.2:
            # Halves keep float arithmetic exact-ish across engines.
            leaf = num(rng.randint(-4, 4) / 2.0)
        else:
            decl = rng.choice(inputs)
            leaf = get(decl.name, rng.randrange(decl.length))
        pool.append(leaf)
        return leaf
    roll = rng.random()
    if roll < 0.12:
        expr = Term("neg", (_random_expr(rng, inputs, depth - 1, pool),))
    elif roll < 0.2:
        # Division only by constants bounded away from zero: the oracle
        # must never diverge because of a sampled zero denominator.
        denom = rng.choice((-2.0, -1.5, 1.5, 2.0, 4.0))
        expr = Term(
            "/", (_random_expr(rng, inputs, depth - 1, pool), num(denom))
        )
    else:
        op = rng.choice(_BINOPS)
        expr = Term(
            op,
            (
                _random_expr(rng, inputs, depth - 1, pool),
                _random_expr(rng, inputs, depth - 1, pool),
            ),
        )
    pool.append(expr)
    return expr


def random_spec(
    rng: random.Random,
    index: int = 0,
    max_inputs: int = 2,
    max_input_len: int = 6,
    max_outputs: int = 6,
    max_depth: int = 3,
) -> Spec:
    """Generate one random small kernel specification.

    The shape envelope (few small arrays, shallow expressions) is tuned
    so each kernel compiles in well under a second while still
    exercising list splitting, zero padding, vectorization, shuffles,
    and MAC fusion.
    """
    inputs = tuple(
        ArrayDecl(f"in{i}", rng.randint(1, max_input_len))
        for i in range(rng.randint(1, max_inputs))
    )
    n_outputs = rng.randint(1, max_outputs)
    pool: List[Term] = []
    elements = [
        _random_expr(rng, inputs, rng.randint(1, max_depth), pool)
        for _ in range(n_outputs)
    ]
    return Spec(
        name=f"fuzz-{index}",
        inputs=inputs,
        outputs=(ArrayDecl("out", n_outputs),),
        term=lst(*elements),
    )


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


@dataclass
class FuzzDivergence:
    """One interpreter/simulator disagreement, with its reproducer."""

    kernel: str
    stage: str  # "extraction" (interp vs interp) | "backend" (vs simulator)
    trial: int
    lane: int
    expected: float
    actual: float
    spec_sexpr: str
    optimized_sexpr: str

    def __str__(self) -> str:
        return (
            f"{self.kernel} [{self.stage}] trial {self.trial} lane "
            f"{self.lane}: expected {self.expected!r}, got {self.actual!r}\n"
            f"  spec:      {self.spec_sexpr}\n"
            f"  optimized: {self.optimized_sexpr}"
        )


def check_result(
    spec: Spec,
    result: CompileResult,
    rng: random.Random,
    trials: int = 3,
    tolerance: float = 1e-5,
) -> List[FuzzDivergence]:
    """Cross-check one compilation on ``trials`` random inputs."""
    divergences: List[FuzzDivergence] = []
    n = spec.n_outputs
    for trial in range(trials):
        env = random_inputs(spec, rng)
        expected = evaluate_output(spec.term, env)[:n]
        optimized = evaluate_output(result.optimized, env)[:n]
        simulated = simulate(result.program, env).output("out")[:n]
        for stage, actual in (("extraction", optimized), ("backend", simulated)):
            for lane, (want, got) in enumerate(zip(expected, actual)):
                scale = max(1.0, abs(want))
                if abs(want - got) > tolerance * scale + 1e-9:
                    divergences.append(
                        FuzzDivergence(
                            kernel=spec.name,
                            stage=stage,
                            trial=trial,
                            lane=lane,
                            expected=want,
                            actual=got,
                            spec_sexpr=spec.term.to_sexpr(),
                            optimized_sexpr=result.optimized.to_sexpr(),
                        )
                    )
    return divergences

