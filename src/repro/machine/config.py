"""Machine model configuration.

The paper evaluates on the Tensilica Fusion G3 through ``xt-run``, a
deterministic cycle-level simulator with an ideal unit-delay memory
(Section 5.2).  We cannot license that simulator, so
:class:`MachineConfig` defines a parametric stand-in: a per-opcode
cycle table over the vector IR, with the Fusion-G3-flavoured defaults
below.  The table encodes the economics that drive every result in the
paper's evaluation:

* one vector op retires the work of ``vector_width`` scalar ops in a
  single instruction slot;
* the "fast, unrestricted shuffle" (Section 3.4) makes in-register
  data movement cost one cycle, same as a load -- this is exactly the
  property Diospyros's cost model banks on;
* division and square root are iterative and expensive, as on real
  DSP float pipelines;
* taken branches pay a pipeline-refill penalty, which is what makes
  generic-size library loops lose on tiny kernels (the paper's
  "control overhead of the parametrized unrolling").

All values are plain data: the portability ablation re-runs the whole
evaluation with a different table (e.g. :func:`no_shuffle_machine`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["MachineConfig", "fusion_g3", "no_shuffle_machine"]


def _default_cost_table() -> Dict[str, float]:
    return {
        # Scalar unit.
        "sconst": 1.0,
        "smove": 1.0,
        "sbin.+": 1.0,
        "sbin.-": 1.0,
        "sbin.*": 1.0,
        "sbin./": 8.0,
        "sbin.min": 1.0,
        "sbin.max": 1.0,
        "sun.neg": 1.0,
        "sun.sqrt": 12.0,
        "sun.sgn": 1.0,
        "sload": 1.0,
        "sload.idx": 1.0,
        "sstore": 1.0,
        "sstore.idx": 1.0,
        # Vector unit.
        "vconst": 1.0,
        "vload": 1.0,
        "vload.idx": 1.0,
        "vstore": 1.0,
        "vstore.idx": 1.0,
        "vshuffle": 1.0,
        "vselect": 1.0,
        "vbin.+": 1.0,
        "vbin.-": 1.0,
        "vbin.*": 1.0,
        "vbin./": 10.0,
        "vun.neg": 1.0,
        "vun.sqrt": 14.0,
        "vun.sgn": 1.0,
        "vmac": 1.0,
        "vinsert": 2.0,
        "vsplat": 1.0,
        # Control flow.
        "label": 0.0,
        "jump": 1.0,
        "branch": 1.0,
    }


@dataclass(frozen=True)
class MachineConfig:
    """A simulated DSP target."""

    name: str = "fusion-g3-like"
    vector_width: int = 4
    cost_table: Dict[str, float] = field(default_factory=_default_cost_table)
    #: Extra cycles charged when a branch is taken (pipeline refill).
    branch_taken_penalty: float = 2.0
    #: Safety valve: abort simulations that exceed this many executed
    #: instructions (runaway loops in buggy kernels).
    max_instructions: int = 20_000_000

    def cost(self, opcode: str) -> float:
        try:
            return self.cost_table[opcode]
        except KeyError as exc:
            raise KeyError(f"no cycle cost for opcode {opcode!r}") from exc


def static_cycles(program, machine: "MachineConfig" = None) -> float:
    """Cycle count of a straight-line program without executing it.

    For branch-free code the simulator's accounting is exactly the sum
    of per-opcode costs, so this is both fast and exact; it is what the
    backend's candidate-selection step compares.  Raises ``ValueError``
    on programs with control flow (their cycle count is input-shaped).
    """
    machine = machine or MachineConfig()
    if not program.is_straight_line():
        raise ValueError("static_cycles requires a straight-line program")
    return sum(machine.cost(instr.opcode) for instr in program.instructions)


def fusion_g3() -> MachineConfig:
    """The default 4-wide target modelled on the Tensilica Fusion G3."""
    return MachineConfig()


def no_shuffle_machine() -> MachineConfig:
    """A hypothetical DSP without a fast unrestricted shuffle
    (Section 6's portability caveat): in-register permutations cost
    nearly as much as redoing the loads."""
    table = _default_cost_table()
    table["vshuffle"] = 6.0
    table["vselect"] = 8.0
    table["vinsert"] = 6.0
    return MachineConfig(name="no-shuffle-dsp", cost_table=table)
