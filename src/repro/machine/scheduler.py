"""VLIW list scheduling for straight-line kernels.

The real Fusion G3 is a VLIW machine and the vendor compiler bundles
independent operations into multi-issue instruction words -- one
reason hand-scheduled scalar code is sometimes surprisingly fast in
the paper's evaluation (Section 5.6 credits the vendor's "more heavily
optimized scalar code").  The sequential simulator in
:mod:`repro.machine.simulator` deliberately ignores this; this module
adds the missing piece as an *analysis*: a classic latency-aware list
scheduler that packs a straight-line IR kernel into issue bundles and
reports the resulting schedule length.

Model:

* each instruction belongs to a functional unit (``scalar``,
  ``vector``, ``memory``, ``move``);
* each cycle issues at most ``MachineConfig-issue`` slots per unit
  (defaults mirror a G3-like 3-way VLIW: one vector ALU, one
  load/store, one scalar ALU, with in-register moves sharing the
  vector unit);
* the cost-table value of an opcode is its *latency*: dependents may
  issue only after it completes, but the unit is pipelined (one issue
  per cycle per slot).

The scheduler never changes program semantics -- it only computes a
tighter cycle bound.  ``schedule(program)`` returns both the bundles
(for inspection/codegen) and the schedule length, and
:func:`scheduled_cycles` is the one-call summary used by the VLIW
ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..backend import vir
from .config import MachineConfig, fusion_g3

__all__ = ["FunctionalUnit", "Schedule", "schedule", "scheduled_cycles", "unit_of"]


class FunctionalUnit:
    SCALAR = "scalar"
    VECTOR = "vector"
    MEMORY = "memory"
    MOVE = "move"


#: Default slots per unit per cycle (a 3-way VLIW word: one memory
#: access, one vector ALU op, one scalar ALU op; register moves and
#: shuffles share the vector unit's permute network).
DEFAULT_SLOTS: Dict[str, int] = {
    FunctionalUnit.SCALAR: 1,
    FunctionalUnit.VECTOR: 1,
    FunctionalUnit.MEMORY: 1,
    FunctionalUnit.MOVE: 1,
}


def unit_of(instr: vir.Instr) -> str:
    """Functional unit an instruction occupies."""
    opcode = instr.opcode
    if opcode.startswith(("sload", "sstore", "vload", "vstore")):
        return FunctionalUnit.MEMORY
    if opcode.startswith(("vbin", "vun", "vmac")):
        return FunctionalUnit.VECTOR
    if opcode.startswith(("vshuffle", "vselect", "vinsert", "vsplat", "vconst")):
        return FunctionalUnit.MOVE
    return FunctionalUnit.SCALAR


@dataclass
class Schedule:
    """The result of list scheduling one straight-line kernel."""

    #: bundle index -> instructions issued that cycle.
    bundles: List[List[vir.Instr]]
    #: Total cycles: last issue cycle + latency of the longest tail op.
    length: float
    #: Sequential cycles (sum of latencies), for comparison.
    sequential: float

    @property
    def ilp(self) -> float:
        """Achieved instruction-level parallelism (sequential /
        scheduled)."""
        return self.sequential / self.length if self.length else 1.0


def schedule(
    program: vir.Program,
    machine: Optional[MachineConfig] = None,
    slots: Optional[Dict[str, int]] = None,
) -> Schedule:
    """Greedy latency-weighted list scheduling.

    Raises ``ValueError`` on programs with control flow (schedule
    regions would need a CFG; Diospyros output is straight-line).
    """
    machine = machine or fusion_g3()
    slots = dict(slots or DEFAULT_SLOTS)
    if not program.is_straight_line():
        raise ValueError("list scheduling requires a straight-line program")

    instrs = list(program.instructions)
    n = len(instrs)
    if n == 0:
        return Schedule(bundles=[], length=0.0, sequential=0.0)

    # Dependence edges: true (def->use), output (def->def), and
    # anti/output dependences through memory (store->store, and the
    # conservative store<->load ordering per array).
    last_def: Dict[str, int] = {}
    last_store: Dict[str, int] = {}
    loads_since_store: Dict[str, List[int]] = {}
    preds: List[List[int]] = [[] for _ in range(n)]

    def _array_of(instr) -> Optional[str]:
        return getattr(instr, "array", None)

    for i, instr in enumerate(instrs):
        for reg in instr.uses():
            if reg in last_def:
                preds[i].append(last_def[reg])
        for reg in instr.defs():
            if reg in last_def:
                preds[i].append(last_def[reg])  # output dependence
            last_def[reg] = i
        array = _array_of(instr)
        if array is not None:
            is_store = instr.opcode.startswith(("sstore", "vstore"))
            if is_store:
                if array in last_store:
                    preds[i].append(last_store[array])
                for load in loads_since_store.get(array, ()):
                    preds[i].append(load)
                last_store[array] = i
                loads_since_store[array] = []
            else:
                if array in last_store:
                    preds[i].append(last_store[array])
                loads_since_store.setdefault(array, []).append(i)

    latency = [max(1.0, machine.cost(instr.opcode)) for instr in instrs]
    sequential = sum(machine.cost(instr.opcode) for instr in instrs)

    # Priority: critical-path height.
    succs: List[List[int]] = [[] for _ in range(n)]
    for i, ps in enumerate(preds):
        for p in ps:
            succs[p].append(i)
    height = [0.0] * n
    for i in range(n - 1, -1, -1):
        tail = max((height[s] for s in succs[i]), default=0.0)
        height[i] = latency[i] + tail

    indegree = [len(set(ps)) for ps in preds]
    preds_sets = [set(ps) for ps in preds]
    ready_time = [0.0] * n  # earliest cycle the instruction may issue
    finished = [0.0] * n
    remaining = set(range(n))
    issued_at: Dict[int, float] = {}
    bundles: Dict[int, List[vir.Instr]] = {}

    cycle = 0.0
    ready = [i for i in remaining if indegree[i] == 0]
    while remaining:
        # Instructions whose operands are available this cycle, by
        # priority (critical path first).
        available = sorted(
            (i for i in ready if ready_time[i] <= cycle),
            key=lambda i: -height[i],
        )
        used: Dict[str, int] = {}
        issued_this_cycle = []
        for i in available:
            unit = unit_of(instrs[i])
            if used.get(unit, 0) >= slots.get(unit, 1):
                continue
            used[unit] = used.get(unit, 0) + 1
            issued_this_cycle.append(i)
        if issued_this_cycle:
            bundles.setdefault(int(cycle), []).extend(
                instrs[i] for i in issued_this_cycle
            )
        for i in issued_this_cycle:
            issued_at[i] = cycle
            finished[i] = cycle + latency[i]
            remaining.discard(i)
            ready.remove(i)
            for s in succs[i]:
                preds_sets[s].discard(i)
                ready_time[s] = max(ready_time[s], finished[i])
                if not preds_sets[s] and s in remaining and s not in ready:
                    ready.append(s)
        if not issued_this_cycle:
            # Stall until the next operand becomes available.
            pending = [ready_time[i] for i in ready if ready_time[i] > cycle]
            cycle = min(pending) if pending else cycle + 1.0
        else:
            cycle += 1.0

    length = max(finished) if n else 0.0
    ordered = [bundles[k] for k in sorted(bundles)]
    return Schedule(bundles=ordered, length=length, sequential=sequential)


def scheduled_cycles(
    program: vir.Program, machine: Optional[MachineConfig] = None
) -> float:
    """Schedule length of a straight-line kernel under the default
    VLIW slot configuration."""
    return schedule(program, machine).length
