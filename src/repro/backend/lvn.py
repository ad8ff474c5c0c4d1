"""Local value numbering and dead-code elimination (paper Section 4).

Fully unrolling loop nests creates heavily redundant straight-line
code; the e-graph dedupes it implicitly, but a naive lowering would
re-materialize it ("over 100,000 lines of C++ to under 500" for the
quaternion product).  This pass removes that redundancy from IR
kernels:

* **LVN** -- every pure instruction is keyed by (opcode, immediates,
  value numbers of operands); a repeated key reuses the earlier
  destination register.  Commutative operations (scalar/vector ``+``
  and ``*``, and the multiplicand pair of ``vmac``) are canonicalized
  by sorting operand value numbers, catching ``a+b`` vs ``b+a``.
* **DCE** -- instructions whose results are never used by a store (or
  transitively by one) are dropped.

The pass only runs on straight-line programs (Diospyros output);
loop-based baseline kernels pass through untouched, exactly as the
vendor compiler -- not Diospyros -- optimizes those.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict, List, Set, Tuple

from . import vir
from .vir import Instr, Program

__all__ = ["run_lvn", "eliminate_dead_code", "optimize"]

_COMMUTATIVE_BIN = {"+", "*"}


@functools.cache
def _operands(cls: type) -> Tuple[str, ...]:
    """Names of an instruction class's fields other than ``dst``, in
    declaration order (resolved once per class)."""
    return tuple(f.name for f in dataclasses.fields(cls) if f.name != "dst")


def _rewrite_uses(instr: Instr, replacement: Dict[str, str]) -> Instr:
    """Return ``instr`` with every used register renamed through the
    replacement map (definitions are left alone)."""
    updates = {}
    for name in _operands(type(instr)):
        value = getattr(instr, name)
        if isinstance(value, str) and value in replacement:
            # Register operands are the only string fields that can be
            # in the map (array names and labels never collide with
            # register names by construction: regs are s<N>/v<N>).
            updates[name] = replacement[value]
    if not updates:
        return instr
    return dataclasses.replace(instr, **updates)


def _value_key(instr: Instr) -> Tuple:
    """Hashable value identity of a pure instruction."""
    kind = type(instr).__name__
    if isinstance(instr, vir.SBin) and instr.op in _COMMUTATIVE_BIN:
        return (kind, instr.op) + tuple(sorted((instr.a, instr.b)))
    if isinstance(instr, vir.VBin) and instr.op in _COMMUTATIVE_BIN:
        return (kind, instr.op) + tuple(sorted((instr.a, instr.b)))
    if isinstance(instr, vir.VMac):
        return (kind, instr.acc) + tuple(sorted((instr.a, instr.b)))
    return (kind, *[getattr(instr, name) for name in _operands(type(instr))])


def run_lvn(program: Program) -> Program:
    """Value-number a straight-line program; returns a new Program."""
    if not program.is_straight_line():
        return program
    replacement: Dict[str, str] = {}
    table: Dict[Tuple, str] = {}
    new_instructions: List[Instr] = []
    for instr in program.instructions:
        instr = _rewrite_uses(instr, replacement)
        if not instr.is_pure():
            new_instructions.append(instr)
            continue
        key = _value_key(instr)
        existing = table.get(key)
        defs = instr.defs()
        if existing is not None and defs:
            replacement[defs[0]] = existing
            continue
        if defs:
            table[key] = defs[0]
        new_instructions.append(instr)
    return dataclasses.replace(program, instructions=new_instructions)


def eliminate_dead_code(program: Program) -> Program:
    """Drop pure instructions whose results never reach a store."""
    if not program.is_straight_line():
        return program
    live: Set[str] = set()
    kept_reversed: List[Instr] = []
    for instr in reversed(program.instructions):
        defs = instr.defs()
        if instr.is_pure() and defs and not any(d in live for d in defs):
            continue
        kept_reversed.append(instr)
        live.update(instr.uses())
    return dataclasses.replace(program, instructions=list(reversed(kept_reversed)))


def optimize(program: Program) -> Program:
    """LVN followed by DCE, to fixpoint (two rounds suffice in
    practice, but iterate defensively)."""
    from ..observability import span

    with span("backend.lvn", instructions_in=len(program)) as s:
        previous = -1
        current = program
        rounds = 0
        while len(current) != previous:
            previous = len(current)
            current = eliminate_dead_code(run_lvn(current))
            rounds += 1
        if s is not None:
            s.set(instructions_out=len(current), rounds=rounds)
    return current
