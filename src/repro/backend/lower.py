"""Lowering the extracted vector-DSL program to the vector IR
(paper Section 4).

The interesting work is translating ``Vec`` terms: each lane may name
an arbitrary memory location, a literal, or a computed scalar, and the
backend must realize that data movement with the machine's actual
instructions.  The plan, mirroring Section 5.1:

* lanes forming a constant-offset run from one array -> one ``vload``;
* lanes gathered from one array -> aligned covering ``vload`` windows
  combined by one ``vshuffle`` (single window) or ``vselect`` chains
  (multiple windows -- "to implement arbitrary shuffles with more than
  two registers, Diospyros uses nested select instructions");
* lanes from several arrays -> per-array gathers merged lane-wise with
  further selects;
* literal lanes -> a ``vconst`` register merged in;
* computed-scalar lanes -> scalar code plus ``vinsert``.

Lowering memoizes on DSL terms, so the hash-consed sharing of the
extracted program carries over to the IR; the LVN pass
(:mod:`repro.backend.lvn`) then removes any remaining redundancy
across distinct-but-equal instruction sequences.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..dsl.ast import Term
from ..frontend.lift import Spec
from . import vir
from .vir import Program, RegAllocator

__all__ = ["LoweringError", "lower_term", "lower_spec_program", "OUT"]

#: Name of the combined output buffer every lowered kernel writes.
OUT = "out"


class LoweringError(RuntimeError):
    """Raised when a term cannot be lowered (malformed program or an
    uninterpreted call with no target intrinsic)."""


_VBIN = {"VecAdd": "+", "VecMinus": "-", "VecMul": "*", "VecDiv": "/"}
_VUN = {"VecNeg": "neg", "VecSqrt": "sqrt", "VecSgn": "sgn"}
_SBIN = {"+", "-", "*", "/"}
_SUN = {"neg", "sqrt", "sgn"}


def lower_term(
    term: Term,
    inputs: Dict[str, int],
    n_outputs: int,
    width: int = 4,
    name: str = "kernel",
    share_subterms: bool = True,
) -> Program:
    """Lower an extracted program to a straight-line IR kernel.

    ``inputs`` maps input array names to their flat lengths; the kernel
    writes its ``n_outputs`` results to the combined buffer ``out``
    (padding lanes beyond ``n_outputs`` are not stored).

    ``share_subterms=False`` disables the hash-consed lowering memo,
    re-materializing every occurrence of every subterm -- the naive
    lowering the paper's Section 4 describes ("over 100,000 lines of
    C++"), kept for the LVN ablation.
    """
    # Input buffers are padded up to a vector-width multiple, the
    # standard DSP convention (aligned, padded buffers); this lets the
    # backend use whole-register loads on short arrays (e.g. a 3-vector
    # translation).  The simulator zero-fills the padding.
    padded = {
        array: max(length, ((length + width - 1) // width) * width)
        for array, length in inputs.items()
    }
    program = Program(
        name=name,
        inputs=padded,
        outputs={OUT: n_outputs},
        vector_width=width,
    )
    lowerer = _Lowerer(program, width, share_subterms)
    lowerer.lower_root(term, n_outputs)
    return program


def lower_spec_program(
    spec: Spec, term: Term, width: int = 4, share_subterms: bool = True
) -> Program:
    """Lower ``term`` using the array declarations of ``spec``."""
    from ..observability import span

    inputs = {d.name: d.length for d in spec.inputs}
    with span("backend.lower", kernel=spec.name, width=width) as s:
        program = lower_term(
            term, inputs, spec.n_outputs, width, name=spec.name,
            share_subterms=share_subterms,
        )
        if s is not None:
            s.set(instructions=len(program))
    return program


class _Lowerer:
    def __init__(
        self, program: Program, width: int, share_subterms: bool = True
    ) -> None:
        self.program = program
        self.width = width
        self.share = share_subterms
        self.regs = RegAllocator()
        self._scalar_memo: Dict[Term, str] = {}
        self._vector_memo: Dict[Term, str] = {}

    # ------------------------------------------------------------------
    # Roots
    # ------------------------------------------------------------------

    def lower_root(self, term: Term, n_outputs: int) -> None:
        if term.op == "List":
            # Scalar path: the e-graph never vectorized (or vector
            # rules were disabled); emit scalar code per element.
            if len(term.args) != n_outputs:
                raise LoweringError(
                    f"List has {len(term.args)} elements, expected {n_outputs}"
                )
            for index, element in enumerate(term.args):
                reg = self.lower_scalar(element)
                self.program.emit(vir.SStore(OUT, index, reg))
            return
        chunks = _flatten_concat(term)
        if len(chunks) * self.width < n_outputs:
            raise LoweringError(
                f"vectorized program covers {len(chunks) * self.width} lanes, "
                f"spec needs {n_outputs}"
            )
        for k, chunk in enumerate(chunks):
            offset = k * self.width
            count = min(self.width, n_outputs - offset)
            if count <= 0:
                break  # pure-padding tail chunk
            reg = self.lower_vector(chunk)
            self.program.emit(vir.VStore(OUT, offset, reg, count))

    # ------------------------------------------------------------------
    # Vector expressions
    # ------------------------------------------------------------------

    def lower_vector(self, term: Term) -> str:
        memo = self._vector_memo.get(term) if self.share else None
        if memo is not None:
            return memo
        op = term.op
        if op == "Vec":
            reg = self._lower_vec(term)
        elif op in _VBIN:
            a = self.lower_vector(term.args[0])
            b = self.lower_vector(term.args[1])
            reg = self.regs.vector()
            self.program.emit(vir.VBin(_VBIN[op], reg, a, b))
        elif op == "VecMAC":
            acc = self.lower_vector(term.args[0])
            a = self.lower_vector(term.args[1])
            b = self.lower_vector(term.args[2])
            reg = self.regs.vector()
            self.program.emit(vir.VMac(reg, acc, a, b))
        elif op in _VUN:
            a = self.lower_vector(term.args[0])
            reg = self.regs.vector()
            self.program.emit(vir.VUn(_VUN[op], reg, a))
        else:
            raise LoweringError(f"cannot lower {op!r} as a vector expression")
        self._vector_memo[term] = reg
        return reg

    def _lower_vec(self, term: Term) -> str:
        width = self.width
        lanes = term.args
        if len(lanes) != width:
            raise LoweringError(
                f"Vec has {len(lanes)} lanes; backend expects machine width {width}"
            )

        literals: Dict[int, float] = {}
        gathers: Dict[str, List[Tuple[int, int]]] = {}
        scalars: Dict[int, Term] = {}
        for pos, lane in enumerate(lanes):
            if lane.is_num:
                literals[pos] = float(lane.value)  # type: ignore[arg-type]
            elif (
                lane.op == "Get"
                and lane.args[0].op == "Symbol"
                and lane.args[1].op == "Num"
            ):
                array = str(lane.args[0].value)
                index = int(lane.args[1].value)  # type: ignore[arg-type]
                gathers.setdefault(array, []).append((pos, index))
            else:
                scalars[pos] = lane

        parts: List[Tuple[str, Set[int]]] = []
        for array, pairs in gathers.items():
            parts.append(self._gather_from_array(array, pairs))
        if literals:
            values = tuple(literals.get(pos, 0.0) for pos in range(width))
            reg = self.regs.vector()
            self.program.emit(vir.VConst(reg, values))
            parts.append((reg, set(literals)))

        if not parts:
            # Every lane is a computed scalar: start from zeros.
            reg = self.regs.vector()
            self.program.emit(vir.VConst(reg, (0.0,) * width))
            current, covered = reg, set()
        else:
            current, covered = parts[0]
            for reg, positions in parts[1:]:
                merged = self.regs.vector()
                indices = tuple(
                    width + pos if pos in positions else pos for pos in range(width)
                )
                self.program.emit(vir.VSelect(merged, current, reg, indices))
                current = merged
                covered = covered | positions

        for pos, lane in scalars.items():
            sreg = self.lower_scalar(lane)
            inserted = self.regs.vector()
            self.program.emit(vir.VInsert(inserted, current, pos, sreg))
            current = inserted
        return current

    def _gather_from_array(
        self, array: str, pairs: List[Tuple[int, int]]
    ) -> Tuple[str, Set[int]]:
        """Materialize a register holding ``array[index]`` in lane
        ``pos`` for each (pos, index) pair; other lanes are don't-care.
        Returns (register, covered lane positions)."""
        width = self.width
        length = self._array_length(array)
        positions = {pos for pos, _ in pairs}

        # Constant-offset run: array[base + pos] for every pair -- one
        # contiguous vector load covers it (don't-care lanes included).
        diffs = {index - pos for pos, index in pairs}
        if len(diffs) == 1 and length >= width:
            base = diffs.pop()
            if 0 <= base and base + width <= length:
                reg = self.regs.vector()
                self.program.emit(vir.VLoad(reg, array, base))
                return reg, positions

        if length < width:
            # Array too short for any vector load: scalar loads plus
            # inserts (short inputs like a 3-vector translation).
            reg = self.regs.vector()
            self.program.emit(vir.VConst(reg, (0.0,) * width))
            current = reg
            for pos, index in pairs:
                sreg = self.regs.scalar()
                self.program.emit(vir.SLoad(sreg, array, index))
                inserted = self.regs.vector()
                self.program.emit(vir.VInsert(inserted, current, pos, sreg))
                current = inserted
            return current, positions

        # Aligned covering windows.
        bases = sorted({min((index // width) * width, length - width) for _, index in pairs})
        loads: Dict[int, str] = {}
        for base in bases:
            reg = self.regs.vector()
            self.program.emit(vir.VLoad(reg, array, base))
            loads[base] = reg

        def window_of(index: int) -> int:
            for base in bases:
                if base <= index < base + width:
                    return base
            raise LoweringError(f"no window covers {array}[{index}]")

        lane_window = {pos: window_of(index) for pos, index in pairs}
        lane_index = dict(pairs)

        if len(bases) == 1:
            base = bases[0]
            indices = tuple(
                lane_index[pos] - base if pos in positions else 0
                for pos in range(width)
            )
            reg = self.regs.vector()
            self.program.emit(vir.VShuffle(reg, loads[base], indices))
            return reg, positions

        # First select merges the two most-used windows lane-ordered;
        # subsequent selects fold in one window each (nested selects).
        first, second = bases[0], bases[1]
        indices = []
        satisfied: Set[int] = set()
        for pos in range(width):
            if pos in positions and lane_window[pos] == first:
                indices.append(lane_index[pos] - first)
                satisfied.add(pos)
            elif pos in positions and lane_window[pos] == second:
                indices.append(width + lane_index[pos] - second)
                satisfied.add(pos)
            else:
                indices.append(0)
        current = self.regs.vector()
        self.program.emit(
            vir.VSelect(current, loads[first], loads[second], tuple(indices))
        )
        for base in bases[2:]:
            indices = []
            for pos in range(width):
                if pos in positions and lane_window[pos] == base:
                    indices.append(width + lane_index[pos] - base)
                    satisfied.add(pos)
                else:
                    indices.append(pos)
            merged = self.regs.vector()
            self.program.emit(
                vir.VSelect(merged, current, loads[base], tuple(indices))
            )
            current = merged
        return current, positions

    def _array_length(self, array: str) -> int:
        try:
            return self.program.inputs[array]
        except KeyError as exc:
            raise LoweringError(f"unknown input array {array!r}") from exc

    # ------------------------------------------------------------------
    # Scalar expressions
    # ------------------------------------------------------------------

    def lower_scalar(self, term: Term) -> str:
        memo = self._scalar_memo.get(term) if self.share else None
        if memo is not None:
            return memo
        op = term.op
        reg = self.regs.scalar()
        if op == "Num":
            self.program.emit(vir.SConst(reg, float(term.value)))  # type: ignore[arg-type]
        elif op == "Get":
            if term.args[0].op != "Symbol" or term.args[1].op != "Num":
                raise LoweringError(f"non-canonical Get: {term}")
            array = str(term.args[0].value)
            self._array_length(array)  # existence check
            self.program.emit(
                vir.SLoad(reg, array, int(term.args[1].value))  # type: ignore[arg-type]
            )
        elif op in _SBIN:
            a = self.lower_scalar(term.args[0])
            b = self.lower_scalar(term.args[1])
            self.program.emit(vir.SBin(op, reg, a, b))
        elif op in _SUN:
            a = self.lower_scalar(term.args[0])
            self.program.emit(vir.SUn(op, reg, a))
        elif op == "Call":
            raise LoweringError(
                f"user function {term.value!r} has no target intrinsic; register "
                "one via the backend's instruction table (paper Section 6)"
            )
        else:
            raise LoweringError(f"cannot lower {op!r} as a scalar expression")
        self._scalar_memo[term] = reg
        return reg


def _flatten_concat(term: Term) -> List[Term]:
    if term.op == "Concat":
        return _flatten_concat(term.args[0]) + _flatten_concat(term.args[1])
    return [term]
