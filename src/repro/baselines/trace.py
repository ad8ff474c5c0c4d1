"""Register-level tracing: compile a reference kernel to unrolled
scalar IR by executing it on register-valued operands.

This is how we model what an optimizing compiler (``xt-xcc -O3``)
produces for a **fixed-size** scalar kernel: the loops unroll away
(bounds are compile-time), accumulators that live in source-level
locals are register-allocated, and every remaining array access
becomes a load/store.  Two fidelity knobs:

* ``cache_loads`` -- whether repeated reads of the same input element
  reuse one load.  The *naive fixed-size* baseline leaves this off
  (without C ``restrict``, the compiler must assume the output buffer
  may alias the inputs and cannot keep input elements in registers
  across output stores); the *Eigen-like* baseline turns it on
  (expression templates read each operand element into a local once).
* No algebraic CSE is performed either way -- that is precisely the
  advantage the paper attributes to Diospyros's symbolic evaluation +
  LVN even without vectorization (Section 5.6), so giving it to the
  baselines would model a compiler stronger than the one measured.

The traced kernel is the same Python source that lifting and concrete
testing run, so the three agree by construction.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from ..backend import vir
from ..backend.vir import Program, RegAllocator
from ..kernels.base import Kernel

__all__ = ["TraceEmitter", "trace_kernel"]


class TraceEmitter:
    """Emits scalar IR while a reference kernel executes."""

    def __init__(self, program: Program, cache_loads: bool = False) -> None:
        self.program = program
        self.regs = RegAllocator()
        self.cache_loads = cache_loads
        self._const_cache: Dict[float, str] = {}
        self._load_cache: Dict[Tuple[str, int], str] = {}

    def const(self, value: float) -> str:
        reg = self._const_cache.get(value)
        if reg is None:
            reg = self.regs.scalar()
            self.program.emit(vir.SConst(reg, float(value)))
            self._const_cache[value] = reg
        return reg

    def load(self, array: str, offset: int) -> str:
        key = (array, offset)
        if self.cache_loads:
            cached = self._load_cache.get(key)
            if cached is not None:
                return cached
        reg = self.regs.scalar()
        self.program.emit(vir.SLoad(reg, array, offset))
        if self.cache_loads:
            self._load_cache[key] = reg
        return reg

    def binary(self, op: str, a: "RVal", b: "RVal") -> "RVal":
        reg = self.regs.scalar()
        self.program.emit(vir.SBin(op, reg, a.reg, b.reg))
        return RVal(self, reg)

    def unary(self, op: str, a: "RVal") -> "RVal":
        reg = self.regs.scalar()
        self.program.emit(vir.SUn(op, reg, a.reg))
        return RVal(self, reg)

    def value(self, v: Union["RVal", int, float]) -> "RVal":
        if isinstance(v, RVal):
            return v
        return RVal(self, self.const(float(v)))


class RVal:
    """A scalar value held in a register; arithmetic emits IR."""

    __slots__ = ("emitter", "reg")

    def __init__(self, emitter: TraceEmitter, reg: str) -> None:
        self.emitter = emitter
        self.reg = reg

    def _bin(self, op: str, other, reverse: bool = False):
        # Constant folding on literal operands -- the trivial strength
        # reduction any compiler performs (x+0, x*1, x*0, x/1).
        if isinstance(other, (int, float)):
            literal = float(other)
            if op == "+" and literal == 0.0:
                return self
            if op == "-" and literal == 0.0:
                return -self if reverse else self
            if op == "*":
                if literal == 1.0:
                    return self
                if literal == 0.0:
                    return 0.0
            if op == "/" and not reverse and literal == 1.0:
                return self
        other = self.emitter.value(other)
        if reverse:
            return self.emitter.binary(op, other, self)
        return self.emitter.binary(op, self, other)

    def __add__(self, other):
        return self._bin("+", other)

    def __radd__(self, other):
        return self._bin("+", other, reverse=True)

    def __sub__(self, other):
        return self._bin("-", other)

    def __rsub__(self, other):
        return self._bin("-", other, reverse=True)

    def __mul__(self, other):
        return self._bin("*", other)

    def __rmul__(self, other):
        return self._bin("*", other, reverse=True)

    def __truediv__(self, other):
        return self._bin("/", other)

    def __rtruediv__(self, other):
        return self._bin("/", other, reverse=True)

    def __neg__(self):
        return self.emitter.unary("neg", self)

    def __repro_sqrt__(self):
        return self.emitter.unary("sqrt", self)

    def __repro_sgn__(self):
        return self.emitter.unary("sgn", self)


class _TraceInputArray:
    """Input array wrapper: reads emit loads."""

    def __init__(self, emitter: TraceEmitter, name: str, shape) -> None:
        self.emitter = emitter
        self.name = name
        self.shape = shape if not isinstance(shape, int) else None
        self.length = shape if isinstance(shape, int) else shape[0] * shape[1]

    def __len__(self):
        return self.shape[0] if self.shape else self.length

    def flat(self, index: int) -> RVal:
        return RVal(self.emitter, self.emitter.load(self.name, index))

    def __getitem__(self, index):
        if isinstance(index, tuple):
            row, col = index
            return self.flat(row * self.shape[1] + col)
        if self.shape:
            return _TraceRow(self, index)
        return self.flat(index)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


class _TraceRow:
    def __init__(self, array: _TraceInputArray, row: int) -> None:
        self.array = array
        self.row = row

    def __len__(self):
        return self.array.shape[1]

    def __getitem__(self, col: int) -> RVal:
        return self.array.flat(self.row * self.array.shape[1] + col)

    def __iter__(self):
        return (self[c] for c in range(len(self)))


class _TraceOutputArray:
    """Output array wrapper: values accumulate in registers (the
    compiler register-allocates source-level accumulators) and are
    stored once at :meth:`finish`."""

    def __init__(self, length: int, shape) -> None:
        self.length = length
        self.shape = shape if not isinstance(shape, int) else None
        self.values: List[Union[RVal, float]] = [0.0] * length

    def __len__(self):
        return self.shape[0] if self.shape else self.length

    def _pair_index(self, row: int, col: int) -> int:
        return row * self.shape[1] + col

    def __getitem__(self, index):
        if isinstance(index, tuple):
            return self.values[self._pair_index(*index)]
        if self.shape:
            return _TraceOutRow(self, index)
        return self.values[index]

    def __setitem__(self, index, value):
        if isinstance(index, tuple):
            self.values[self._pair_index(*index)] = value
        else:
            self.values[index] = value


class _TraceOutRow:
    def __init__(self, array: _TraceOutputArray, row: int) -> None:
        self.array = array
        self.row = row

    def __len__(self):
        return self.array.shape[1]

    def __getitem__(self, col: int):
        return self.array.values[self.array._pair_index(self.row, col)]

    def __setitem__(self, col: int, value):
        self.array.values[self.array._pair_index(self.row, col)] = value


def trace_kernel(
    kernel: Kernel, name_suffix: str, cache_loads: bool = False
) -> Program:
    """Compile ``kernel`` to unrolled straight-line scalar IR.

    The combined output buffer layout matches Diospyros's (all outputs
    concatenated into ``out``), so every implementation of a kernel is
    compared on identical ABIs.
    """
    spec = kernel.spec()
    program = Program(
        name=f"{kernel.name}-{name_suffix}",
        inputs={d.name: d.length for d in spec.inputs},
        outputs={"out": spec.n_outputs},
        vector_width=4,
    )
    emitter = TraceEmitter(program, cache_loads=cache_loads)
    inputs = [
        _TraceInputArray(emitter, d.name, d.shape) for d in spec.inputs
    ]
    outputs = [_TraceOutputArray(d.length, d.shape) for d in spec.outputs]
    kernel.reference(*inputs, *outputs)

    offset = 0
    for out in outputs:
        for value in out.values:
            if isinstance(value, RVal):
                program.emit(vir.SStore("out", offset, value.reg))
            elif float(value) != 0.0:
                reg = emitter.const(float(value))
                program.emit(vir.SStore("out", offset, reg))
            # Exact zeros need no store: output buffers start zeroed.
            offset += 1
    return program
