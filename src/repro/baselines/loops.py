"""Loop-construction helpers for parametric-size baseline kernels.

Parametric kernels (the paper's *Naive* and the generic library
baselines) must pay real control costs: loop-counter updates,
compare-and-branch, and address arithmetic on runtime indices.  This
module provides a small structured-emission layer over the IR so the
baseline generators read like the loops they model.

The emitted loop shape is ``i = 0; top: if (i >= n) goto end; body;
i += 1; goto top; end:`` -- three overhead instructions per iteration
plus the body, a fair model of a DSP with hardware loop assistance
(the unconditional back-edge costs one cycle; only *conditional*
branches pay the taken penalty).
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple, Union

from ..backend import vir
from ..backend.vir import Program, RegAllocator

__all__ = ["LoopEmitter"]


class LoopEmitter:
    """Structured scalar/vector emission with loops and guards."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.regs = RegAllocator()
        self._labels = 0

    # -- primitives ----------------------------------------------------

    def fresh_label(self, hint: str = "L") -> str:
        self._labels += 1
        return f"{hint}{self._labels}"

    def const(self, value: float) -> str:
        reg = self.regs.scalar()
        self.program.emit(vir.SConst(reg, float(value)))
        return reg

    def binary(self, op: str, a: str, b: str) -> str:
        reg = self.regs.scalar()
        self.program.emit(vir.SBin(op, reg, a, b))
        return reg

    def unary(self, op: str, a: str) -> str:
        reg = self.regs.scalar()
        self.program.emit(vir.SUn(op, reg, a))
        return reg

    def add(self, a: str, b: str) -> str:
        return self.binary("+", a, b)

    def mul(self, a: str, b: str) -> str:
        return self.binary("*", a, b)

    def load_idx(self, array: str, idx: str, offset: int = 0) -> str:
        reg = self.regs.scalar()
        self.program.emit(vir.SLoadIdx(reg, array, idx, offset))
        return reg

    def store_idx(self, array: str, idx: str, src: str, offset: int = 0) -> None:
        self.program.emit(vir.SStoreIdx(array, idx, src, offset))

    # -- vector primitives (for the hand-vectorized library baselines) -

    def vconst(self, values) -> str:
        reg = self.regs.vector()
        self.program.emit(vir.VConst(reg, tuple(values)))
        return reg

    def vzero(self) -> str:
        return self.vconst((0.0,) * self.program.vector_width)

    def vsplat(self, scalar: str) -> str:
        reg = self.regs.vector()
        self.program.emit(vir.VSplat(reg, scalar))
        return reg

    def vload_idx(self, array: str, idx: str, offset: int = 0) -> str:
        reg = self.regs.vector()
        self.program.emit(vir.VLoadIdx(reg, array, idx, offset))
        return reg

    def vmac(self, acc: str, a: str, b: str) -> str:
        reg = self.regs.vector()
        self.program.emit(vir.VMac(reg, acc, a, b))
        return reg

    def vmac_into(self, acc: str, a: str, b: str) -> None:
        """Accumulate in place (dst == acc), the idiom of vector loops."""
        self.program.emit(vir.VMac(acc, acc, a, b))

    def vstore_idx(self, array: str, idx: str, src: str, count: int, offset: int = 0) -> None:
        self.program.emit(vir.VStoreIdx(array, idx, src, count, offset))

    # -- structured control --------------------------------------------

    def loop(self, count: Union[int, str], body: Callable[[str], None]) -> None:
        """``for i in range(count): body(i)`` with the counter in a
        register.  ``count`` may be an immediate (materialized once,
        as a compiler would hoist it) or an existing register."""
        count_reg = self.const(count) if isinstance(count, int) else count
        i = self.const(0)
        top = self.fresh_label("loop")
        end = self.fresh_label("end")
        one = self.const(1)
        self.program.emit(vir.Label(top))
        self.program.emit(vir.Branch("ge", i, count_reg, end))
        body(i)
        self.program.emit(vir.SBin("+", i, i, one))
        self.program.emit(vir.Jump(top))
        self.program.emit(vir.Label(end))

    def loop_range(
        self,
        start: Union[int, str],
        stop: Union[int, str],
        body: Callable[[str], None],
    ) -> None:
        """``for i in range(start, stop): body(i)`` -- the ranged loops
        of library code (e.g. Householder updates over rows >= k)."""
        stop_reg = self.const(stop) if isinstance(stop, int) else stop
        start_reg = self.const(start) if isinstance(start, int) else start
        i = self.binary("+", start_reg, self.const(0))
        top = self.fresh_label("loop")
        end = self.fresh_label("end")
        one = self.const(1)
        self.program.emit(vir.Label(top))
        self.program.emit(vir.Branch("ge", i, stop_reg, end))
        body(i)
        self.program.emit(vir.SBin("+", i, i, one))
        self.program.emit(vir.Jump(top))
        self.program.emit(vir.Label(end))

    def loop_step(
        self,
        start: Union[int, str],
        stop_exclusive: Union[int, str],
        step: Union[int, str],
        body: Callable[[str], None],
    ) -> None:
        """``for (i = start; i < stop_exclusive; i += step): body(i)``
        -- the chunked vector loops of library kernels
        (``for (j = 0; j + 4 <= n; j += 4)`` is
        ``loop_step(0, n - 3, 4, ...)``)."""
        stop_reg = (
            self.const(stop_exclusive)
            if isinstance(stop_exclusive, int)
            else stop_exclusive
        )
        step_reg = self.const(step) if isinstance(step, int) else step
        start_reg = self.const(start) if isinstance(start, int) else start
        i = self.binary("+", start_reg, self.const(0))
        top = self.fresh_label("loop")
        end = self.fresh_label("end")
        self.program.emit(vir.Label(top))
        self.program.emit(vir.Branch("ge", i, stop_reg, end))
        body(i)
        self.program.emit(vir.SBin("+", i, i, step_reg))
        self.program.emit(vir.Jump(top))
        self.program.emit(vir.Label(end))

    def guard(
        self,
        conditions: Sequence[Tuple[str, str, str]],
        body: Callable[[], None],
    ) -> None:
        """Run ``body`` only when every ``(cond, a, b)`` holds -- the
        boundary-``if`` of the convolution loops.  Each condition is
        compiled to a skip-branch on its negation."""
        skip = self.fresh_label("skip")
        negation = {"lt": "ge", "le": "gt", "eq": "ne", "ne": "eq", "ge": "lt", "gt": "le"}
        for cond, a, b in conditions:
            self.program.emit(vir.Branch(negation[cond], a, b, skip))
        body()
        self.program.emit(vir.Label(skip))
