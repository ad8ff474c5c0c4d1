"""Lifting reference kernels into vector-DSL specifications.

:func:`lift` runs a reference kernel on symbolic inputs and packages
the result: a ``(List e0 e1 ...)`` term with one scalar expression per
output element (paper Section 3.1's specification extraction), plus
the input/output array declarations the backend and the validator need.

The same reference function also runs on concrete data
(:func:`run_reference`), giving the trusted oracle used for
differential testing of the whole compiler.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..dsl.ast import Term, lst
from .symbolic import OutputArray, Sym, SymbolicArray, wrap

__all__ = ["ArrayDecl", "Spec", "lift", "run_reference", "random_inputs"]

Shape = Union[int, Tuple[int, int]]


def _shape_length(shape: Shape) -> int:
    if isinstance(shape, int):
        return shape
    rows, cols = shape
    return rows * cols


def _shape_tuple(shape: Shape) -> Optional[Tuple[int, ...]]:
    return None if isinstance(shape, int) else tuple(shape)


@dataclass(frozen=True)
class ArrayDecl:
    """Declaration of one input or output array.

    ``shape`` is either a flat length or a (rows, cols) pair; storage
    is always flat row-major, matching the DSL's 1-D ``Get`` accesses
    ("2D arrays flattened to 1D access", paper Section 2).
    """

    name: str
    shape: Shape

    @property
    def length(self) -> int:
        return _shape_length(self.shape)


@dataclass
class Spec:
    """A lifted kernel specification.

    ``term`` is the top-level ``(List ...)`` whose i-th element is the
    closed-form scalar expression of the i-th output value (outputs
    concatenated in declaration order).
    """

    name: str
    inputs: Tuple[ArrayDecl, ...]
    outputs: Tuple[ArrayDecl, ...]
    term: Term

    @property
    def n_outputs(self) -> int:
        return sum(o.length for o in self.outputs)

    @property
    def input_names(self) -> List[str]:
        return [i.name for i in self.inputs]

    def __post_init__(self) -> None:
        if self.term.op != "List":
            raise ValueError("spec term must be a top-level List")
        if len(self.term.args) != self.n_outputs:
            raise ValueError(
                f"spec {self.name!r}: List has {len(self.term.args)} elements "
                f"but outputs declare {self.n_outputs}"
            )
        seen = set()
        for decl in (*self.inputs, *self.outputs):
            if decl.name in seen:
                raise ValueError(f"duplicate array name {decl.name!r}")
            seen.add(decl.name)


def lift(
    name: str,
    fn: Callable[..., None],
    inputs: Sequence[Tuple[str, Shape]],
    outputs: Sequence[Tuple[str, Shape]],
) -> Spec:
    """Symbolically evaluate ``fn`` and produce its :class:`Spec`.

    ``fn`` receives one :class:`SymbolicArray` per input followed by
    one :class:`OutputArray` per output and must write every output it
    means to define (unwritten elements lift to the constant 0, the
    C-buffer convention).
    """
    input_decls = tuple(ArrayDecl(n, s) for n, s in inputs)
    output_decls = tuple(ArrayDecl(n, s) for n, s in outputs)
    sym_inputs = [
        SymbolicArray(d.name, d.length, _shape_tuple(d.shape)) for d in input_decls
    ]
    sym_outputs = [OutputArray(d.length, _shape_tuple(d.shape)) for d in output_decls]
    fn(*sym_inputs, *sym_outputs)
    elements: List[Term] = []
    for out in sym_outputs:
        elements.extend(out.terms())
    return Spec(name, input_decls, output_decls, lst(*elements))


def run_reference(
    fn: Callable[..., None],
    spec: Spec,
    input_values: Mapping[str, Sequence[float]],
) -> List[float]:
    """Execute the reference kernel concretely; return the flattened
    outputs (declaration order).

    The inputs are the *flat* arrays of :class:`Spec`; they are
    re-wrapped with the declared shapes so the same kernel source runs
    unmodified.
    """
    concrete_inputs = []
    for decl in spec.inputs:
        flat = list(input_values[decl.name])
        if len(flat) != decl.length:
            raise ValueError(
                f"input {decl.name!r}: expected {decl.length} values, got {len(flat)}"
            )
        concrete_inputs.append(_ConcreteArray(flat, _shape_tuple(decl.shape)))
    concrete_outputs = [
        OutputArray(d.length, _shape_tuple(d.shape)) for d in spec.outputs
    ]
    fn(*concrete_inputs, *concrete_outputs)
    result: List[float] = []
    for out in concrete_outputs:
        for v in out.values:
            result.append(float(wrap(v).term.value) if isinstance(v, Sym) else float(v))
    return result


class _ConcreteArray:
    """Concrete counterpart of :class:`SymbolicArray`: same indexing
    protocol, backed by a flat list of floats."""

    def __init__(self, flat: List[float], shape: Optional[Tuple[int, ...]]):
        self._flat = flat
        self.shape = shape

    def __len__(self) -> int:
        if self.shape is not None:
            return self.shape[0]
        return len(self._flat)

    def flat(self, index: int) -> float:
        """Read by flat (row-major) index regardless of declared shape."""
        return self._flat[index]

    def __getitem__(self, index):
        if isinstance(index, tuple):
            row, col = index
            return self._flat[row * self.shape[1] + col]
        if self.shape is not None and len(self.shape) == 2:
            return _ConcreteRow(self, index)
        return self._flat[index]

    def __iter__(self):
        return (self[i] for i in range(len(self)))


class _ConcreteRow:
    def __init__(self, array: _ConcreteArray, row: int) -> None:
        if not 0 <= row < array.shape[0]:  # type: ignore[index]
            raise IndexError(f"row {row} out of range")
        self.array = array
        self.row = row

    def __len__(self) -> int:
        return self.array.shape[1]  # type: ignore[index]

    def __getitem__(self, col: int) -> float:
        return self.array[(self.row, col)]

    def __iter__(self):
        return (self[c] for c in range(len(self)))


def random_inputs(
    spec: Spec, rng: Optional[random.Random] = None, lo: float = -2.0, hi: float = 2.0
) -> Dict[str, List[float]]:
    """Random flat input arrays for differential testing."""
    rng = rng or random.Random(0)
    return {
        decl.name: [rng.uniform(lo, hi) for _ in range(decl.length)]
        for decl in spec.inputs
    }
