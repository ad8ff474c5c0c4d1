"""Symbolic values for lifting imperative reference kernels.

Diospyros lifts an imperative scalar program into the vector DSL by
*symbolically evaluating* it (paper Section 3.1, using Rosette).  For
the kernels the paper targets, all control flow is independent of the
input data, so symbolic evaluation reduces to *tracing*: run the
reference program on :class:`Sym` values whose arithmetic builds DSL
terms instead of computing numbers, and read the resulting expressions
out of the output matrix.

A reference kernel is therefore just a Python function::

    def vector_add(a, b, out):
        for i in range(len(out)):
            out[i] = a[i] + b[i]

which runs unchanged on concrete numpy arrays *and* on symbolic arrays
-- the property the paper exploits to execute references "for use in
validation or testing" (Section 3.1).

The module performs light *peephole* simplification while tracing
(``x + 0 -> x``, ``x * 1 -> x``, ``x * 0 -> 0``, constant folding).
This mirrors how Rosette's evaluator never materializes the trivial
parts of an accumulation like ``out[i] += ...`` starting from zero, and
keeps lifted specs free of noise the rewriter would otherwise have to
clean up.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Tuple, Union

from ..dsl import ast
from ..dsl.ast import Term
from ..dsl.ops import scalar_eval

__all__ = [
    "Sym",
    "SymbolicArray",
    "OutputArray",
    "wrap",
    "sym_sqrt",
    "sym_sgn",
    "sym_call",
]

Scalarish = Union["Sym", int, float]


def wrap(value: Scalarish) -> "Sym":
    """Coerce a Python number (or pass through a :class:`Sym`)."""
    if isinstance(value, Sym):
        return value
    if isinstance(value, (int, float)):
        return Sym(ast.num(value))
    raise TypeError(f"cannot use {type(value).__name__} as a symbolic scalar")


def _binary(op: str, left: Scalarish, right: Scalarish) -> "Sym":
    a, b = wrap(left).term, wrap(right).term
    # Constant folding.
    if a.is_num and b.is_num and op != "/":
        return Sym(ast.num(scalar_eval(op, float(a.value), float(b.value))))
    if a.is_num and b.is_num and op == "/" and b.value != 0:
        return Sym(ast.num(float(a.value) / float(b.value)))
    # Peephole identities (sound over the reals, like the rewrite rules).
    if op == "+":
        if a.is_zero():
            return Sym(b)
        if b.is_zero():
            return Sym(a)
    elif op == "-":
        if b.is_zero():
            return Sym(a)
    elif op == "*":
        if a.is_zero() or b.is_zero():
            return Sym(ast.num(0))
        if a.is_one():
            return Sym(b)
        if b.is_one():
            return Sym(a)
    elif op == "/":
        if b.is_one():
            return Sym(a)
    return Sym(Term(op, (a, b)))


class Sym:
    """A symbolic scalar: a thin arithmetic wrapper around a DSL term."""

    __slots__ = ("term",)

    def __init__(self, term: Term) -> None:
        self.term = term

    def __repr__(self) -> str:
        return f"Sym({self.term.to_sexpr()})"

    # Arithmetic -- each operation builds a term.
    def __add__(self, other: Scalarish) -> "Sym":
        return _binary("+", self, other)

    def __radd__(self, other: Scalarish) -> "Sym":
        return _binary("+", other, self)

    def __sub__(self, other: Scalarish) -> "Sym":
        return _binary("-", self, other)

    def __rsub__(self, other: Scalarish) -> "Sym":
        return _binary("-", other, self)

    def __mul__(self, other: Scalarish) -> "Sym":
        return _binary("*", self, other)

    def __rmul__(self, other: Scalarish) -> "Sym":
        return _binary("*", other, self)

    def __truediv__(self, other: Scalarish) -> "Sym":
        return _binary("/", self, other)

    def __rtruediv__(self, other: Scalarish) -> "Sym":
        return _binary("/", other, self)

    def __neg__(self) -> "Sym":
        if self.term.is_num:
            return Sym(ast.num(-float(self.term.value)))
        return Sym(ast.neg(self.term))

    def __pos__(self) -> "Sym":
        return self

    # Comparisons on symbolic values would make control flow
    # data-dependent, which tracing cannot lift; fail loudly.
    def _no_compare(self, other: object) -> bool:
        raise TypeError(
            "data-dependent control flow cannot be lifted symbolically; "
            "restructure the kernel so branches depend only on loop "
            "indices and compile-time sizes (paper Section 3.1)"
        )

    __lt__ = __le__ = __gt__ = __ge__ = _no_compare

    def __bool__(self) -> bool:
        self._no_compare(None)
        return False  # pragma: no cover


def sym_sqrt(value):
    """Square root usable on symbolic, concrete, and traced values.

    Dispatches on the value's kind so that the *same* reference kernel
    source runs under lifting (:class:`Sym`), concrete testing
    (floats), and the baselines' register tracing (any object exposing
    ``__repro_sqrt__``).
    """
    if isinstance(value, (int, float)):
        return math.sqrt(value)
    hook = getattr(value, "__repro_sqrt__", None)
    if hook is not None:
        return hook()
    t = wrap(value).term
    if t.is_num:
        return Sym(ast.num(math.sqrt(float(t.value))))
    return Sym(ast.sqrt(t))


def sym_sgn(value):
    """Sign function usable on symbolic, concrete, and traced values
    (see :func:`sym_sqrt` for the dispatch contract)."""
    if isinstance(value, (int, float)):
        return scalar_eval("sgn", float(value))
    hook = getattr(value, "__repro_sgn__", None)
    if hook is not None:
        return hook()
    t = wrap(value).term
    if t.is_num:
        return Sym(ast.num(scalar_eval("sgn", float(t.value))))
    return Sym(ast.sgn(t))


def sym_call(name: str, *args: Scalarish) -> Sym:
    """Apply a user-defined (uninterpreted) function symbolically."""
    return Sym(ast.call(name, *(wrap(a).term for a in args)))


class SymbolicArray:
    """A read-only symbolic input array.

    Supports flat indexing ``a[i]`` and, when a 2-D ``shape`` is given,
    row-major pair indexing ``a[r, c]`` / ``a[r][c]`` (returning a
    symbolic row view).  Every read produces a ``(Get name index)``
    term -- the DSL's memory-access primitive.
    """

    def __init__(self, name: str, length: int, shape: Optional[Tuple[int, ...]] = None):
        if length <= 0:
            raise ValueError(f"array {name!r} must have positive length")
        if shape is not None:
            expected = 1
            for dim in shape:
                expected *= dim
            if expected != length:
                raise ValueError(
                    f"shape {shape} has {expected} elements, length is {length}"
                )
        self.name = name
        self.length = length
        self.shape = shape

    def __len__(self) -> int:
        if self.shape is not None:
            return self.shape[0]
        return self.length

    def _flat(self, index: int) -> Sym:
        if not 0 <= index < self.length:
            raise IndexError(f"{self.name}[{index}] out of range 0..{self.length - 1}")
        return Sym(ast.get(self.name, index))

    def flat(self, index: int) -> Sym:
        """Read by flat (row-major) index regardless of declared shape."""
        return self._flat(index)

    def __getitem__(self, index: Union[int, Tuple[int, int]]) -> Union[Sym, "_RowView"]:
        if isinstance(index, tuple):
            row, col = index
            return self._pair(row, col)
        if self.shape is not None and len(self.shape) == 2:
            return _RowView(self, index)
        return self._flat(index)

    def _pair(self, row: int, col: int) -> Sym:
        if self.shape is None or len(self.shape) != 2:
            raise TypeError(f"array {self.name!r} has no 2-D shape")
        rows, cols = self.shape
        if not (0 <= row < rows and 0 <= col < cols):
            raise IndexError(f"{self.name}[{row}][{col}] out of range {self.shape}")
        return self._flat(row * cols + col)

    def __iter__(self) -> Iterator[Union[Sym, "_RowView"]]:
        return (self[i] for i in range(len(self)))


class _RowView:
    """One row of a 2-D :class:`SymbolicArray` (read-only)."""

    def __init__(self, array: SymbolicArray, row: int) -> None:
        rows = array.shape[0]  # type: ignore[index]
        if not 0 <= row < rows:
            raise IndexError(f"{array.name}[{row}] out of range")
        self.array = array
        self.row = row

    def __len__(self) -> int:
        return self.array.shape[1]  # type: ignore[index]

    def __getitem__(self, col: int) -> Sym:
        return self.array._pair(self.row, col)

    def __iter__(self) -> Iterator[Sym]:
        return (self[c] for c in range(len(self)))


class OutputArray:
    """A mutable output matrix accumulating symbolic (or concrete)
    values, initialized to zero like a C output buffer.

    Supports the same flat / pair indexing as :class:`SymbolicArray`,
    plus item assignment, so reference kernels can use the natural
    ``out[r][c] += ...`` style.
    """

    def __init__(self, length: int, shape: Optional[Tuple[int, ...]] = None):
        if length <= 0:
            raise ValueError("output array must have positive length")
        self.length = length
        self.shape = shape
        self.values: List[Scalarish] = [0.0] * length

    def __len__(self) -> int:
        if self.shape is not None:
            return self.shape[0]
        return self.length

    def _flat_index(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(f"output[{index}] out of range 0..{self.length - 1}")
        return index

    def __getitem__(self, index: Union[int, Tuple[int, int]]):
        if isinstance(index, tuple):
            row, col = index
            return self.values[self._pair_index(row, col)]
        if self.shape is not None and len(self.shape) == 2:
            return _OutRowView(self, index)
        return self.values[self._flat_index(index)]

    def __setitem__(self, index: Union[int, Tuple[int, int]], value: Scalarish):
        if isinstance(index, tuple):
            row, col = index
            self.values[self._pair_index(row, col)] = value
        else:
            self.values[self._flat_index(index)] = value

    def _pair_index(self, row: int, col: int) -> int:
        if self.shape is None or len(self.shape) != 2:
            raise TypeError("output array has no 2-D shape")
        rows, cols = self.shape
        if not (0 <= row < rows and 0 <= col < cols):
            raise IndexError(f"output[{row}][{col}] out of range {self.shape}")
        return row * cols + col

    def terms(self) -> List[Term]:
        """The symbolic expression of every output element (constants
        for elements never written)."""
        return [wrap(v).term for v in self.values]


class _OutRowView:
    """One row of a 2-D :class:`OutputArray` (read-write)."""

    def __init__(self, array: OutputArray, row: int) -> None:
        rows = array.shape[0]  # type: ignore[index]
        if not 0 <= row < rows:
            raise IndexError(f"output[{row}] out of range")
        self.array = array
        self.row = row

    def __len__(self) -> int:
        return self.array.shape[1]  # type: ignore[index]

    def __getitem__(self, col: int) -> Scalarish:
        return self.array.values[self.array._pair_index(self.row, col)]

    def __setitem__(self, col: int, value: Scalarish) -> None:
        self.array.values[self.array._pair_index(self.row, col)] = value
