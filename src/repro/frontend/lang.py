"""A structured imperative input language.

The paper's frontend is an embedded Racket DSL with first-class
matrix/vector objects (Section 3.1)::

    (define (vector-add-spec A B n)
      (vec-decl 'A n 'input) ...
      (for ([i n]) (vector-set! C i (add (vector-ref A i) ...))))

This module is the Python analogue, for users who prefer a first-class
program object over a traced Python function: a tiny AST of loops,
conditionals, array reads/writes, and scalar arithmetic, where **index
expressions and conditions range over loop variables and compile-time
constants only** (data-independent control flow, the condition under
which symbolic evaluation is exact).  Programs evaluate either
symbolically -- producing the same :class:`~repro.frontend.lift.Spec`
as tracing -- or concretely, for testing.

Example::

    prog = Program(
        "vector-add",
        inputs=[("a", 4), ("b", 4)],
        outputs=[("c", 4)],
        body=[For("i", 4, [
            Store("c", Var("i"), Add(Load("a", Var("i")), Load("b", Var("i")))),
        ])],
    )
    spec = prog.lift()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from .lift import Shape, Spec, lift
from .symbolic import Scalarish, sym_call, sym_sgn, sym_sqrt

__all__ = [
    "Program",
    "For",
    "If",
    "Store",
    "AddStore",
    "Load",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "Sqrt",
    "Sgn",
    "CallFn",
    "IdxAdd",
    "IdxSub",
    "IdxMul",
]

# ---------------------------------------------------------------------------
# Index expressions (evaluate to Python ints at lift time)
# ---------------------------------------------------------------------------


class IndexExpr:
    """Base class of compile-time index expressions."""

    def evaluate(self, env: Dict[str, int]) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Var(IndexExpr):
    """A loop variable reference."""

    name: str

    def evaluate(self, env: Dict[str, int]) -> int:
        try:
            return env[self.name]
        except KeyError as exc:
            raise NameError(f"unbound loop variable {self.name!r}") from exc


@dataclass(frozen=True)
class IdxConst(IndexExpr):
    value: int

    def evaluate(self, env: Dict[str, int]) -> int:
        return self.value


@dataclass(frozen=True)
class _IdxBin(IndexExpr):
    left: IndexExpr
    right: IndexExpr


class IdxAdd(_IdxBin):
    def evaluate(self, env: Dict[str, int]) -> int:
        return self.left.evaluate(env) + self.right.evaluate(env)


class IdxSub(_IdxBin):
    def evaluate(self, env: Dict[str, int]) -> int:
        return self.left.evaluate(env) - self.right.evaluate(env)


class IdxMul(_IdxBin):
    def evaluate(self, env: Dict[str, int]) -> int:
        return self.left.evaluate(env) * self.right.evaluate(env)


def _as_index(value: Union[IndexExpr, int]) -> IndexExpr:
    return IdxConst(value) if isinstance(value, int) else value


# ---------------------------------------------------------------------------
# Value expressions (evaluate to symbolic or concrete scalars)
# ---------------------------------------------------------------------------


class ValueExpr:
    """Base class of scalar value expressions."""

    def evaluate(self, arrays: Dict[str, object], env: Dict[str, int]) -> Scalarish:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(ValueExpr):
    value: float

    def evaluate(self, arrays, env):
        return self.value


@dataclass(frozen=True)
class Load(ValueExpr):
    """Read ``array[index]`` (flat index)."""

    array: str
    index: IndexExpr

    def evaluate(self, arrays, env):
        target = arrays.get(self.array)
        if target is None:
            raise NameError(f"unknown array {self.array!r}")
        flat = self.index.evaluate(env)
        # Output arrays are readable too (accumulation patterns).
        if hasattr(target, "values"):
            return target.values[flat]
        return target.flat(flat)  # type: ignore[attr-defined]


@dataclass(frozen=True)
class _Bin(ValueExpr):
    left: ValueExpr
    right: ValueExpr


class Add(_Bin):
    def evaluate(self, arrays, env):
        return self.left.evaluate(arrays, env) + self.right.evaluate(arrays, env)


class Sub(_Bin):
    def evaluate(self, arrays, env):
        return self.left.evaluate(arrays, env) - self.right.evaluate(arrays, env)


class Mul(_Bin):
    def evaluate(self, arrays, env):
        return self.left.evaluate(arrays, env) * self.right.evaluate(arrays, env)


class Div(_Bin):
    def evaluate(self, arrays, env):
        return self.left.evaluate(arrays, env) / self.right.evaluate(arrays, env)


@dataclass(frozen=True)
class Neg(ValueExpr):
    operand: ValueExpr

    def evaluate(self, arrays, env):
        return -self.operand.evaluate(arrays, env)


@dataclass(frozen=True)
class Sqrt(ValueExpr):
    operand: ValueExpr

    def evaluate(self, arrays, env):
        return sym_sqrt(self.operand.evaluate(arrays, env))


@dataclass(frozen=True)
class Sgn(ValueExpr):
    operand: ValueExpr

    def evaluate(self, arrays, env):
        return sym_sgn(self.operand.evaluate(arrays, env))


@dataclass(frozen=True)
class CallFn(ValueExpr):
    """Application of a user-defined (uninterpreted) function."""

    name: str
    args: Tuple[ValueExpr, ...]

    def evaluate(self, arrays, env):
        return sym_call(self.name, *(a.evaluate(arrays, env) for a in self.args))


# ---------------------------------------------------------------------------
# Conditions over index expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cmp:
    """Comparison between index expressions: one of <, <=, ==, >=, >."""

    op: str
    left: IndexExpr
    right: IndexExpr

    _OPS = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        "==": lambda a, b: a == b,
        ">=": lambda a, b: a >= b,
        ">": lambda a, b: a > b,
    }

    def evaluate(self, env: Dict[str, int]) -> bool:
        try:
            fn = self._OPS[self.op]
        except KeyError as exc:
            raise ValueError(f"unknown comparison {self.op!r}") from exc
        return fn(self.left.evaluate(env), self.right.evaluate(env))


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    def run(self, arrays: Dict[str, object], env: Dict[str, int]) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class Store(Statement):
    """``array[index] = value`` (flat index into an output array)."""

    array: str
    index: IndexExpr
    value: ValueExpr

    def run(self, arrays, env):
        target = arrays[self.array]
        if not hasattr(target, "values"):
            raise TypeError(f"cannot store into input array {self.array!r}")
        target.values[self.index.evaluate(env)] = self.value.evaluate(arrays, env)


@dataclass(frozen=True)
class AddStore(Statement):
    """``array[index] += value`` -- the accumulation idiom of the
    paper's convolution example."""

    array: str
    index: IndexExpr
    value: ValueExpr

    def run(self, arrays, env):
        target = arrays[self.array]
        if not hasattr(target, "values"):
            raise TypeError(f"cannot store into input array {self.array!r}")
        flat = self.index.evaluate(env)
        target.values[flat] = target.values[flat] + self.value.evaluate(arrays, env)


@dataclass(frozen=True)
class For(Statement):
    """``for var in range(count): body`` with a compile-time count."""

    var: str
    count: int
    body: Tuple[Statement, ...]

    def __init__(self, var: str, count: int, body: Sequence[Statement]):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "body", tuple(body))

    def run(self, arrays, env):
        if self.var in env:
            raise NameError(f"loop variable {self.var!r} shadows an outer loop")
        inner = dict(env)
        for i in range(self.count):
            inner[self.var] = i
            for stmt in self.body:
                stmt.run(arrays, inner)


@dataclass(frozen=True)
class If(Statement):
    """Conditional on index expressions only -- the boundary-condition
    ``if`` of the convolution example (always decidable at lift time)."""

    conditions: Tuple[Cmp, ...]
    body: Tuple[Statement, ...]

    def __init__(self, conditions: Sequence[Cmp], body: Sequence[Statement]):
        object.__setattr__(self, "conditions", tuple(conditions))
        object.__setattr__(self, "body", tuple(body))

    def run(self, arrays, env):
        if all(cond.evaluate(env) for cond in self.conditions):
            for stmt in self.body:
                stmt.run(arrays, env)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


@dataclass
class Program:
    """A complete imperative kernel in the structured language."""

    name: str
    inputs: List[Tuple[str, Shape]]
    outputs: List[Tuple[str, Shape]]
    body: List[Statement]

    def _run(self, *arrays: object) -> None:
        names = [n for n, _ in self.inputs] + [n for n, _ in self.outputs]
        table = dict(zip(names, arrays))
        for stmt in self.body:
            stmt.run(table, {})

    def lift(self) -> Spec:
        """Symbolically evaluate the program into a :class:`Spec`."""
        return lift(self.name, self._run, self.inputs, self.outputs)

    def reference(self):
        """The callable form, usable with
        :func:`repro.frontend.lift.run_reference`."""
        return self._run
