"""Operator catalogue for the Diospyros vector DSL.

This module is the single source of truth for the operator vocabulary
of Figure 3: each operator's arity, its *kind* (scalar computation,
vector computation, data movement, leaf, or the top-level ``List``),
and -- where one exists -- the scalar operator a vector operator
corresponds to.  The rewrite-rule generators in :mod:`repro.rules` and
the lowering phase in :mod:`repro.backend` both consult this table so
that adding a new target-specific operation (the paper's ``VecRecip``
example from Section 6) is a one-line change here plus one rewrite
rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

__all__ = [
    "OpKind",
    "OpInfo",
    "OPS",
    "SCALAR_BINOPS",
    "SCALAR_UNOPS",
    "VECTOR_OF_SCALAR",
    "SCALAR_OF_VECTOR",
    "is_scalar_op",
    "is_vector_op",
    "scalar_eval",
    "register_op",
]


class OpKind:
    """Enumeration of operator categories (plain strings for easy
    debugging and serialization)."""

    LEAF = "leaf"
    SCALAR = "scalar"
    VECTOR = "vector"
    MOVEMENT = "movement"
    TOP = "top"


@dataclass(frozen=True)
class OpInfo:
    """Static description of one DSL operator.

    ``arity`` is ``None`` for variadic operators (``Vec``, ``List``,
    ``Call``).  ``scalar_fn`` is the concrete Python evaluation function
    for scalar operators, used by the interpreter and the validator's
    random-testing mode.
    """

    name: str
    kind: str
    arity: Optional[int]
    scalar_fn: Optional[Callable[..., float]] = None
    commutative: bool = False
    associative: bool = False


def _sgn(x: float) -> float:
    """Sign function with sgn(0) = 0, matching ``numpy.sign``."""
    if x > 0:
        return 1.0
    if x < 0:
        return -1.0
    return 0.0


def _safe_sqrt(x: float) -> float:
    """Square root; the DSL is specified over the reals, so negative
    arguments are a spec error -- surface them loudly."""
    if x < 0:
        raise ValueError(f"sqrt of negative value {x}")
    return math.sqrt(x)


OPS: Dict[str, OpInfo] = {}


def register_op(info: OpInfo) -> OpInfo:
    """Add an operator to the catalogue (also how a user registers a
    target-specific extension such as a vector reciprocal)."""
    OPS[info.name] = info
    return info


for _info in [
    OpInfo("Num", OpKind.LEAF, 0),
    OpInfo("Symbol", OpKind.LEAF, 0),
    OpInfo("Get", OpKind.MOVEMENT, 2),
    OpInfo("+", OpKind.SCALAR, 2, lambda a, b: a + b, commutative=True, associative=True),
    OpInfo("-", OpKind.SCALAR, 2, lambda a, b: a - b),
    OpInfo("*", OpKind.SCALAR, 2, lambda a, b: a * b, commutative=True, associative=True),
    OpInfo("/", OpKind.SCALAR, 2, lambda a, b: a / b),
    OpInfo("neg", OpKind.SCALAR, 1, lambda a: -a),
    OpInfo("sqrt", OpKind.SCALAR, 1, _safe_sqrt),
    OpInfo("sgn", OpKind.SCALAR, 1, _sgn),
    OpInfo("Call", OpKind.SCALAR, None),
    OpInfo("Vec", OpKind.MOVEMENT, None),
    OpInfo("Concat", OpKind.MOVEMENT, 2),
    OpInfo("List", OpKind.TOP, None),
    OpInfo("VecAdd", OpKind.VECTOR, 2),
    OpInfo("VecMinus", OpKind.VECTOR, 2),
    OpInfo("VecMul", OpKind.VECTOR, 2),
    OpInfo("VecDiv", OpKind.VECTOR, 2),
    OpInfo("VecMAC", OpKind.VECTOR, 3),
    OpInfo("VecNeg", OpKind.VECTOR, 1),
    OpInfo("VecSqrt", OpKind.VECTOR, 1),
    OpInfo("VecSgn", OpKind.VECTOR, 1),
]:
    register_op(_info)


#: Binary scalar operators and the vector operator each lifts to.
#: This drives the generic binary-vectorization rule (Section 3.2).
SCALAR_BINOPS: Dict[str, str] = {
    "+": "VecAdd",
    "-": "VecMinus",
    "*": "VecMul",
    "/": "VecDiv",
}

#: Unary scalar operators and their vector equivalents.
SCALAR_UNOPS: Dict[str, str] = {
    "neg": "VecNeg",
    "sqrt": "VecSqrt",
    "sgn": "VecSgn",
}

#: Scalar -> vector operator map (union of the two tables above).
VECTOR_OF_SCALAR: Dict[str, str] = {**SCALAR_BINOPS, **SCALAR_UNOPS}

#: Vector -> scalar operator map (inverse of the above).
SCALAR_OF_VECTOR: Dict[str, str] = {v: k for k, v in VECTOR_OF_SCALAR.items()}


def is_scalar_op(op: str) -> bool:
    info = OPS.get(op)
    return info is not None and info.kind == OpKind.SCALAR


def is_vector_op(op: str) -> bool:
    info = OPS.get(op)
    return info is not None and info.kind == OpKind.VECTOR


def scalar_eval(op: str, *args: float) -> float:
    """Evaluate a scalar operator on concrete floats.

    Raises ``KeyError`` for unknown operators and ``TypeError`` when the
    operator has no concrete semantics (e.g. an uninterpreted ``Call``
    with no registered implementation).
    """
    info = OPS[op]
    if info.scalar_fn is None:
        raise TypeError(f"operator {op!r} has no concrete scalar semantics")
    return info.scalar_fn(*args)


def identity_element(op: str) -> Optional[float]:
    """The identity element of a binary scalar operator, when one
    exists (used for zero-padding rules: padding lanes must not change
    the result of the surviving lanes)."""
    return {"+": 0.0, "-": 0.0, "*": 1.0, "/": 1.0}.get(op)
