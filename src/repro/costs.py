"""Cost models for extraction.

The paper's cost model (Section 3.4) is deliberately high-level: a
fixed cost per DSL operator, with the one subtlety that ``Vec`` -- the
data-movement construct -- is charged by *where its lanes come from*:

* lanes that are literals (especially zeros) are nearly free;
* lanes gathered from a **single input array** are cheap: contiguous
  runs lower to a vector load, anything else to one single-register
  shuffle (``PDX_SHFL``);
* lanes gathered **across arrays** need two-register selects
  (``PDX_SEL``), possibly nested -- more expensive;
* lanes that are *computed scalars* force scalar computation plus an
  insertion into the vector register -- the most expensive option.

This mirrors the Fusion G3's fast unrestricted shuffle (the paper notes
the model would fit less well on machines without one; the weights here
are configurable for exactly that experiment -- see
``TestCostModelAblation`` in ``benchmarks/test_ablation_design.py``).

All costs are strictly positive per node, preserving the monotonicity
extraction requires.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from .egraph.egraph import ENode
from .egraph.extract import CostFunction, Extractor

__all__ = ["CostConfig", "DiospyrosCostModel", "TermSizeCostModel", "lane_kind"]


@dataclass(frozen=True)
class CostConfig:
    """Weights of the abstract cost model.

    The defaults encode "a vector op does the work of ``vector_width``
    scalar ops in one instruction, and in-register data movement is
    cheap but not free".
    """

    vector_width: int = 4
    #: Literal leaves (Num / Symbol).
    literal: float = 0.1
    #: A scalar ``Get`` outside any Vec: one scalar load.
    scalar_get: float = 0.2
    #: One scalar arithmetic operation (+, -, *, /, neg, sqrt, sgn, Call).
    scalar_op: float = 2.0
    #: One vector arithmetic operation (VecAdd ... VecMAC).
    vector_op: float = 1.0
    #: Vec whose lanes are a contiguous run from one array: vector load.
    vec_contiguous: float = 1.0
    #: Vec gathering from a single array (or zeros): one shuffle.
    vec_shuffle: float = 1.6
    #: Base cost of a cross-array gather: a two-register select.
    vec_select: float = 3.0
    #: Extra select cost per additional source array beyond two.
    vec_extra_array: float = 1.5
    #: Penalty per lane whose value is a computed scalar (must be
    #: calculated on the scalar unit and inserted into the register).
    vec_scalar_lane: float = 5.0
    #: Vec made entirely of literals: materialized constant register.
    vec_literal: float = 0.5
    #: Structural glue (List / Concat) per node.
    structure: float = 0.1

    def scaled_for_no_shuffle_target(self) -> "CostConfig":
        """A variant modelling a DSP *without* a flexible shuffle
        (Section 6's portability discussion): in-register permutation
        becomes nearly as expensive as recomputing on the scalar unit."""
        return replace(self, vec_shuffle=8.0, vec_select=12.0, vec_extra_array=6.0)


def lane_kind(
    extractor: Extractor, eclass_id: int
) -> Tuple[str, Optional[str], Optional[int]]:
    """Classify a Vec lane by its chosen representative.

    Returns one of ``("zero", None, None)``, ``("lit", None, None)``,
    ``("get", array_name, index)`` or ``("scalar", None, None)``.
    """
    node = extractor.best_node(eclass_id)
    if node is None:
        return ("scalar", None, None)
    if node.op == "Num":
        return ("zero", None, None) if node.value == 0 else ("lit", None, None)
    if node.op == "Get":
        array_node = extractor.best_node(node.children[0])
        index_node = extractor.best_node(node.children[1])
        if (
            array_node is not None
            and index_node is not None
            and array_node.op == "Symbol"
            and index_node.op == "Num"
        ):
            return ("get", str(array_node.value), int(index_node.value))
    if node.op == "Symbol":
        return ("lit", None, None)
    return ("scalar", None, None)


class DiospyrosCostModel(CostFunction):
    """The paper's abstract cost model, parameterized by
    :class:`CostConfig`."""

    _VECTOR_OPS = {
        "VecAdd",
        "VecMinus",
        "VecMul",
        "VecDiv",
        "VecMAC",
        "VecNeg",
        "VecSqrt",
        "VecSgn",
    }
    _SCALAR_OPS = {"+", "-", "*", "/", "neg", "sqrt", "sgn", "Call"}

    def __init__(self, config: Optional[CostConfig] = None) -> None:
        self.config = config or CostConfig()

    def node_cost(
        self, extractor: Extractor, node: ENode, child_costs: List[float]
    ) -> float:
        cfg = self.config
        children_total = sum(child_costs)
        op = node.op
        if op in ("Num", "Symbol"):
            return cfg.literal
        if op == "Get":
            return cfg.scalar_get + children_total
        if op in self._SCALAR_OPS:
            return cfg.scalar_op + children_total
        if op in self._VECTOR_OPS:
            return cfg.vector_op + children_total
        if op in ("List", "Concat"):
            return cfg.structure + children_total
        if op == "Vec":
            return self._vec_cost(extractor, node) + children_total
        # Unknown operators (user extensions) default to scalar cost so
        # they are never accidentally free.
        return cfg.scalar_op + children_total

    def _vec_cost(self, extractor: Extractor, node: ENode) -> float:
        """Data-movement cost of materializing a Vec's lanes into one
        vector register, judged from where each lane's value lives."""
        cfg = self.config
        arrays = []
        indices = []
        scalar_lanes = 0
        literal_lanes = 0
        get_lanes = 0
        for child in node.children:
            kind, array, index = lane_kind(extractor, child)
            if kind in ("zero", "lit"):
                literal_lanes += 1
            elif kind == "get":
                get_lanes += 1
                if array not in arrays:
                    arrays.append(array)
                indices.append(index)
            else:
                scalar_lanes += 1

        penalty = cfg.vec_scalar_lane * scalar_lanes
        if get_lanes == 0:
            # Pure literals (e.g. an all-zero accumulator seed) or pure
            # computed lanes.
            return cfg.vec_literal + penalty
        if len(arrays) == 1:
            if scalar_lanes == 0 and literal_lanes == 0 and self._is_contiguous(indices):
                return cfg.vec_contiguous
            return cfg.vec_shuffle + penalty
        extra = max(0, len(arrays) - 2) * cfg.vec_extra_array
        return cfg.vec_select + extra + penalty

    @staticmethod
    def _is_contiguous(indices: List[Optional[int]]) -> bool:
        if not indices or any(i is None for i in indices):
            return False
        return all(b == a + 1 for a, b in zip(indices, indices[1:]))


class ScalarOnlyCostModel(CostFunction):
    """Extraction model that refuses vector forms: vector operators
    and data-movement constructs cost a prohibitive amount, so the
    extracted program is the best purely scalar one (original spec
    modulo scalar simplification).  Used by the Section 5.6 ablation
    and by the backend's candidate-selection step."""

    _FORBIDDEN = {
        "Vec",
        "Concat",
        "VecAdd",
        "VecMinus",
        "VecMul",
        "VecDiv",
        "VecMAC",
        "VecNeg",
        "VecSqrt",
        "VecSgn",
    }
    _PROHIBITIVE = 1e12

    def node_cost(
        self, extractor: Extractor, node: ENode, child_costs: List[float]
    ) -> float:
        if node.op in self._FORBIDDEN:
            return self._PROHIBITIVE + sum(child_costs)
        return 1.0 + sum(child_costs)


class TermSizeCostModel(CostFunction):
    """Extract the syntactically smallest term (every node costs 1).

    Used by tests and by the scalar-only ablation, where there is no
    vector/data-movement distinction to model.
    """

    def node_cost(
        self, extractor: Extractor, node: ENode, child_costs: List[float]
    ) -> float:
        return 1.0 + sum(child_costs)
