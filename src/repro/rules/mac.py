"""Custom multiply–accumulate searcher (paper Section 3.3).

Without general commutativity of ``+``, a single pattern cannot fuse a
vector of sums into a ``VecMAC`` when the lanes disagree about operand
order or length (the paper's motivating 4-lane example).  This searcher
matches each lane independently against the pattern options

    (+ a (* b c))    (+ (* b c) a)    (- a (* b c))    (- (* b c) a)
    (* b c)          0

and combines the results into

    (VecMAC (Vec a0 a1 a2 a3) (Vec b0 b1 b2 b3) (Vec c0 c1 c2 c3))

mapping missing accumulators / zero lanes to the literal 0.  The
subtraction forms negate one operand (``a - b*c == a + (-b)*c``), which
lets sign-mixed reductions like quaternion products fuse; when a whole
operand vector ends up negated, the unary vectorization rule
subsequently hoists it into a single ``VecNeg``.

As the paper notes, these per-lane equivalences are *recomputed* on
every iteration instead of being persisted as AC facts in the e-graph
-- trading compute for the memory that full AC-saturation would
consume.

Like the binary vectorizer, a second candidate with the multiplication
operands of each lane sorted by the data-locality key is emitted so the
cost model can choose the single-array gather layout.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Tuple

from ..egraph.egraph import EGraph, ENode
from ..egraph.rewrite import CustomRewrite, Match, Rewrite, SearchContext
from .vector import Canon, Classes, operand_sort_key, vec_candidates

__all__ = ["mac_rule"]


class _LaneMac(NamedTuple):
    """One lane's decomposition into ``acc + (±b) * c``.

    ``acc`` is ``None`` for bare products; a fully-zero lane has all
    three class ids ``None``.  ``negate_acc`` / ``negate_b`` record the
    subtraction forms.
    """

    acc: Optional[int]
    b: Optional[int]
    c: Optional[int]
    negate_acc: bool = False
    negate_b: bool = False


def _find_mul(
    classes: Classes, canon: Canon, eclass_id: int
) -> Optional[Tuple[int, int]]:
    """First ``(* b c)`` node in the class, if any."""
    for node in classes[canon[eclass_id]].nodes:
        if node.op == "*":
            return node.children[0], node.children[1]
    return None


def _match_mac_lane(
    classes: Classes, canon: Canon, lane: int
) -> Optional[_LaneMac]:
    """Match one lane against the MAC pattern options, in priority
    order: additive forms, subtractive forms, bare product, zero.  One
    pass over the lane's nodes notes the first product and any zero
    while it looks for the additive and subtractive forms."""
    mul_node: Optional[ENode] = None
    zero = False
    for node in classes[canon[lane]].nodes:
        if node.op == "*":
            if mul_node is None:
                mul_node = node
        elif node.op == "Num":
            zero = zero or node.value == 0
        elif node.op == "+":
            left, right = node.children
            mul = _find_mul(classes, canon, right)
            if mul is not None:
                return _LaneMac(left, mul[0], mul[1])
            mul = _find_mul(classes, canon, left)
            if mul is not None:
                return _LaneMac(right, mul[0], mul[1])
        elif node.op == "-":
            left, right = node.children
            mul = _find_mul(classes, canon, right)
            if mul is not None:
                # a - b*c == a + (-b)*c
                return _LaneMac(left, mul[0], mul[1], negate_b=True)
            mul = _find_mul(classes, canon, left)
            if mul is not None:
                # b*c - a == (-a) + b*c
                return _LaneMac(right, mul[0], mul[1], negate_acc=True)
    if mul_node is not None:
        return _LaneMac(None, mul_node.children[0], mul_node.children[1])
    if zero:
        return _LaneMac(None, None, None)
    return None


def mac_rule(width: int) -> Rewrite:
    """Fuse a width-lane ``Vec`` of sums-of-products into ``VecMAC``."""

    def searcher(egraph: EGraph, ctx: SearchContext) -> List[Match]:
        matches: List[Match] = []
        classes = egraph.class_table
        canon = egraph.uf.parent
        for root in vec_candidates(egraph, ctx, width):
            for node in classes[root].nodes:
                if node.op != "Vec" or len(node.children) != width:
                    continue
                matches.extend(_mac_matches_for(classes, canon, root, node))
        return matches

    return CustomRewrite(f"vec-mac-w{width}", searcher, tags=("mac", "vector"))


def _mac_matches_for(
    classes: Classes, canon: Canon, root: int, node: ENode
) -> List[Match]:
    lanes = node.children
    per_lane: List[_LaneMac] = []
    mul_lanes = 0
    for lane in lanes:
        found = _match_mac_lane(classes, canon, lane)
        if found is None:
            return []
        if found.b is not None:
            mul_lanes += 1
        per_lane.append(found)
    if mul_lanes == 0:
        return []

    def assemble(choice: List[_LaneMac]) -> Callable[[EGraph], int]:
        def build(eg: EGraph) -> int:
            zero = eg.add(ENode("Num", (), 0))

            def maybe_neg(cid: Optional[int], negate: bool) -> int:
                if cid is None:
                    return zero
                if negate:
                    return eg.add(ENode("neg", (cid,)))
                return cid

            accs = tuple(maybe_neg(l.acc, l.negate_acc) for l in choice)
            bs = tuple(maybe_neg(l.b, l.negate_b) for l in choice)
            cs = tuple(zero if l.c is None else l.c for l in choice)
            vec_acc = eg.add(ENode("Vec", accs))
            vec_b = eg.add(ENode("Vec", bs))
            vec_c = eg.add(ENode("Vec", cs))
            return eg.add(ENode("VecMAC", (vec_acc, vec_b, vec_c)))

        return build

    def dedup_key(choice: List[_LaneMac]) -> Tuple:
        # ``flags`` packs five bits a lane after a leading 1: which of
        # acc, b and c are zero pads (and so absent from ``ids``), and
        # the two negations.
        ids = [root]
        flags = 1
        for acc, b, c, negate_acc, negate_b in choice:
            flags = flags << 5 | negate_acc << 3 | negate_b << 4
            if acc is None:
                flags |= 1
            else:
                ids.append(acc)
            if b is None:
                flags |= 2
            else:
                ids.append(b)
            if c is None:
                flags |= 4
            else:
                ids.append(c)
        return tuple(ids), flags

    matches = [
        Match(root, assemble(per_lane), "vec-mac", dedup_key=dedup_key(per_lane))
    ]

    # Locality-sorted multiplication operands (x * y commutes; the
    # negation flag stays with the first operand either way, since
    # (-b)*c == b*(-c)).
    sorted_lanes: List[_LaneMac] = []
    for lane_match in per_lane:
        b, c = lane_match.b, lane_match.c
        if b is not None and c is not None:
            if operand_sort_key(classes, canon, c) < operand_sort_key(
                classes, canon, b
            ):
                lane_match = _LaneMac(
                    lane_match.acc, c, b,
                    lane_match.negate_acc, lane_match.negate_b,
                )
        sorted_lanes.append(lane_match)
    if sorted_lanes != per_lane:
        matches.append(
            Match(
                root,
                assemble(sorted_lanes),
                "vec-mac-sorted",
                dedup_key=dedup_key(sorted_lanes),
            )
        )
    return matches
