"""Vectorization rewrite rules (paper Sections 3.2-3.3).

Three rule families turn a lifted scalar spec into vector code:

1. **List splitting** -- a ``List`` is equivalent to a concatenation of
   machine-width ``Vec`` chunks, padding the tail with zeros
   (Section 3.2).  Implemented as a custom rule because the chunk count
   depends on the list length.

2. **Zero-aware binary/unary lane vectorization** -- ``(Vec (+ a b)
   (+ c d) ...)``  becomes ``(VecAdd (Vec a c ...) (Vec b d ...))``.
   Lanes are allowed to be the literal zero (or another literal), which
   is what lets kernels whose shape does not fill the vector width
   still vectorize (the paper's ``(Vec (+ a b) 0 (+ c d) 0)`` example).
   A single pattern cannot express "each lane is either the operator
   or zero" without enumerating every zero position, hence a custom
   searcher (Section 3.3).

3. **Vector identities** -- fused multiply–accumulate introduction
   ``(VecAdd a (VecMul b c)) <=> (VecMAC a b c)`` (Figure 4) and
   zero-vector simplifications.

For commutative operators the searchers emit a *second* candidate with
each lane's operands sorted by a data-locality key (array name, then
index), so the e-graph also contains the variant whose operand vectors
gather from a single input array each -- the layout the cost model
prefers.  This is our deterministic stand-in for exploring "many
possible shuffles" via AC-rewriting, which the paper disables at scale
for memory reasons (Section 3.3).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dsl.ops import SCALAR_BINOPS, SCALAR_UNOPS
from ..egraph.egraph import EClass, EGraph, ENode
from ..egraph.rewrite import CustomRewrite, Match, Rewrite, SearchContext, rewrite

__all__ = [
    "list_split_rule",
    "binary_vectorize_rule",
    "unary_vectorize_rule",
    "vector_identity_rules",
    "operand_sort_key",
]

_COMMUTATIVE = {"+", "*"}

#: Identity to place in the second operand of a padded lane so that the
#: lane still computes zero: 0 op identity == 0.
_PAD_SECOND_OPERAND = {"+": 0.0, "-": 0.0, "*": 1.0, "/": 1.0}

#: The searchers read the graph through these two, bound once per
#: search: ``EGraph.class_table`` and the root array ``EGraph.uf.parent``
#: (the nodes of the class of ``x`` are ``classes[canon[x]].nodes``).
Classes = Dict[int, EClass]
Canon = Sequence[int]


def vec_candidates(egraph: EGraph, ctx: SearchContext, width: int) -> List[int]:
    """The classes a searcher over width-``width`` ``Vec`` nodes must
    search: every class holding a ``Vec`` node on a full rescan, and
    otherwise only those whose ``Vec`` nodes may read differently than
    at the rule's cursor (:meth:`EGraph.changed_reads`).  The lane
    searchers read at most ``NEAR_RADIUS`` levels below a lane, so
    every other candidate would yield the matches it yielded then."""
    candidates = egraph.classes_with_op(
        "Vec", since=ctx.since, counters=ctx.counters
    )
    if ctx.since is None:
        return candidates
    return egraph.changed_reads(
        candidates, "Vec", width, ctx.since, ctx.counters
    )


def _class_literal(
    classes: Classes, canon: Canon, eclass_id: int
) -> Optional[float]:
    """The numeric literal in the class, if any."""
    for n in classes[canon[eclass_id]].nodes:
        if n.op == "Num":
            return float(n.value)  # type: ignore[arg-type]
    return None


def operand_sort_key(
    classes: Classes, canon: Canon, eclass_id: int
) -> Tuple[int, str, float]:
    """Locality key used to canonically order commutative operands.

    ``Get`` operands sort first, grouped by array name then index, so
    that sorting each lane's operand pair tends to put reads of the
    *same* array in the *same* operand vector.
    """
    best: Optional[Tuple[int, str, float]] = None
    for node in classes[canon[eclass_id]].nodes:
        key: Optional[Tuple[int, str, float]] = None
        if node.op == "Get":
            array = _symbol_name(classes, canon, node.children[0])
            index = _class_literal(classes, canon, node.children[1])
            if array is not None and index is not None:
                key = (0, array, index)
        elif node.op == "Num":
            key = (1, "", float(node.value))  # type: ignore[arg-type]
        if key is not None and (best is None or key < best):
            best = key
    return best if best is not None else (2, "", float(canon[eclass_id]))


def _symbol_name(classes: Classes, canon: Canon, eclass_id: int) -> Optional[str]:
    for node in classes[canon[eclass_id]].nodes:
        if node.op == "Symbol":
            return str(node.value)
    return None


# ---------------------------------------------------------------------------
# 1. List splitting
# ---------------------------------------------------------------------------


def list_split_rule(width: int) -> Rewrite:
    """``(List e0 ... en)`` => nested ``Concat`` of width-sized ``Vec``
    chunks, the tail padded with literal zeros.

    A one-element chunk count yields a bare ``Vec``.  The rewrite is
    idempotent: re-running it adds nothing new, so saturation detects
    convergence.
    """

    def searcher(egraph: EGraph, ctx: SearchContext) -> List[Match]:
        matches: List[Match] = []
        classes = egraph.class_table
        candidates = egraph.classes_with_op(
            "List", since=ctx.since, counters=ctx.counters
        )
        for cid in candidates:
            for node in classes[cid].nodes:
                if node.op != "List":
                    continue
                lanes = node.children

                def build(
                    eg: EGraph, _lanes: Tuple[int, ...] = lanes
                ) -> int:
                    return _build_chunks(eg, _lanes, width)

                key = ((cid, *lanes), width)
                matches.append(Match(cid, build, "list-split", dedup_key=key))
        return matches

    return CustomRewrite(
        f"list-split-w{width}", searcher, tags=("split", "vector")
    )


def _build_chunks(egraph: EGraph, lanes: Sequence[int], width: int) -> int:
    zero = egraph.add(ENode("Num", (), 0))
    chunks: List[int] = []
    for start in range(0, len(lanes), width):
        chunk = list(lanes[start : start + width])
        while len(chunk) < width:
            chunk.append(zero)
        chunks.append(egraph.add(ENode("Vec", tuple(chunk))))
    result = chunks[-1]
    for chunk_id in reversed(chunks[:-1]):
        result = egraph.add(ENode("Concat", (chunk_id, result)))
    return result


# ---------------------------------------------------------------------------
# 2. Lane-wise vectorization (custom searchers)
# ---------------------------------------------------------------------------

#: Per-lane classification for the binary rule: the operator's two
#: operand classes, or a padding constant pair.
_LaneBin = Tuple[int, int]


def _match_binary_lane(
    classes: Classes, canon: Canon, lane: int, op: str
) -> Optional[List[_LaneBin]]:
    """All ways this lane can feed a lane of ``VecOp``.

    Returns a list of (a, b) operand-class candidate pairs (commutative
    operators contribute the swapped pair as well), or pads when the
    lane is a literal; ``None`` when the lane cannot participate.
    """
    candidates: List[_LaneBin] = []
    literal = False
    for node in classes[canon[lane]].nodes:
        if node.op == op:
            a, b = node.children
            candidates.append((a, b))
            if op in _COMMUTATIVE and a != b:
                candidates.append((b, a))
        elif node.op == "Num":
            literal = True
    if candidates:
        return candidates
    if literal:
        # A literal lane x can pass through as (x op identity).
        return [(-1, -1)]  # sentinel: resolved at build time
    return None


def binary_vectorize_rule(width: int) -> Rewrite:
    """Vectorize ``Vec`` nodes whose lanes apply one binary scalar
    operator (allowing literal/zero lanes)."""

    def searcher(egraph: EGraph, ctx: SearchContext) -> List[Match]:
        matches: List[Match] = []
        classes = egraph.class_table
        canon = egraph.uf.parent
        for root in vec_candidates(egraph, ctx, width):
            for node in classes[root].nodes:
                if node.op != "Vec" or len(node.children) != width:
                    continue
                for op, vec_op in SCALAR_BINOPS.items():
                    matches.extend(
                        _binary_matches_for(
                            classes, canon, root, node, op, vec_op
                        )
                    )
        return matches

    return CustomRewrite(
        f"vec-binop-w{width}", searcher, tags=("vectorize", "vector")
    )


def _binary_matches_for(
    classes: Classes, canon: Canon, root: int, node: ENode, op: str,
    vec_op: str,
) -> List[Match]:
    lanes = node.children
    per_lane: List[List[_LaneBin]] = []
    op_lanes = 0
    for lane in lanes:
        found = _match_binary_lane(classes, canon, lane, op)
        if found is None:
            return []
        if found[0] != (-1, -1):
            op_lanes += 1
        per_lane.append(found)
    if op_lanes == 0:
        return []

    def assemble(choice: List[_LaneBin]) -> Callable[[EGraph], int]:
        def build(eg: EGraph) -> int:
            first: List[int] = []
            second: List[int] = []
            for lane, (a, b) in zip(lanes, choice):
                if (a, b) == (-1, -1):
                    # Literal pass-through lane: x op identity == x.
                    first.append(lane)
                    pad = _PAD_SECOND_OPERAND[op]
                    second.append(eg.add(ENode("Num", (), pad)))
                else:
                    first.append(a)
                    second.append(b)
            va = eg.add(ENode("Vec", tuple(first)))
            vb = eg.add(ENode("Vec", tuple(second)))
            return eg.add(ENode(vec_op, (va, vb)))

        return build

    def dedup_key(choice: List[_LaneBin]) -> Tuple:
        # Lanes matter beyond the choice: literal pass-through lanes
        # ((-1, -1) sentinels) reuse the lane class itself at build
        # time.  The mask holds one bit a lane, set for a sentinel,
        # after a leading 1; ``vec_op`` follows from the rule name.
        ids = [root, *lanes]
        mask = 1
        for a, b in choice:
            mask <<= 1
            if (a, b) == (-1, -1):
                mask |= 1
            else:
                ids.append(a)
                ids.append(b)
        return tuple(ids), mask

    # Candidate 1: first discovered operand order per lane.
    identity_choice = [options[0] for options in per_lane]
    matches = [
        Match(
            root,
            assemble(identity_choice),
            f"vec-{op}",
            dedup_key=dedup_key(identity_choice),
        )
    ]

    # Candidate 2 (commutative ops): per-lane operands sorted by the
    # locality key, aligning same-array reads into the same operand.
    if op in _COMMUTATIVE:
        sorted_choice: List[_LaneBin] = []
        for options in per_lane:
            best = options[0]
            if best != (-1, -1):
                a, b = best
                if operand_sort_key(classes, canon, b) < operand_sort_key(
                    classes, canon, a
                ):
                    best = (b, a)
            sorted_choice.append(best)
        if sorted_choice != identity_choice:
            matches.append(
                Match(
                    root,
                    assemble(sorted_choice),
                    f"vec-{op}-sorted",
                    dedup_key=dedup_key(sorted_choice),
                )
            )
    return matches


def unary_vectorize_rule(width: int) -> Rewrite:
    """Vectorize ``Vec`` nodes whose lanes apply one unary scalar
    operator (allowing zero lanes, which all of neg/sqrt/sgn fix)."""

    def searcher(egraph: EGraph, ctx: SearchContext) -> List[Match]:
        matches: List[Match] = []
        classes = egraph.class_table
        canon = egraph.uf.parent
        for root in vec_candidates(egraph, ctx, width):
            for node in classes[root].nodes:
                if node.op != "Vec" or len(node.children) != width:
                    continue
                for op, vec_op in SCALAR_UNOPS.items():
                    match = _unary_match_for(
                        classes, canon, root, node, op, vec_op
                    )
                    if match is not None:
                        matches.append(match)
        return matches

    return CustomRewrite(
        f"vec-unop-w{width}", searcher, tags=("vectorize", "vector")
    )


def _unary_match_for(
    classes: Classes, canon: Canon, root: int, node: ENode, op: str,
    vec_op: str,
) -> Optional[Match]:
    lanes = node.children
    args: List[Optional[int]] = []
    op_lanes = 0
    for lane in lanes:
        found = None
        zero = False
        for candidate in classes[canon[lane]].nodes:
            if candidate.op == op:
                found = candidate.children[0]
                break
            if candidate.op == "Num" and candidate.value == 0:
                zero = True
        if found is not None:
            op_lanes += 1
            args.append(found)
        elif zero:
            args.append(None)  # resolved to literal 0 at build time
        else:
            return None
    if op_lanes == 0:
        return None

    def build(eg: EGraph) -> int:
        zero = eg.add(ENode("Num", (), 0))
        lane_ids = tuple(zero if a is None else a for a in args)
        inner = eg.add(ENode("Vec", lane_ids))
        return eg.add(ENode(vec_op, (inner,)))

    # The mask holds one bit a lane, set for a zero pad, after a
    # leading 1; ``vec_op`` follows from the rule name.
    ids = [root]
    mask = 1
    for a in args:
        mask <<= 1
        if a is None:
            mask |= 1
        else:
            ids.append(a)
    return Match(root, build, f"vec-{op}", dedup_key=(tuple(ids), mask))


# ---------------------------------------------------------------------------
# 3. Vector identities
# ---------------------------------------------------------------------------


def _zero_vec_pattern(width: int) -> str:
    return "(Vec " + " ".join(["0"] * width) + ")"


def vector_identity_rules(width: int) -> List[Rewrite]:
    """Syntactic rules over vector operators: MAC fusion (Figure 4) and
    zero-vector simplification."""
    zvec = _zero_vec_pattern(width)
    rules = [
        rewrite("mac-fuse", "(VecAdd ?a (VecMul ?b ?c))", "(VecMAC ?a ?b ?c)"),
        rewrite("mac-fuse-l", "(VecAdd (VecMul ?b ?c) ?a)", "(VecMAC ?a ?b ?c)"),
        rewrite("mac-unfuse", "(VecMAC ?a ?b ?c)", "(VecAdd ?a (VecMul ?b ?c))"),
        rewrite("mac-zero-acc", f"(VecMAC {zvec} ?b ?c)", "(VecMul ?b ?c)"),
        rewrite("mac-zero-mul-r", f"(VecMAC ?a ?b {zvec})", "?a"),
        rewrite("mac-zero-mul-l", f"(VecMAC ?a {zvec} ?c)", "?a"),
        rewrite("vecadd-zero-r", f"(VecAdd ?a {zvec})", "?a"),
        rewrite("vecadd-zero-l", f"(VecAdd {zvec} ?a)", "?a"),
        rewrite("vecminus-zero", f"(VecMinus ?a {zvec})", "?a"),
        rewrite("vecmul-zero-r", f"(VecMul ?a {zvec})", zvec),
        rewrite("vecmul-zero-l", f"(VecMul {zvec} ?a)", zvec),
    ]
    for rule in rules:
        rule.tags = frozenset({"vector-identity", "vector"})
    return rules
