"""Extraction: selecting the best program from a (partially) saturated
e-graph.

Diospyros extracts with a strictly monotonic cost model -- an
expression's cost exceeds the sum of its subexpressions' costs -- which
makes a bottom-up fixpoint sound and keeps extraction linear-ish in the
number of e-nodes rather than the number of represented programs
(paper Section 3.4).

The algorithm is the standard one: for every e-class keep the cheapest
(cost, e-node) choice found so far; relax all classes until no choice
improves.  Cost functions may inspect the *chosen* representative of a
child class (via :meth:`Extractor.best_node`), which is how the
Diospyros data-movement model can tell a Vec gathering from one input
array apart from a cross-array gather; because a child's choice can
change between passes, we simply re-relax to fixpoint.

The chosen program comes back as a flat node list (egg's ``RecExpr``);
a :class:`Term` is built from it only when a caller reads one.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import DefaultDict, Dict, List, Optional, Sequence, Tuple

from ..dsl.ast import Term
from .egraph import EGraph, ENode, build_term

__all__ = ["CostFunction", "Extractor", "ExtractionResult"]

_MAX_PASSES = 1000


class CostFunction:
    """Interface for extraction cost models.

    Implementations must be strictly monotonic: ``node_cost`` must
    return ``sum(child_costs)`` *plus a strictly positive amount*.
    The default charges 1 per node, i.e. extracts the smallest term.
    """

    def node_cost(
        self, extractor: "Extractor", node: ENode, child_costs: List[float]
    ) -> float:
        return 1.0 + sum(child_costs)

    def op_costs(self) -> Dict[str, Tuple[float, float]]:
        """Ops the extractor prices without calling :meth:`node_cost`:
        ``op -> (constant, penalty)``.  A node with such an op costs
        ``constant + sum(child_costs)``, plus ``penalty`` when it is
        nonzero, and that must be what ``node_cost`` returns for it, bit
        for bit.  Ops left out go through ``node_cost``; the default
        leaves out every op, so a subclass that only overrides
        ``node_cost`` stays exact."""
        return {}


class ExtractionResult:
    """The program extracted for one root, with its model cost.

    ``nodes`` is the chosen e-node of each e-class the program reaches,
    once each, in post-order: children are list indices and the root
    is last.  :attr:`term` is built from it on first read.  A result
    made from a term (the compiler's fallback rungs) has no ``nodes``.
    """

    __slots__ = ("nodes", "cost", "_term")

    def __init__(
        self,
        nodes: Optional[List[ENode]] = None,
        cost: float = 0.0,
        term: Optional[Term] = None,
    ) -> None:
        self.nodes = nodes
        self.cost = cost
        self._term = term

    @property
    def term(self) -> Term:
        """The program as a :class:`Term`; a node that several parents
        share is one shared subterm."""
        if self._term is None:
            self._term = build_term(self.nodes)
        return self._term


class Extractor:
    """Bottom-up cost-fixpoint extractor over an e-graph snapshot."""

    def __init__(self, egraph: EGraph, cost_function: Optional[CostFunction] = None):
        self.egraph = egraph
        #: The union-find's root array, updated in place by unions.
        self._canon = egraph.uf.parent
        self.cost_function = cost_function or CostFunction()
        size = len(self._canon)
        #: Class id -> cost of its best term (``None`` while it has
        #: none) and the node chosen for it; filled by :meth:`_relax`.
        self._cost: List[Optional[float]] = [None] * size
        self._choice: List[Optional[ENode]] = [None] * size
        self._relax()

    # ------------------------------------------------------------------

    def best_cost(self, eclass_id: int) -> Optional[float]:
        """Cost of the best term in the class, or ``None`` when the
        class contains no finishable term (can happen mid-construction
        or for classes only reachable through cycles)."""
        cid = self._canon[eclass_id]
        return self._cost[cid] if cid < len(self._cost) else None

    def best_node(self, eclass_id: int) -> Optional[ENode]:
        """The chosen representative e-node of the class."""
        cid = self._canon[eclass_id]
        return self._choice[cid] if cid < len(self._choice) else None

    def extract(self, eclass_id: int) -> ExtractionResult:
        """The chosen program rooted at ``eclass_id``: each reachable
        class's chosen node once, in the post-order (children left to
        right) in which :meth:`EGraph.add_term` would create classes, so
        seeding a fresh graph from the list rebuilds exactly the graph
        the program's term would.  Each stack frame keeps a cursor into
        its node's children and the positions found so far, and leaf
        children take no frame."""
        canon = self._canon
        choice = self._choice
        root = canon[eclass_id]
        cost = self.best_cost(root)
        if cost is None:
            raise ValueError(f"e-class {root} has no extractable term")
        index: Dict[int, int] = {}
        nodes: List[ENode] = []
        stack = [root]
        cursors = [0]
        positions: List[List[int]] = [[]]
        while True:
            node = choice[stack[-1]]
            children = node.children
            found = positions[-1]
            i = cursors[-1]
            while i < len(children):
                k = canon[children[i]]
                p = index.get(k)
                if p is None:
                    child = choice[k]
                    if child.children:
                        break
                    p = index[k] = len(nodes)
                    nodes.append(child)
                found.append(p)
                i += 1
            if i < len(children):
                if len(stack) > len(choice):
                    raise ValueError(f"e-class {root}'s chosen term is cyclic")
                cursors[-1] = i + 1
                stack.append(k)
                cursors.append(0)
                positions.append([])
                continue
            cid = stack.pop()
            cursors.pop()
            positions.pop()
            p = index[cid] = len(nodes)
            nodes.append(ENode(node.op, tuple(found), node.value) if children else node)
            if not stack:
                return ExtractionResult(nodes, cost)
            positions[-1].append(p)

    # ------------------------------------------------------------------

    def _relax(self) -> None:
        """Run choice relaxation to fixpoint, worklist-style.

        One seed pass evaluates every (class, node) pair in class-table
        order (leaves acquire their costs here); afterwards a pair is
        re-evaluated, first in first out, only when one of its
        children's best choice changed, and a new cost replaces the old
        only when it is lower by more than 1e-12.  Ties go to the pair
        evaluated first, so this order decides programs.  The pairs
        live in flat arrays with their canonical child ids, and the
        reverse child->users index comes from the nodes themselves, so
        each improvement costs exactly its fan-out.

        A pair whose op is in the cost function's
        :meth:`~CostFunction.op_costs` table is priced inline; only the
        others call ``node_cost``.  That hook may inspect a child's
        *chosen* node via :meth:`best_node`; any change of a child's
        choice re-queues all its users, so the hook stays sound.

        A work cap of ``_MAX_PASSES`` evaluations per node guards
        against non-convergence: a non-monotonic cost model on a cyclic
        graph keeps "improving" forever and trips it.
        """
        canon = self._canon
        cost_of = self._cost
        choice = self._choice
        node_cost = self.cost_function.node_cost
        table = self.cost_function.op_costs()

        # Per (class, node) pair: its class, node, canonical child ids
        # and table price (None: priced by ``node_cost``); and the
        # reverse index, child class -> pairs that consume it.  A pair
        # listed twice for one child (``Vec 0 0``) is queued once all
        # the same, so the lists are not deduplicated.
        pair_class: List[int] = []
        pair_node: List[ENode] = []
        pair_kids: List[Sequence[int]] = []
        pair_price: List[Optional[Tuple[float, float]]] = []
        users: DefaultDict[int, List[int]] = defaultdict(list)
        for cid, eclass in self.egraph.class_table.items():
            for node in eclass.nodes:
                idx = len(pair_node)
                pair_class.append(cid)
                pair_node.append(node)
                pair_price.append(table.get(node.op))
                if node.children:
                    kids = [canon[c] for c in node.children]
                    for k in kids:
                        users[k].append(idx)
                    pair_kids.append(kids)
                else:
                    pair_kids.append(())

        total = len(pair_node)
        ops_cap = _MAX_PASSES * max(1, total)
        ops = 0

        worklist = deque(range(total))
        popleft = worklist.popleft
        push = worklist.append
        queued = [True] * total

        while worklist:
            idx = popleft()
            queued[idx] = False
            ops += 1
            if ops > ops_cap:
                raise RuntimeError(
                    "extraction did not converge; is the cost function "
                    "strictly monotonic?"
                )
            child_costs = [cost_of[k] for k in pair_kids[idx]]
            if None in child_costs:
                # Not yet extractable; when a child gains a cost its
                # users (this pair included) are re-queued.
                continue
            price = pair_price[idx]
            if price is None:
                cost = node_cost(self, pair_node[idx], child_costs)
            else:
                cost = price[0] + sum(child_costs)
                if price[1]:
                    cost += price[1]
            cid = pair_class[idx]
            current = cost_of[cid]
            if current is None or cost < current - 1e-12:
                cost_of[cid] = cost
                choice[cid] = pair_node[idx]
                for uidx in users.get(cid, ()):
                    if not queued[uidx]:
                        queued[uidx] = True
                        push(uidx)
