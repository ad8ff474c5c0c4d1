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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dsl.ast import Term
from .egraph import EGraph, ENode

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


@dataclass
class ExtractionResult:
    """The extracted term for one root, with its model cost."""

    term: Term
    cost: float


class Extractor:
    """Bottom-up cost-fixpoint extractor over an e-graph snapshot."""

    def __init__(self, egraph: EGraph, cost_function: Optional[CostFunction] = None):
        self.egraph = egraph
        #: The union-find's root array, updated in place by unions.
        self._canon = egraph.uf.parent
        self.cost_function = cost_function or CostFunction()
        #: class id -> (cost, chosen node); populated by :meth:`_relax`.
        self._best: Dict[int, Tuple[float, ENode]] = {}
        self._relax()

    # ------------------------------------------------------------------

    def best_cost(self, eclass_id: int) -> Optional[float]:
        """Cost of the best term in the class, or ``None`` when the
        class contains no finishable term (can happen mid-construction
        or for classes only reachable through cycles)."""
        entry = self._best.get(self._canon[eclass_id])
        return None if entry is None else entry[0]

    def best_node(self, eclass_id: int) -> Optional[ENode]:
        """The chosen representative e-node of the class."""
        entry = self._best.get(self._canon[eclass_id])
        return None if entry is None else entry[1]

    def extract(self, eclass_id: int) -> ExtractionResult:
        """Materialize the chosen term rooted at ``eclass_id``."""
        cid = self._canon[eclass_id]
        entry = self._best.get(cid)
        if entry is None:
            raise ValueError(f"e-class {cid} has no extractable term")
        cache: Dict[int, Term] = {}
        term = self._build_term(cid, cache)
        return ExtractionResult(term=term, cost=entry[0])

    # ------------------------------------------------------------------

    def _relax(self) -> None:
        """Run choice relaxation to fixpoint, worklist-style.

        The old implementation swept every node of every class until a
        whole pass made no improvement -- O(passes x nodes) even when
        almost nothing changes per pass.  Instead we relax
        *parent-driven*: one seed pass evaluates every (class, node)
        pair (leaves acquire their costs here), and afterwards a pair
        is only re-evaluated when one of its children's best choice
        changed.  The reverse child->users index is derived from the
        nodes themselves (the canonical form of the ``parents`` links)
        with canonical child ids memoized per pair, so each improvement
        costs exactly its fan-out.

        The cost function may inspect a child's *chosen* node via
        :meth:`best_node`; any change of a child's choice goes through
        ``best`` and re-queues all users, so the hook stays sound.

        A work cap of ``_MAX_PASSES`` evaluations per node replicates
        the old non-convergence guard: a non-monotonic cost model on a
        cyclic graph keeps "improving" forever and trips it.
        """
        egraph = self.egraph
        canon = self._canon
        best = self._best
        cost_fn = self.cost_function

        # All (canonical class, node, canonical child ids) triples plus
        # the reverse index: child class -> triples that consume it.
        pairs: List[Tuple[int, ENode, Tuple[int, ...]]] = []
        users: Dict[int, List[int]] = {}
        for eclass in egraph.classes():
            cid = canon[eclass.id]
            for node in eclass.nodes:
                kids = tuple(map(canon.__getitem__, node.children))
                idx = len(pairs)
                pairs.append((cid, node, kids))
                for k in set(kids):
                    users.setdefault(k, []).append(idx)

        total = len(pairs)
        ops_cap = _MAX_PASSES * max(1, total)
        ops = 0

        worklist = deque(range(total))
        queued = [True] * total

        while worklist:
            idx = worklist.popleft()
            queued[idx] = False
            ops += 1
            if ops > ops_cap:
                raise RuntimeError(
                    "extraction did not converge; is the cost function "
                    "strictly monotonic?"
                )
            cid, node, kids = pairs[idx]
            child_entries = [best.get(k) for k in kids]
            if any(entry is None for entry in child_entries):
                # Not yet extractable; when a child gains an entry its
                # users (this pair included) are re-queued.
                continue
            child_costs = [entry[0] for entry in child_entries]  # type: ignore[index]
            cost = cost_fn.node_cost(self, node, child_costs)
            current = best.get(cid)
            if current is None or cost < current[0] - 1e-12:
                best[cid] = (cost, node)
                for uidx in users.get(cid, ()):
                    if not queued[uidx]:
                        queued[uidx] = True
                        worklist.append(uidx)

    def _build_term(self, cid: int, cache: Dict[int, Term]) -> Term:
        cid = self._canon[cid]
        hit = cache.get(cid)
        if hit is not None:
            return hit
        entry = self._best.get(cid)
        if entry is None:
            raise ValueError(f"e-class {cid} has no extractable term")
        node = entry[1]
        args = tuple(self._build_term(c, cache) for c in node.children)
        term = Term(node.op, args, node.value)
        cache[cid] = term
        return term
