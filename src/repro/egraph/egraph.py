"""E-graph: the core data structure for equality saturation.

An e-graph compactly represents a large set of terms together with a
congruence relation over them (paper Section 3.3, following egg
[Willsey et al. 2021]).  The three invariants:

* **Hashcons** -- every canonical e-node maps to exactly one e-class
  (``memo``), so structurally identical terms are stored once.
* **Congruence** -- if two e-nodes have the same operator and pairwise
  equivalent children, their classes are merged.
* **Deferred rebuilding** -- ``union`` merely records the merge;
  :meth:`EGraph.rebuild` restores the invariants in a batch, which is
  the key efficiency idea Diospyros inherits from egg.

E-nodes store canonical child ids.  The rewrite machinery
(:mod:`repro.egraph.rewrite`) never touches these internals: it only
uses :meth:`add_term`, :meth:`union`, :meth:`classes`, and
:meth:`nodes_of`.  Searchers read through :attr:`class_table` and the
union-find's root array (``egraph.uf.parent``), which copy nothing:
the nodes of the class of ``x`` are ``classes[canon[x]].nodes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..dsl.ast import Term
from .unionfind import UnionFind

__all__ = ["ENode", "EClass", "EGraph", "flatten_term", "build_term"]


Payload = Union[int, float, str, None]

#: How many levels below a class its "near" change stamp reaches (see
#: :meth:`EGraph.changed_reads`): the deepest read of a searcher that
#: filters through it.  The ``vec-mac`` searcher reads three levels
#: below a lane: the lane's ``+``/``-`` children, their product's
#: operands, and those operands' ``Get`` children.
NEAR_RADIUS = 3


class ENode(NamedTuple):
    """One operator application with e-class children.

    ``value`` carries the payload of leaf operators (``Num``,
    ``Symbol``) and the function name of ``Call`` nodes; it is ``None``
    for everything else.

    A tuple: immutable, without a ``__dict__``, and hashed, compared and
    read in C.  Equality is field-wise, so ``Num 0`` and ``Num 0.0``
    are one node, as they are to the hashcons.
    """

    op: str
    children: Tuple[int, ...] = ()
    value: Payload = None

    def canonicalize(self, uf: UnionFind) -> "ENode":
        """Rewrite child ids to their canonical representatives."""
        children = self.children
        new_children = tuple(map(uf.parent.__getitem__, children))
        if new_children == children:
            return self
        return ENode(self.op, new_children, self.value)


def flatten_term(term: Term) -> List[ENode]:
    """The term as a node list (egg's ``RecExpr``): each distinct
    subterm once, in post-order with arguments left to right, children
    as list indices and the root last.  This is the order in which
    :meth:`EGraph.add_term` creates classes.

    Two terms are equal exactly when their ops, values and argument
    positions are, so subterms are deduplicated by that key, hashed in
    C, without comparing trees; inner subterm objects are memoized by
    identity too.  A stack frame keeps a cursor into its arguments and
    the positions found so far; leaf arguments take no frame."""
    index: Dict[Tuple, int] = {}
    seen: Dict[int, int] = {}
    nodes: List[ENode] = []
    make = ENode._make
    stack = [term]
    cursors = [0]
    positions: List[List[int]] = [[]]
    while True:
        t = stack[-1]
        args = t.args
        found = positions[-1]
        i = cursors[-1]
        while i < len(args):
            a = args[i]
            if a.args:
                p = seen.get(id(a))
                if p is None:
                    break
            else:
                key = (a.op, (), a.value)
                p = index.get(key)
                if p is None:
                    p = index[key] = len(nodes)
                    nodes.append(make(key))
            found.append(p)
            i += 1
        if i < len(args):
            cursors[-1] = i + 1
            stack.append(args[i])
            cursors.append(0)
            positions.append([])
            continue
        stack.pop()
        cursors.pop()
        positions.pop()
        key = (t.op, tuple(found), t.value)
        p = index.get(key)
        if p is None:
            p = index[key] = len(nodes)
            nodes.append(make(key))
        if not stack:
            return nodes
        seen[id(t)] = p
        positions[-1].append(p)


def build_term(nodes: Sequence[ENode]) -> Term:
    """The :class:`Term` of a post-order node list, built in one loop;
    a node that several parents share becomes one shared subterm."""
    terms: List[Term] = []
    for node in nodes:
        terms.append(Term(node.op, [terms[i] for i in node.children], node.value))
    return terms[-1]


@dataclass
class EClass:
    """An equivalence class of e-nodes.

    ``parents`` records which e-nodes refer to this class, so that a
    merge can repair exactly the hashcons entries it invalidates.

    ``modified_at`` is the e-graph tick at which this class -- or any
    class in its subtree -- last changed; incremental e-matching skips
    classes whose stamp is at or below a rule's high-water mark.
    """

    id: int
    nodes: List[ENode] = field(default_factory=list)
    parents: List[Tuple[ENode, int]] = field(default_factory=list)
    modified_at: int = 0


class EGraph:
    """A mutable e-graph with explicit rebuilding.

    Typical usage::

        eg = EGraph()
        root = eg.add_term(parse("(+ (Get a 0) 0)"))
        other = eg.add_term(parse("(Get a 0)"))
        eg.union(root, other)
        eg.rebuild()
        assert eg.find(root) == eg.find(other)
    """

    def __init__(self) -> None:
        self._uf = UnionFind()
        self._memo: Dict[ENode, int] = {}
        self._classes: Dict[int, EClass] = {}
        self._pending: List[int] = []
        #: op name -> ids of classes that (at some point) contained a
        #: node with that op.  May contain stale ids after unions;
        #: consumers canonicalize and re-check, so staleness only costs
        #: a wasted lookup, never a missed match.
        self._op_index: Dict[str, Set[int]] = {}
        #: op name -> ``tick`` at which ``classes_with_op`` last cleaned
        #: that op's index entry (see there).
        self._op_clean: Dict[str, int] = {}
        #: Total number of e-nodes ever added; the saturation runner's
        #: node limit checks this, mirroring egg's ``node_limit``.
        self.version = 0
        #: Monotone modification clock: bumped on every ``add`` that
        #: creates a class, every ``union``, and every ``_repair``.
        #: E-classes are stamped with the tick at which their subtree
        #: last changed, which is what dirty-set e-matching filters on.
        self.tick = 0
        #: Live e-node count (nodes currently stored across classes);
        #: maintained incrementally so ``num_nodes`` is O(1) instead of
        #: summing every class.
        self._n_nodes = 0
        #: Canonical class ids whose stamp still has to be propagated
        #: to their ancestors (done lazily, amortized over unions).
        self._dirty_pending: Set[int] = set()
        #: Id -> tick at which the class was created.
        self._born: List[int] = []
        #: Canonical id -> op -> tick at which a union last brought
        #: nodes with that op into the class; created by the first such
        #: union.
        self._arrived: Dict[int, Dict[str, int]] = {}
        #: Id -> "near" change stamp: for a canonical id, at least the
        #: tick of the newest change (creation, union root, repair) to
        #: any class at most ``NEAR_RADIUS`` levels below it, itself
        #: included.  Propagated with the dirty stamps.
        self._near: List[int] = []

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def find(self, eclass_id: int) -> int:
        """Canonical id of the class containing ``eclass_id``."""
        return self._uf.parent[eclass_id]

    @property
    def uf(self) -> UnionFind:
        """The union-find itself.  Its root array ``uf.parent`` maps
        every id to its canonical id and is updated in place, so hot
        loops bind it once and index it instead of calling :meth:`find`
        per id.  :meth:`restore_from` swaps the union-find object, so
        bind the array per search, not per graph."""
        return self._uf

    @property
    def class_table(self) -> Dict[int, EClass]:
        """Canonical class id -> :class:`EClass`: the table itself, not
        a copy.  Read-only, for searchers, which never mutate the graph;
        like :attr:`uf`, :meth:`restore_from` swaps it, so bind it per
        search."""
        return self._classes

    @property
    def num_classes(self) -> int:
        return len(self._classes)

    @property
    def num_nodes(self) -> int:
        """Live e-node count, maintained incrementally (the runner
        reads this twice per iteration; summing every class made it
        O(classes))."""
        return self._n_nodes

    def recount_nodes(self) -> int:
        """O(classes) recount of stored e-nodes, for invariant checks
        against the live ``num_nodes`` counter."""
        return sum(len(c.nodes) for c in self._classes.values())

    def classes(self) -> Iterator[EClass]:
        """Iterate over canonical e-classes.

        The snapshot is taken eagerly so callers may add nodes while
        iterating (rewrite application does); freshly created classes
        simply do not appear until the next pass, exactly as in egg.
        """
        return iter(list(self._classes.values()))

    def class_ids(self) -> List[int]:
        return list(self._classes.keys())

    def shape_signatures(self, limit: Optional[int] = None) -> List[str]:
        """Compact *shape signatures* of the current e-classes.

        Each e-class is summarized as the sorted, deduplicated set of
        its nodes' ``op/arity`` forms joined with ``|`` (e.g.
        ``"*/2|Get/2|VecMAC/3"``) -- a structural abstraction of which
        operator mixes coexist in one equivalence class.  The sorted,
        deduplicated list over all classes is a cheap, deterministic
        signal of how much structural variety saturation produced; the
        conformance subsystem's coverage map consumes it through the
        flight recorder (see :mod:`repro.conformance.coverage`).

        ``limit`` caps the number of distinct signatures collected
        (coverage wants a bounded feature universe, not a dump of a
        400k-node graph).
        """
        signatures: set = set()
        for eclass in self._classes.values():
            shape = "|".join(
                sorted({f"{n.op}/{len(n.children)}" for n in eclass.nodes})
            )
            signatures.add(shape)
            if limit is not None and len(signatures) >= limit:
                break
        return sorted(signatures)

    def nodes_of(self, eclass_id: int) -> List[ENode]:
        """The e-nodes currently stored in the class of ``eclass_id``."""
        return list(self._classes[self.find(eclass_id)].nodes)

    def classes_with_op(self, op: str, since=None, counters=None) -> List[int]:
        """Canonical ids of classes containing at least one node with
        the given operator.  Backed by a lazily-cleaned index so that
        e-matching can skip irrelevant classes (the dominant cost on
        large kernels).

        Cleaning drops ids whose class no longer holds the op and
        canonicalizes the rest.  Every mutation advances :attr:`tick`,
        so while the tick is unchanged since an op's last clean, the
        entry is known clean and the per-class re-check is skipped.
        The set is still rebuilt by re-inserting its elements in
        iteration order, exactly as a clean would: a set's iteration
        order depends on its insertion history, and candidate order
        decides match order.

        ``since`` (an e-graph tick, see :attr:`tick`) additionally
        filters to classes whose subtree changed after that tick --
        the dirty-set pruning incremental e-matching relies on.
        ``counters`` (any object with ``visited``/``skipped`` ints,
        e.g. :class:`repro.egraph.pattern.MatchCounters`) is credited
        with how many candidate classes were kept vs pruned.
        """
        stale = self._op_index.get(op)
        if not stale:
            return []
        if self._op_clean.get(op) == self.tick:
            fresh = {cid for cid in stale}
        else:
            canon = self._uf.parent
            classes = self._classes
            fresh = set()
            for cid in stale:
                root = canon[cid]
                eclass = classes.get(root)
                if eclass is None:
                    continue
                for node in eclass.nodes:
                    if node.op == op:
                        fresh.add(root)
                        break
            self._op_clean[op] = self.tick
        self._op_index[op] = fresh
        if since is None:
            if counters is not None:
                counters.visited += len(fresh)
            return list(fresh)
        self._propagate_dirty()
        dirty = [
            cid for cid in fresh if self._classes[cid].modified_at > since
        ]
        if counters is not None:
            counters.visited += len(dirty)
            counters.skipped += len(fresh) - len(dirty)
        return dirty

    def dirty_class_ids(self, since=None, counters=None) -> List[int]:
        """Canonical class ids whose subtree changed after tick
        ``since`` (all classes when ``since`` is ``None``)."""
        if since is None:
            ids = list(self._classes.keys())
            if counters is not None:
                counters.visited += len(ids)
            return ids
        self._propagate_dirty()
        dirty = [
            cid
            for cid, eclass in self._classes.items()
            if eclass.modified_at > since
        ]
        if counters is not None:
            counters.visited += len(dirty)
            counters.skipped += len(self._classes) - len(dirty)
        return dirty

    def changed_reads(
        self, candidates: Sequence[int], op: str, arity: int, since: int,
        counters=None,
    ) -> List[int]:
        """The ``candidates`` (canonical ids), in their order, whose
        ``op`` nodes with ``arity`` children may read differently than
        at tick ``since``: an ``op`` node arrived in the class after
        ``since`` (the class was created, or a union brought one in), or
        one such node has a child with a class at most
        :data:`NEAR_RADIUS` levels below it changed after ``since``.

        A searcher that reads only a candidate's ``op`` nodes of that
        arity and classes within ``NEAR_RADIUS`` levels below their
        children finds, on every other candidate, the matches it found
        at ``since``.  ``counters`` move each dropped candidate from
        ``visited`` to ``skipped``.
        """
        self._propagate_dirty()
        born = self._born
        arrived = self._arrived
        near = self._near.__getitem__
        canon = self._uf.parent.__getitem__
        classes = self._classes
        kept: List[int] = []
        for cid in candidates:
            ops = arrived.get(cid)
            if born[cid] > since or (ops is not None and ops.get(op, 0) > since):
                kept.append(cid)
                continue
            for node in classes[cid].nodes:
                if (
                    node.op == op
                    and len(node.children) == arity
                    and max(map(near, map(canon, node.children)), default=0) > since
                ):
                    kept.append(cid)
                    break
        if counters is not None:
            dropped = len(candidates) - len(kept)
            counters.visited -= dropped
            counters.skipped += dropped
        return kept

    def __contains__(self, term: Term) -> bool:
        return self.lookup_term(term) is not None

    # ------------------------------------------------------------------
    # Dirty tracking (incremental e-matching)
    # ------------------------------------------------------------------

    def _stamp(self, eclass: EClass) -> None:
        """Mark a class as modified at the current tick and schedule
        upward propagation of the stamp to its ancestors."""
        self.tick += 1
        eclass.modified_at = self.tick
        self._dirty_pending.add(eclass.id)

    def _propagate_dirty(self) -> None:
        """Push modification stamps up the ``parents`` links.

        A pattern match rooted at class ``C`` only inspects classes in
        ``C``'s subtree, so a change anywhere below ``C`` must dirty
        ``C`` itself for dirty-set matching to be exact.  Propagation
        is deferred to the first ``since``-filtered query after a batch
        of mutations (searches never interleave with mutation in the
        saturation loop), which amortizes rebuild-storm unions.
        """
        pending = self._dirty_pending
        if not pending:
            return
        canon = self._uf.parent
        classes = self._classes
        stack = list(pending)
        pending.clear()
        self._propagate_near(stack)
        while stack:
            cid = canon[stack.pop()]
            eclass = classes.get(cid)
            if eclass is None:
                continue
            stamp = eclass.modified_at
            for _node, parent in eclass.parents:
                pid = canon[parent]
                pclass = classes.get(pid)
                if pclass is not None and pclass.modified_at < stamp:
                    pclass.modified_at = stamp
                    stack.append(pid)

    def _propagate_near(self, stamped: List[int]) -> None:
        """Stamp the classes ``stamped`` and those at most
        :data:`NEAR_RADIUS` levels above them with the current tick.

        The current tick is at least the tick of every change being
        propagated, so each stamp stays an upper bound: a late stamp
        can keep a candidate whose change a rule has already seen,
        never drop one it has not.  Levels are walked breadth first, so
        a class is stamped first at its smallest distance, and a class
        already holding the current tick is not walked again."""
        tick = self.tick
        near = self._near
        canon = self._uf.parent
        classes = self._classes
        level = [canon[cid] for cid in stamped]
        for depth in range(NEAR_RADIUS, -1, -1):
            above: List[int] = []
            for cid in level:
                if near[cid] == tick:
                    continue
                near[cid] = tick
                if depth:
                    above.extend([canon[p] for _node, p in classes[cid].parents])
            level = above

    # ------------------------------------------------------------------
    # Checkpointing (fault tolerance)
    # ------------------------------------------------------------------

    def copy(self) -> "EGraph":
        """An independent snapshot of the whole e-graph.

        E-nodes are immutable, so only the containers are copied; class
        ids are preserved, which is what lets the saturation runner
        resume a persisted checkpoint without invalidating ids held by
        callers (e.g. the compiler's root id).  The op-index clean
        marks are not copied: a restored graph may repeat a tick it had
        before.
        """
        new = EGraph()
        new._uf = self._uf.copy()
        new._memo = dict(self._memo)
        new._classes = {
            cid: EClass(c.id, list(c.nodes), list(c.parents), c.modified_at)
            for cid, c in self._classes.items()
        }
        new._pending = list(self._pending)
        new._op_index = {op: set(ids) for op, ids in self._op_index.items()}
        new.version = self.version
        new.tick = self.tick
        new._n_nodes = self._n_nodes
        new._dirty_pending = set(self._dirty_pending)
        new._born = list(self._born)
        new._arrived = {cid: dict(ops) for cid, ops in self._arrived.items()}
        new._near = list(self._near)
        return new

    def restore_from(self, snapshot: "EGraph") -> None:
        """Overwrite this graph's state with ``snapshot``'s (taken via
        :meth:`copy`).  In-place so existing references -- and the class
        ids they hold -- stay valid."""
        other = snapshot.copy()
        self._uf = other._uf
        self._memo = other._memo
        self._classes = other._classes
        self._pending = other._pending
        self._op_index = other._op_index
        self._op_clean = other._op_clean
        self.version = other.version
        self.tick = other.tick
        self._n_nodes = other._n_nodes
        self._dirty_pending = other._dirty_pending
        self._born = other._born
        self._arrived = other._arrived
        self._near = other._near

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def add(self, node: ENode) -> int:
        """Insert an e-node (children must be existing class ids);
        return the id of its class, reusing an existing class when the
        canonical node is already present."""
        node = node.canonicalize(self._uf)
        existing = self._memo.get(node)
        if existing is not None:
            return self._uf.parent[existing]
        new_id = self._uf.make_set()
        eclass = EClass(new_id, [node])
        self._classes[new_id] = eclass
        self._memo[node] = new_id
        self._op_index.setdefault(node.op, set()).add(new_id)
        for child in set(node.children):
            self._classes[child].parents.append((node, new_id))
        self.version += 1
        self._n_nodes += 1
        # A fresh class has no parents yet, so its stamp needs no
        # propagation: any node referencing it later is newer still.
        self.tick += 1
        eclass.modified_at = tick = self.tick
        self._born.append(tick)
        self._near.append(tick)
        return new_id

    def add_term(self, term: Union[Term, Sequence[ENode]]) -> int:
        """Insert a whole program bottom-up; returns the root's class id.

        ``term`` is a :class:`Term` or a node list in post-order whose
        children are list indices (:func:`flatten_term`, or what
        :meth:`repro.egraph.extract.Extractor.extract` returns).  Nodes
        are inserted in list order, so class ids follow it.  An empty
        graph is seeded in one pass when no node repeats; otherwise
        each node goes through :meth:`add` and the hashcons."""
        nodes = flatten_term(term) if isinstance(term, Term) else term
        if len(self._uf) == 0 and self._seed(nodes):
            return len(nodes) - 1
        ids: List[int] = []
        for node in nodes:
            if node.children:
                node = ENode(node.op, tuple([ids[i] for i in node.children]), node.value)
            ids.append(self.add(node))
        return ids[-1]

    def _seed(self, nodes: Sequence[ENode]) -> bool:
        """Seed an empty graph from a post-order node list, writing
        exactly the state that :meth:`add` would, node by node: node
        ``i`` gets class ``i``, stamped, born and near-stamped at tick
        ``i + 1``, with the same memo and parent entries, and each
        op-index set is filled in ascending id order (set order decides
        match order).  Writes nothing and returns ``False`` when a node
        repeats."""
        count = len(nodes)
        memo = dict(zip(nodes, range(count)))
        if len(memo) != count:
            return False
        self._uf.make_sets(count)
        classes = self._classes
        op_index = self._op_index
        tick = self.tick
        stamps = list(range(tick + 1, tick + count + 1))
        for i, node in enumerate(nodes):
            classes[i] = EClass(i, [node], [], stamps[i])
            ids = op_index.get(node.op)
            if ids is None:
                ids = op_index[node.op] = set()
            ids.add(i)
            if node.children:
                for child in set(node.children):
                    classes[child].parents.append((node, i))
        self._memo = memo
        self._born = stamps
        self._near = list(stamps)
        self.version += count
        self._n_nodes += count
        self.tick = tick + count
        return True

    def lookup(self, node: ENode) -> Optional[int]:
        """Class id of a canonical e-node, or ``None`` if absent.

        Unlike :meth:`add`, this never modifies the graph.
        """
        node = node.canonicalize(self._uf)
        found = self._memo.get(node)
        return None if found is None else self._uf.parent[found]

    def lookup_term(self, term: Term) -> Optional[int]:
        """Class id representing ``term``, or ``None`` if the graph
        does not (yet) contain it."""
        children: List[int] = []
        for arg in term.args:
            child = self.lookup_term(arg)
            if child is None:
                return None
            children.append(child)
        return self.lookup(ENode(term.op, tuple(children), term.value))

    # ------------------------------------------------------------------
    # Union and rebuilding
    # ------------------------------------------------------------------

    def union(self, a: int, b: int) -> bool:
        """Assert that classes ``a`` and ``b`` are equal.

        Returns ``True`` when the graph changed.  Invariants are
        restored lazily by :meth:`rebuild`.
        """
        canon = self._uf.parent
        ra, rb = canon[a], canon[b]
        if ra == rb:
            return False
        root = self._uf.union(ra, rb)
        other = rb if root == ra else ra
        winner = self._classes[root]
        loser = self._classes.pop(other)
        winner.nodes.extend(loser.nodes)
        winner.parents.extend(loser.parents)
        self._pending.append(root)
        self._stamp(winner)
        # The loser's nodes arrive in the winner now.
        arrived = self._arrived
        arrived.pop(other, None)
        ops = arrived.get(root)
        if ops is None:
            ops = arrived[root] = {}
        tick = self.tick
        for node in loser.nodes:
            ops[node.op] = tick
        return True

    def rebuild(self) -> int:
        """Restore hashcons and congruence invariants after unions.

        Processes the worklist of dirty classes, re-canonicalizing
        parent e-nodes and merging classes that have become congruent,
        until a fixpoint.  Returns the number of classes repaired.
        """
        repaired = 0
        canon = self._uf.parent
        while self._pending:
            todo = {canon[cid] for cid in self._pending}
            self._pending.clear()
            for cid in todo:
                self._repair(cid)
                repaired += 1
        return repaired

    def _repair(self, eclass_id: int) -> None:
        uf = self._uf
        # Unions below update the root array in place.
        canon = uf.parent
        eclass = self._classes.get(canon[eclass_id])
        if eclass is None:
            return

        # Re-canonicalize the hashcons entries of every parent node.
        memo = self._memo
        new_parents: Dict[ENode, int] = {}
        for parent_node, parent_class in eclass.parents:
            memo.pop(parent_node, None)
            canonical = parent_node.canonicalize(uf)
            parent_class = canon[parent_class]
            previous = new_parents.get(canonical)
            if previous is not None:
                # Two parents became congruent: merge their classes.
                self.union(previous, parent_class)
            new_parents[canonical] = canon[parent_class]
        for canonical, parent_class in new_parents.items():
            existing = memo.get(canonical)
            if existing is not None and canon[existing] != parent_class:
                self.union(existing, parent_class)
            memo[canonical] = canon[parent_class]
        eclass.parents = [(n, canon[c]) for n, c in new_parents.items()]

        # Deduplicate the class's own nodes under the new congruence.
        seen: Set[ENode] = set()
        unique_nodes: List[ENode] = []
        for node in eclass.nodes:
            canonical = node.canonicalize(uf)
            if canonical not in seen:
                seen.add(canonical)
                unique_nodes.append(canonical)
        self._n_nodes -= len(eclass.nodes) - len(unique_nodes)
        eclass.nodes = unique_nodes
        # Repair re-canonicalizes this class's representation; stamp it
        # (cheap safety -- the unions that triggered the repair already
        # dirtied the semantic changes).
        self._stamp(eclass)

    # ------------------------------------------------------------------
    # Equivalence and term extraction helpers
    # ------------------------------------------------------------------

    def equiv(self, t1: Term, t2: Term) -> bool:
        """True when both terms are present and in the same class."""
        a = self.lookup_term(t1)
        b = self.lookup_term(t2)
        return a is not None and b is not None and a == b

    def dump(self) -> str:
        """Human-readable snapshot, for debugging tests."""
        lines = []
        for cid in sorted(self._classes):
            eclass = self._classes[cid]
            rendered = ", ".join(
                f"{n.op}{n.value if n.value is not None else ''}{list(n.children)}"
                for n in eclass.nodes
            )
            lines.append(f"e{cid}: {rendered}")
        return "\n".join(lines)
