"""Pattern language and e-matching.

egg exposes a pattern DSL for simple syntactic rewrites (paper
Section 3.3); this module is our equivalent.  Patterns are terms whose
leaves may be *pattern variables*, written ``?x`` in the s-expression
syntax::

    (+ ?a (* ?b ?c))

E-matching searches the e-graph for every (e-class, substitution) pair
such that instantiating the pattern under the substitution yields a
term represented by that class.  :func:`match_in_class` is the classic
recursive backtracking procedure over e-nodes, kept as the reference
implementation.  :func:`ematch` runs the same search through a matcher
*generated* for the pattern's shape: one nested loop per operator node,
no generator frames, no copied node lists, and a substitution dict
built only on a full match.  It returns exactly the list the reference
yields, in the same order (see DESIGN.md, "Generated matchers").
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..dsl.ast import Term
from ..dsl.parser import parse
from .egraph import EGraph, ENode

__all__ = [
    "Pattern",
    "PVar",
    "PNode",
    "pattern",
    "pattern_vars",
    "ematch",
    "matcher_for",
    "run_matcher",
    "match_in_class",
    "instantiate",
    "Subst",
    "MatchCounters",
]


@dataclass
class MatchCounters:
    """Instrumentation for one search: how many candidate classes were
    actually examined vs pruned by the dirty-set filter, and whether
    the search ran to completion (a deadline may truncate it).

    ``completed`` gates the scheduler's per-rule high-water mark: a
    truncated search must not advance its cursor, or the unexamined
    classes' matches would be lost forever.
    """

    visited: int = 0
    skipped: int = 0
    completed: bool = True


class _DeadlineGate:
    """Amortized deadline poll shared across a recursive e-match.

    ``Deadline.expired`` costs a ``perf_counter`` call, far too much
    per e-node; the gate polls every 64th check and latches once
    tripped so deep recursions unwind quickly.
    """

    __slots__ = ("deadline", "count", "tripped")

    _STRIDE = 64

    def __init__(self, deadline) -> None:
        self.deadline = deadline
        self.count = 0
        self.tripped = False

    def check(self) -> bool:
        if self.deadline is None:
            return False
        if self.tripped:
            return True
        self.count += 1
        # Poll on the very first check (so an already-expired deadline
        # stops even a tiny search immediately), then every 64th.
        if self.count % self._STRIDE != 1:
            return False
        if self.deadline.expired():
            self.tripped = True
        return self.tripped

#: A substitution binds pattern-variable names to e-class ids.
Subst = Dict[str, int]


@dataclass(frozen=True)
class PVar:
    """A pattern variable, e.g. ``?x``."""

    name: str

    def __str__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class PNode:
    """A concrete operator node in a pattern."""

    op: str
    args: Tuple["Pattern", ...] = ()
    value: Union[int, float, str, None] = None

    def __str__(self) -> str:
        if self.op == "Num":
            return str(self.value)
        if self.op == "Symbol":
            return str(self.value)
        head = self.value if self.op == "Call" else self.op
        if not self.args:
            return f"({head})"
        return f"({head} {' '.join(str(a) for a in self.args)})"


Pattern = Union[PVar, PNode]


def _from_term(term: Term) -> Pattern:
    """Convert a parsed term into a pattern, turning ``?x`` symbols
    into pattern variables."""
    if term.op == "Symbol" and str(term.value).startswith("?"):
        return PVar(str(term.value)[1:])
    return PNode(term.op, tuple(_from_term(a) for a in term.args), term.value)


def pattern(source: Union[str, Term, Pattern]) -> Pattern:
    """Build a pattern from s-expression text, a term, or pass a
    pattern through unchanged."""
    if isinstance(source, (PVar, PNode)):
        return source
    if isinstance(source, Term):
        return _from_term(source)
    return _from_term(parse(source))


def pattern_vars(pat: Pattern) -> List[str]:
    """All variable names occurring in the pattern, in first-seen order."""
    seen: List[str] = []
    _collect_vars(pat, seen)
    return seen


def _collect_vars(p: Pattern, seen: List[str]) -> None:
    if isinstance(p, PVar):
        if p.name not in seen:
            seen.append(p.name)
    else:
        for a in p.args:
            _collect_vars(a, seen)


def match_in_class(
    egraph: EGraph,
    pat: Pattern,
    eclass_id: int,
    subst: Subst = None,
    deadline=None,
    _gate: Optional[_DeadlineGate] = None,
) -> Iterator[Subst]:
    """Yield every substitution under which ``pat`` matches the given
    e-class, extending ``subst``.

    ``deadline`` (a :class:`repro.egraph.scheduler.Deadline`) is polled
    cooperatively *inside* the recursion -- one huge class can no
    longer blow far past the runner's wall-clock budget.  On expiry
    the generator simply stops yielding.
    """
    if _gate is None and deadline is not None:
        _gate = _DeadlineGate(deadline)
    subst = subst or {}
    eclass_id = egraph.find(eclass_id)
    if isinstance(pat, PVar):
        bound = subst.get(pat.name)
        if bound is None:
            extended = dict(subst)
            extended[pat.name] = eclass_id
            yield extended
        elif egraph.find(bound) == eclass_id:
            yield subst
        return
    for node in egraph.nodes_of(eclass_id):
        if _gate is not None and _gate.check():
            return
        if node.op != pat.op or node.value != pat.value:
            continue
        if len(node.children) != len(pat.args):
            continue
        yield from _match_children(
            egraph, pat.args, node.children, subst, 0, _gate
        )


def _match_children(
    egraph: EGraph,
    pats: Sequence[Pattern],
    children: Sequence[int],
    subst: Subst,
    index: int,
    gate: Optional[_DeadlineGate] = None,
) -> Iterator[Subst]:
    if index == len(pats):
        yield subst
        return
    for extended in match_in_class(
        egraph, pats[index], children[index], subst, _gate=gate
    ):
        yield from _match_children(
            egraph, pats, children, extended, index + 1, gate
        )


# ---------------------------------------------------------------------------
# Generated matchers
# ---------------------------------------------------------------------------

#: Patterns with more inner operator nodes than this use the
#: interpretive matcher: each one is a nested loop in the generated
#: code, and CPython rejects more than 20 statically nested blocks.
_MAX_GENERATED_LOOPS = 18

#: ``match(canon, classes, candidates, expired, out, leaves, consts)
#: -> completed``; ``canon`` is the union-find's root array.
_Matcher = Callable[..., bool]


def _shape(pat: PNode) -> Tuple[tuple, tuple, Tuple[ENode, ...]]:
    """Split ``pat`` into a *shape*, the constants that fill it, and
    its distinct leaf children.

    The shape keeps what decides the generated code: arities, which
    operator nodes carry a literal value, and where variables and
    leaves repeat.  An operator node becomes ``(value_is_none,
    *child_shapes)``, a variable its first-seen index, and a childless
    node below the root ``"L<k>"`` for its first-seen index among the
    distinct leaves.  The constants are the ops and literal values in
    pre-order, then the variable names in first-seen order -- the
    order the shape's matcher unpacks them in.  Patterns that differ
    only in constants share one generated function.

    A leaf is never looped over: the hashcons stores each childless
    e-node exactly once (it has no children to re-canonicalize, so its
    entry is never rebuilt), so a class holds a node equal to the leaf
    exactly when it is the class ``EGraph.lookup`` finds for it -- and
    then holds exactly one.  The matcher compares class ids instead.
    """
    consts: List = []
    names: List[str] = []
    leaves: List[ENode] = []
    shape = _split(pat, consts, names, leaves, root=True)
    return shape, tuple(consts) + tuple(names), tuple(leaves)


def _split(
    p: Pattern, consts: List, names: List[str], leaves: List[ENode],
    root: bool = False,
):
    """One node of :func:`_shape`'s pre-order walk."""
    if isinstance(p, PVar):
        if p.name not in names:
            names.append(p.name)
        return names.index(p.name)
    if not p.args and not root:
        leaf = ENode(p.op, (), p.value)
        if leaf not in leaves:
            leaves.append(leaf)
        return f"L{leaves.index(leaf)}"
    consts.append(p.op)
    if p.value is not None:
        consts.append(p.value)
    return (p.value is None,) + tuple(
        _split(a, consts, names, leaves) for a in p.args
    )


def _count_loops(shape) -> int:
    if not isinstance(shape, tuple):
        return 0
    return 1 + sum(_count_loops(child) for child in shape[1:])


@functools.lru_cache(maxsize=256)
def _shape_matcher(shape: tuple, gated: bool) -> _Matcher:
    """Generate and compile the matcher for one pattern shape.

    It walks the candidate classes in order and, per class, runs
    the nested loops ``match_in_class`` would recurse through: one loop
    over the class's e-nodes per operator node, children in index
    order, variables bound on first sight and compared on repeats, and
    leaves compared against the class ids in ``leaves``.  So it appends
    exactly the reference's ``(class, subst)`` pairs, in the reference's
    order.  ``gated`` adds the :class:`_DeadlineGate` schedule inline --
    a countdown polling ``expired`` on the first check and every
    ``_STRIDE``-th after -- and makes it return ``False`` once that
    fires.  No pattern text enters the source: ops, literals and
    variable names arrive as values in ``consts``.
    """
    body = _MatcherBody(gated)
    body.emit(1, "for c0 in candidates:")
    depth = body.node(shape, "c0", 2)
    subst = ", ".join(f"N{k}: v{k}" for k in range(body.bound))
    body.emit(depth, f"out.append((c0, {{{subst}}}))")
    body.poll(2)
    body.emit(1, "return True")
    # Constants arrive as locals, not closure cells: a nested factory
    # nearly doubles the compile time, which every process pays.
    params = body.node_consts + [f"N{k}" for k in range(body.bound)]
    head = [
        "def match(canon, classes, candidates, expired, out, leaves, consts):",
        f"    {', '.join(params)}, = consts",
    ]
    if body.leaves:
        head.append(f"    {', '.join(f'L{k}' for k in range(len(body.leaves)))}, = leaves")
    if gated:
        head.append("    left = 1")
    namespace: Dict[str, object] = {}
    exec(compile("\n".join(head + body.lines), "<ematch>", "exec"), namespace)
    # Popped, so the namespace (the function's globals) does not hold
    # the function in a cycle once the cache evicts it.
    return namespace.pop("match")  # type: ignore[return-value]


class _MatcherBody:
    """The loop nest of one generated matcher, written line by line.
    A class rather than recursive closures, which would form reference
    cycles that only the cyclic collector frees."""

    def __init__(self, gated: bool) -> None:
        self.gated = gated
        self.lines: List[str] = []
        self.node_consts: List[str] = []
        self.loops = 0
        self.leaves: Set[str] = set()
        #: Variables bound so far: ``v0`` .. ``v{bound - 1}``.
        self.bound = 0

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def poll(self, depth: int) -> None:
        if self.gated:
            self.emit(depth, "left -= 1")
            self.emit(depth, "if not left:")
            self.emit(depth + 1, "if expired():")
            self.emit(depth + 2, "return False")
            self.emit(depth + 1, f"left = {_DeadlineGate._STRIDE}")

    def const(self) -> str:
        name = f"K{len(self.node_consts)}"
        self.node_consts.append(name)
        return name

    def node(self, shape: tuple, cls: str, depth: int) -> int:
        """Open the loop over the e-nodes of class ``cls``; return the
        depth inside it."""
        i = self.loops
        self.loops += 1
        n, x = f"n{i}", f"x{i}"
        children = shape[1:]
        self.emit(depth, f"for {n} in classes[{cls}].nodes:")
        depth += 1
        self.poll(depth)
        op = self.const()
        value = "is not None" if shape[0] else f"!= {self.const()}"
        if children:
            arity = f"len({x} := {n}.children) != {len(children)}"
        else:
            arity = f"{n}.children"
        self.emit(depth, f"if {n}.op != {op} or {n}.value {value} or {arity}:")
        self.emit(depth + 1, "continue")
        for index, child in enumerate(children):
            if isinstance(child, tuple):
                depth = self.node(child, f"canon[{x}[{index}]]", depth)
                continue
            if isinstance(child, str):
                test = child
                self.leaves.add(child)
            elif child < self.bound:
                test = f"v{child}"
            else:
                self.emit(depth, f"v{child} = canon[{x}[{index}]]")
                self.bound += 1
                continue
            self.emit(depth, f"if canon[{x}[{index}]] != {test}:")
            self.emit(depth + 1, "continue")
        return depth


@functools.lru_cache(maxsize=1024)
def _generated_matcher(
    pat: PNode, gated: bool
) -> Optional[Tuple[_Matcher, tuple, Tuple[ENode, ...]]]:
    """The generated matcher for ``pat``'s shape, the pattern's
    constants, and its distinct leaf e-nodes; ``None`` when the pattern
    cannot be generated (too deep, or a NaN leaf, which equals nothing
    yet may be found by identity).  Memoized by value: equal patterns
    match identically."""
    shape, consts, leaves = _shape(pat)
    if _count_loops(shape) > _MAX_GENERATED_LOOPS:
        return None
    if any(leaf.value != leaf.value for leaf in leaves):
        return None
    return _shape_matcher(shape, gated), consts, leaves


def _interpret(
    egraph: EGraph,
    pat: Pattern,
    candidates: List[int],
    gate: Optional[_DeadlineGate],
    out: List[Tuple[int, Subst]],
) -> bool:
    """The reference search over ``candidates``; ``False`` when the
    deadline cut it short."""
    for cid in candidates:
        for subst in match_in_class(egraph, pat, cid, _gate=gate):
            out.append((egraph.find(cid), subst))
        if gate is not None and gate.check():
            return False
    return True


def ematch(
    egraph: EGraph,
    pat: Pattern,
    deadline=None,
    since: Optional[int] = None,
    counters: Optional[MatchCounters] = None,
) -> List[Tuple[int, Subst]]:
    """Match ``pat`` against every e-class; return (class id,
    substitution) pairs.  Multiple substitutions per class are all
    reported -- a rewrite may fire several ways on one class.

    The result is exactly what looping :func:`match_in_class` over the
    candidate classes yields, in the same order; operator patterns run
    through a generated matcher (see :func:`_shape_matcher`).

    ``deadline`` (a :class:`repro.egraph.scheduler.Deadline`) is polled
    cooperatively inside the matcher; when it expires the matches found
    so far are returned (and ``counters.completed`` is cleared),
    letting the saturation runner's wall-clock budget interrupt a long
    e-match mid-rule -- even mid-class.  A deadline that can never
    expire (``at is None``) is not polled at all.

    ``since`` restricts the scan to classes whose subtree changed
    after that e-graph tick (see :attr:`repro.egraph.egraph.EGraph.tick`);
    ``None`` scans everything.  With upward dirty propagation this is
    exact: a match rooted at a clean class cannot have changed.
    """
    polled = deadline is not None and deadline.at is not None
    return run_matcher(
        egraph, pat, matcher_for(pat, polled), deadline, since, counters
    )


def matcher_for(
    pat: Pattern, polled: bool
) -> Optional[Tuple[_Matcher, tuple, Tuple[ENode, ...]]]:
    """What :func:`ematch` runs for ``pat``: the generated matcher of
    its shape with its constants and leaves, or ``None`` for the
    interpreter.  ``polled`` selects the variant that polls a deadline
    (one whose ``at`` is set).  A caller that searches one pattern
    again and again resolves it once and calls :func:`run_matcher`."""
    if isinstance(pat, PNode):
        return _generated_matcher(pat, polled)
    return None


def run_matcher(
    egraph: EGraph,
    pat: Pattern,
    generated: Optional[Tuple[_Matcher, tuple, Tuple[ENode, ...]]],
    deadline=None,
    since: Optional[int] = None,
    counters: Optional[MatchCounters] = None,
) -> List[Tuple[int, Subst]]:
    """:func:`ematch` with the matcher already resolved: ``generated``
    is ``matcher_for(pat, polled)``, where ``polled`` says whether
    ``deadline`` is set and can expire."""
    results: List[Tuple[int, Subst]] = []
    polled = deadline is not None and deadline.at is not None
    if isinstance(pat, PNode):
        # Only classes containing the root operator can match; the
        # e-graph's operator index prunes the scan, and the dirty-set
        # filter prunes it further for incremental searches.
        candidates = egraph.classes_with_op(pat.op, since=since, counters=counters)
    else:
        candidates = egraph.dirty_class_ids(since=since, counters=counters)
    if generated is not None:
        matcher, consts, leaves = generated
        leaf_classes = [egraph.lookup(leaf) for leaf in leaves]
        if None in leaf_classes:
            # A leaf absent from the graph: nothing can match.
            return results
        # Searches never mutate the graph, so the matcher may read the
        # class table and the union-find's root array directly.
        completed = matcher(
            egraph.uf.parent,
            egraph.class_table,
            candidates,
            deadline.expired if polled else None,
            results,
            leaf_classes,
            consts,
        )
    else:
        gate = _DeadlineGate(deadline) if polled else None
        completed = _interpret(egraph, pat, candidates, gate, results)
    if not completed and counters is not None:
        counters.completed = False
    return results


def instantiate(egraph: EGraph, pat: Pattern, subst: Subst) -> int:
    """Add the instantiation of ``pat`` under ``subst`` to the e-graph
    and return its class id.  Every variable in the pattern must be
    bound."""
    if isinstance(pat, PVar):
        try:
            return egraph.find(subst[pat.name])
        except KeyError as exc:
            raise KeyError(f"unbound pattern variable ?{pat.name}") from exc
    children = tuple(instantiate(egraph, a, subst) for a in pat.args)
    return egraph.add(ENode(pat.op, children, pat.value))
