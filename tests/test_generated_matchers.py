"""Generated e-matchers and the op-index fast path keep the reference
behaviour exactly: the same matches, in the same order.

Saturation decides which program comes out, so the contract is a
byte-identical trajectory, not merely equal match sets:

* ``ematch`` returns exactly the ``(class, subst)`` list that looping
  :func:`match_in_class` over the same candidates yields, in order;
* ``classes_with_op`` returns the same list, in the same order, as a
  from-scratch re-clean of the operator index;
* a whole saturation run with both reference paths patched back in
  produces the same iteration reports and the same final e-graph.

A set's iteration order depends on its insertion history, so order
comparisons run on *twin* graphs: two graphs driven through identical
histories, one answering through the new code and one through the
reference.
"""

import sys
import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.compiler import CompileOptions
from repro.dsl.ast import Term
from repro.egraph import (
    EGraph,
    MatchCounters,
    PNode,
    PVar,
    Runner,
    StopReason,
    ematch,
    match_in_class,
    pattern,
)
from repro.egraph.extract import Extractor
from repro.egraph.rewrite import CustomRewrite, Match, SyntacticRewrite
from repro.egraph.scheduler import Deadline
from repro.kernels import get_kernel
from repro.phases import NoneOf, Phase, PhasePlan, execute_plan
from repro.phases.plan import SCALAR_ARITH_OPS
from repro.rules import build_ruleset

pattern_module = sys.modules["repro.egraph.pattern"]


# -- reference paths ---------------------------------------------------------


def reference_classes_with_op(egraph, op, since=None, counters=None):
    """The operator-index query with a full re-clean on every call."""
    stale = egraph._op_index.get(op)
    if not stale:
        return []
    fresh = set()
    for cid in stale:
        root = egraph._uf.find(cid)
        eclass = egraph._classes.get(root)
        if eclass is not None and any(n.op == op for n in eclass.nodes):
            fresh.add(root)
    egraph._op_index[op] = fresh
    if since is None:
        if counters is not None:
            counters.visited += len(fresh)
        return list(fresh)
    egraph._propagate_dirty()
    dirty = [cid for cid in fresh if egraph._classes[cid].modified_at > since]
    if counters is not None:
        counters.visited += len(dirty)
        counters.skipped += len(fresh) - len(dirty)
    return dirty


def reference_ematch(egraph, pat, since=None):
    if isinstance(pat, PNode):
        candidates = reference_classes_with_op(egraph, pat.op, since=since)
    else:
        candidates = egraph.dirty_class_ids(since=since)
    return [
        (egraph.find(cid), subst)
        for cid in candidates
        for subst in match_in_class(egraph, pat, cid)
    ]


def exact(found):
    """Matches with each substitution's binding order made visible."""
    return [(cid, list(subst.items())) for cid, subst in found]


def _num(v):
    return Term("Num", value=v)


def _sym(name):
    return Term("Symbol", value=name)


# -- matchers ----------------------------------------------------------------

WIDTH = 4

_leaves = st.one_of(
    st.sampled_from([0, 1, -1, 2, 0.0, 0.5]).map(_num),
    st.sampled_from(["a", "b", "c"]).map(_sym),
    st.builds(
        lambda a, i: Term("Get", (_sym(a), _num(i))),
        st.sampled_from(["a", "b"]),
        st.integers(0, 2),
    ),
)


def _compound(kids):
    def op(name, arity):
        return st.builds(
            lambda *args: Term(name, tuple(args)), *([kids] * arity)
        )

    lane = st.one_of(st.just(_num(0)), kids)
    return st.one_of(
        *[op(name, 2) for name in ("+", "-", "*", "/")],
        *[op(name, 1) for name in ("neg", "sqrt", "sgn")],
        st.builds(lambda f, x: Term("Call", (x,), value=f),
                  st.sampled_from(["f", "g"]), kids),
        st.builds(lambda *lanes: Term("Vec", tuple(lanes)), *([lane] * WIDTH)),
        *[op(name, 2) for name in ("VecAdd", "VecMul", "VecMinus")],
        op("VecMAC", 3),
        op("VecNeg", 1),
    )


terms = st.recursive(_leaves, _compound, max_leaves=10)


@st.composite
def histories(draw):
    """Terms to add, then index pairs to union, and whether to rebuild
    afterwards (searches normally run on rebuilt graphs, but the
    matchers must not depend on it)."""
    added = draw(st.lists(terms, min_size=1, max_size=6))
    pairs = draw(st.lists(st.tuples(st.integers(0, 999), st.integers(0, 999)),
                          max_size=6))
    return added, pairs, draw(st.booleans())


def _build(history):
    """The graph a history describes, and the tick before its unions."""
    added, pairs, rebuild = history
    eg = EGraph()
    for term in added:
        eg.add_term(term)
    since = eg.tick
    ids = eg.class_ids()
    for a, b in pairs:
        eg.union(ids[a % len(ids)], ids[b % len(ids)])
    if rebuild:
        eg.rebuild()
    return eg, since


def _shipped_lhs():
    rules = build_ruleset(width=WIDTH, enable_ac=True)
    return [r.lhs for r in rules if isinstance(r, SyntacticRewrite)]


PATTERNS = _shipped_lhs() + [
    pattern("(+ -1 (* ?a 0.5))"),
    pattern("(+ ?a (* ?a ?b))"),
    pattern("(* (neg ?a) (neg ?a))"),
    pattern("(Vec 0 0 0 0)"),
    pattern("(VecMAC ?a (Vec 0 ?b 0 ?b) ?c)"),
    pattern("(Get a ?i)"),
    pattern("(Get ?arr 0)"),
    pattern("(+ a ?x)"),
    pattern("a"),
    pattern("0"),
    pattern("?x"),
    PNode("Call", (PVar("x"),), "f"),
    PNode("+", (PNode("Call", (PVar("x"),), "g"), PVar("x"))),
]


class TestGeneratedMatchers:
    def test_shipped_patterns_share_generated_shapes(self):
        lhs = _shipped_lhs()
        for pat in lhs:
            assert pattern_module._generated_matcher(pat, False) is not None
        assert len({pattern_module._shape(pat)[0] for pat in lhs}) < len(lhs)

    @given(histories())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_equals_reference_in_order(self, history):
        new, since = _build(history)
        ref, _ = _build(history)
        far = Deadline(time.perf_counter() + 3600)
        for pat in PATTERNS:
            for cutoff in (None, since):
                want = exact(reference_ematch(ref, pat, since=cutoff))
                assert exact(ematch(new, pat, since=cutoff)) == want, str(pat)
                # The deadline-polling variant matches identically.
                want = exact(reference_ematch(ref, pat, since=cutoff))
                got = exact(ematch(new, pat, deadline=far, since=cutoff))
                assert got == want, str(pat)

    def test_pattern_too_deep_to_generate_uses_reference(self):
        deep = PVar("x")
        for _ in range(pattern_module._MAX_GENERATED_LOOPS + 2):
            deep = PNode("neg", (deep,))
        assert pattern_module._generated_matcher(deep, False) is None
        term = _sym("x")
        for _ in range(pattern_module._MAX_GENERATED_LOOPS + 4):
            term = Term("neg", (term,))
        eg = EGraph()
        eg.add_term(term)
        assert len(ematch(eg, deep)) == 3


# -- operator index ----------------------------------------------------------

_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), terms),
        st.tuples(st.just("union"), st.integers(0, 999), st.integers(0, 999)),
        st.tuples(st.just("rebuild")),
        st.tuples(st.just("copy")),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("restore")),
        st.tuples(st.just("query"), st.sampled_from(["+", "*", "neg", "Num"]),
                  st.booleans()),
    ),
    min_size=1,
    max_size=40,
)


def _chain(n):
    """A term with ``n`` operator classes, so class ids outgrow the
    small set tables of the per-op index and insertion history starts
    to decide iteration order: at ``n=80`` re-inserting the cleaned
    ``+`` entry reorders it.  Classes 4 and 6 hold ``+``."""
    term = _sym("s")
    for i in range(n):
        term = Term("+" if i % 3 else "*", (term, _num(i)))
    return term


class TestOpIndex:
    @given(_steps)
    @example([("query", "+", False)])
    @example([("union", 4, 6), ("snapshot",), ("query", "+", False),
              ("restore",), ("query", "+", False)])
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_equals_full_reclean_in_order(self, steps):
        """Twin graphs driven through identical histories -- one with
        the fast path, one re-cleaning on every query -- answer every
        query with the same list in the same order.  (The first pinned
        example repeats a query whose cleaned entry re-inserts in a new
        order; the second restores a snapshot with a stale entry to the
        very tick the entry was last cleaned at.)"""
        new, ref = EGraph(), EGraph()
        new.add_term(_chain(80))
        ref.add_term(_chain(80))
        snapshot = None
        for step in steps:
            kind = step[0]
            if kind == "add":
                new.add_term(step[1])
                ref.add_term(step[1])
            elif kind == "union":
                ids = new.class_ids()
                a, b = ids[step[1] % len(ids)], ids[step[2] % len(ids)]
                new.union(a, b)
                ref.union(a, b)
            elif kind == "rebuild":
                new.rebuild()
                ref.rebuild()
            elif kind == "copy":
                new, ref = new.copy(), ref.copy()
            elif kind == "snapshot":
                snapshot = new.copy(), ref.copy()
            elif kind == "restore" and snapshot is not None:
                new.restore_from(snapshot[0])
                ref.restore_from(snapshot[1])
            elif kind == "query":
                op, incremental = step[1], step[2]
                since = new.tick // 2 if incremental else None
                # Repeated: later queries hit the fast path.
                for _ in range(3):
                    got = new.classes_with_op(op, since=since)
                    assert got == reference_classes_with_op(ref, op, since=since)


# -- whole saturation runs ---------------------------------------------------


def _saturate(kernel, node_limit):
    egraph = EGraph()
    root = egraph.add_term(get_kernel(kernel).spec().term)
    report = Runner(
        build_ruleset(width=4), iter_limit=30, node_limit=node_limit
    ).run(egraph)
    rows = [
        (it.matches, it.applied, it.unions, it.nodes, it.visited,
         it.skipped, it.deduped)
        for it in report.iterations
    ]
    term = Extractor(egraph).extract(root).term
    return report.stop_reason, rows, egraph.dump(), term


@pytest.mark.parametrize(
    "kernel, node_limit",
    [("2dconv-3x3-3x3", 100_000), ("qprod-4-3-4-3", 1_200)],
)
def test_trajectory_identical_to_reference_paths(monkeypatch, kernel, node_limit):
    """Saturate with the new code and with the reference paths patched
    in (interpretive matcher, full op-index re-clean).  Every iteration
    report, the final e-graph -- whose class ids record the order the
    matches were applied in -- and the extracted term agree.  The
    ``qprod`` run is cut mid-iteration by its node limit, where match
    order decides which matches are applied at all."""
    new = _saturate(kernel, node_limit)
    with monkeypatch.context() as patch:
        patch.setattr(pattern_module, "_generated_matcher", lambda pat, gated: None)
        # Rules resolve their matcher once, and the shipped rules are
        # shared between rulesets: patch the resolution too.
        patch.setattr(SyntacticRewrite, "_matcher", lambda self, polled: None)
        patch.setattr(EGraph, "classes_with_op", reference_classes_with_op)
        reference = _saturate(kernel, node_limit)
    if node_limit < 100_000:
        assert new[0] == StopReason.NODE_LIMIT
    assert new == reference


# -- deadlines ---------------------------------------------------------------


class CountingDeadline(Deadline):
    __slots__ = ("calls",)

    def __init__(self, at):
        super().__init__(at)
        self.calls = 0

    def expired(self):
        self.calls += 1
        return super().expired()


def _sums(n):
    eg = EGraph()
    for i in range(n):
        eg.add_term(Term("+", (_sym("x"), _num(i))))
    return eg


class TestNeverExpiringDeadline:
    def test_ematch_does_not_poll(self):
        eg = _sums(200)
        never = CountingDeadline(None)
        found = ematch(eg, pattern("(+ ?a ?b)"), deadline=never)
        assert len(found) == 200 and never.calls == 0
        far = CountingDeadline(time.perf_counter() + 3600)
        assert ematch(eg, pattern("(+ ?a ?b)"), deadline=far) == found
        assert far.calls > 1

    def test_custom_search_does_not_poll(self):
        def searcher(egraph):
            for cid in egraph.class_ids():
                yield Match(cid, lambda eg: None)

        rule = CustomRewrite("every-class", searcher)
        eg = _sums(50)
        never = CountingDeadline(None)
        counters = MatchCounters()
        found = rule.search(eg, deadline=never, counters=counters)
        assert len(found) == eg.num_classes and never.calls == 0
        assert counters.completed
        far = CountingDeadline(time.perf_counter() + 3600)
        assert len(rule.search(eg, deadline=far)) == eg.num_classes
        assert far.calls > 1


# -- phased runs -------------------------------------------------------------


def test_phased_rule_stats_count_each_round_once():
    """Extend rounds seed their scheduler with the earlier rounds'
    stats; the merged report must add only each round's own share."""
    plan = PhasePlan(
        "rounds",
        (
            Phase(
                name="all",
                iter_limit=2,
                sketch=NoneOf(SCALAR_ARITH_OPS),
                on_miss="extend",
                extend_limit=4,
            ),
        ),
    )
    options = CompileOptions(time_limit=None, validate=False, phases="on", seed=0)
    execution = execute_plan(get_kernel("2dconv-3x3-2x2").spec(), options, plan)
    rounds = execution.plan_report.phases[0].rounds
    report = execution.report
    assert len(rounds) >= 2
    assert report.banned_rules() == []
    stats = report.rule_stats.values()
    found = sum(it.matches for it in report.iterations)
    assert sum(s.matches for s in stats) == found
    assert sum(s.applied for s in stats) == found
    assert sum(s.search_time for s in stats) <= sum(r.elapsed for r in rounds)
