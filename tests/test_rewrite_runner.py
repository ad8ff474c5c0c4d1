"""Unit tests for rewrites and the saturation runner."""

import time

import pytest

from repro.dsl import parse
from repro.egraph import (
    CustomRewrite,
    EGraph,
    ENode,
    Match,
    Runner,
    StopReason,
    birewrite,
    rewrite,
)


class TestSyntacticRewrite:
    def test_simple_fire(self):
        eg = EGraph()
        root = eg.add_term(parse("(+ (Get a 0) 0)"))
        rule = rewrite("add-0", "(+ ?a 0)", "?a")
        matches = rule.search(eg)
        assert len(matches) == 1
        new_id = matches[0].build(eg)
        eg.union(matches[0].eclass, new_id)
        eg.rebuild()
        assert eg.equiv(parse("(+ (Get a 0) 0)"), parse("(Get a 0)"))

    def test_rhs_variable_must_be_bound(self):
        with pytest.raises(ValueError):
            rewrite("bad", "(+ ?a 0)", "?b")

    def test_guard_vetoes(self):
        eg = EGraph()
        eg.add_term(parse("(+ x 0)"))
        rule = rewrite("never", "(+ ?a 0)", "?a", guard=lambda eg_, s: False)
        assert rule.search(eg) == []

    def test_guard_allows(self):
        eg = EGraph()
        eg.add_term(parse("(+ x 0)"))
        rule = rewrite("always", "(+ ?a 0)", "?a", guard=lambda eg_, s: True)
        assert len(rule.search(eg)) == 1

    def test_birewrite_creates_two_rules(self):
        rules = birewrite("mac", "(VecAdd ?a (VecMul ?b ?c))", "(VecMAC ?a ?b ?c)")
        assert len(rules) == 2
        assert rules[0].name == "mac"
        assert rules[1].name == "mac-rev"

    def test_rhs_with_new_structure(self):
        eg = EGraph()
        eg.add_term(parse("(- x y)"))
        rule = rewrite("sub-neg", "(- ?a ?b)", "(+ ?a (neg ?b))")
        for m in rule.search(eg):
            eg.union(m.eclass, m.build(eg))
        eg.rebuild()
        assert eg.equiv(parse("(- x y)"), parse("(+ x (neg y))"))


    def test_pickles_after_searching(self):
        """A rule keeps its resolved matchers across searches, but they
        are compiled per process: pickling drops them (compile results
        carry ``extra_rules`` into the artifact cache)."""
        import pickle

        from repro.egraph.scheduler import Deadline

        eg = EGraph()
        eg.add_term(parse("(+ (Get a 0) 0)"))
        rule = rewrite("add-0", "(+ ?a 0)", "?a")
        assert len(rule.search(eg)) == 1
        assert len(rule.search(eg, deadline=Deadline.after(60.0))) == 1
        clone = pickle.loads(pickle.dumps(rule))
        assert len(clone.search(eg)) == 1
        assert [m.dedup_key for m in clone.search(eg)] == [
            m.dedup_key for m in rule.search(eg)
        ]


class TestCustomRewrite:
    def test_custom_searcher(self):
        def searcher(eg):
            for cid in eg.classes_with_op("Num"):
                for node in eg.nodes_of(cid):
                    if node.op == "Num" and node.value == 7:
                        yield Match(cid, lambda e: e.add(ENode("Num", (), 7.0)))

        eg = EGraph()
        eg.add_term(parse("7"))
        rule = CustomRewrite("sevens", searcher)
        matches = rule.search(eg)
        assert len(matches) == 1
        assert matches[0].rule_name == "sevens"


class TestRunner:
    def test_saturation_detected(self):
        eg = EGraph()
        eg.add_term(parse("(+ (+ x 0) 0)"))
        report = Runner([rewrite("add-0", "(+ ?a 0)", "?a")]).run(eg)
        assert report.stop_reason == StopReason.SATURATED
        assert report.saturated and not report.timed_out
        assert eg.equiv(parse("(+ (+ x 0) 0)"), parse("x"))

    def test_iteration_limit(self):
        # Commutativity ping-pongs forever on its own; growth stops,
        # but the runner must halt via saturation (no new unions).
        eg = EGraph()
        eg.add_term(parse("(+ x y)"))
        report = Runner(
            [rewrite("comm", "(+ ?a ?b)", "(+ ?b ?a)")], iter_limit=3
        ).run(eg)
        assert report.stop_reason in (
            StopReason.SATURATED,
            StopReason.ITERATION_LIMIT,
        )
        assert eg.equiv(parse("(+ x y)"), parse("(+ y x)"))

    @staticmethod
    def _counter_rule(sleep: float = 0.0):
        """A rule that genuinely grows the graph forever: each
        iteration unions the largest literal's class with a fresh
        literal one larger.  (Pattern-based "growing" rules like
        ``?a => (+ ?a 1)`` saturate instantly -- the e-graph represents
        the infinite family finitely -- so limits need a rule that
        mints genuinely new nodes.)"""

        def searcher(eg):
            if sleep:
                time.sleep(sleep)
            best = None
            for cid in eg.classes_with_op("Num"):
                for node in eg.nodes_of(cid):
                    if node.op == "Num" and (best is None or node.value > best[1]):
                        best = (cid, node.value)
            if best is not None:
                cid, value = best
                yield Match(
                    cid, lambda e, v=value: e.add(ENode("Num", (), v + 1))
                )

        return CustomRewrite("counter", searcher)

    def test_node_limit(self):
        eg = EGraph()
        eg.add_term(parse("0"))
        report = Runner(
            [self._counter_rule()], node_limit=20, iter_limit=1000
        ).run(eg)
        assert report.stop_reason == StopReason.NODE_LIMIT
        assert report.timed_out  # node limits count as timeouts (paper: †)

    def test_time_limit(self):
        eg = EGraph()
        eg.add_term(parse("0"))
        start = time.perf_counter()
        report = Runner(
            [self._counter_rule(sleep=0.02)],
            node_limit=10_000_000,
            iter_limit=1_000_000,
            time_limit=0.3,
        ).run(eg)
        assert report.stop_reason == StopReason.TIME_LIMIT
        assert time.perf_counter() - start < 5.0

    def test_iteration_reports_populated(self):
        eg = EGraph()
        eg.add_term(parse("(+ (+ x 0) 0)"))
        report = Runner([rewrite("add-0", "(+ ?a 0)", "?a")]).run(eg)
        assert len(report.iterations) >= 1
        first = report.iterations[0]
        assert first.matches >= 1
        assert first.nodes == report.iterations[0].nodes
        assert report.nodes == eg.num_nodes
        assert "stopped" in report.summary()

    def test_match_limit_caps_rule(self):
        eg = EGraph()
        for i in range(10):
            eg.add_term(parse(f"(+ x{i} 0)"))
        report = Runner(
            [rewrite("add-0", "(+ ?a 0)", "?a")], match_limit=3, iter_limit=1
        ).run(eg)
        assert report.iterations[0].applied <= 3

    def test_empty_ruleset_rejected(self):
        with pytest.raises(ValueError):
            Runner([])

    def test_phase_order_independence(self):
        """The same rules in any order produce the same equivalences
        (the core promise of equality saturation over destructive
        rewriting)."""
        rules_a = [
            rewrite("add-0", "(+ ?a 0)", "?a"),
            rewrite("mul-1", "(* ?a 1)", "?a"),
        ]
        rules_b = list(reversed(rules_a))
        term = parse("(* (+ (Get a 0) 0) 1)")
        results = []
        for rules in (rules_a, rules_b):
            eg = EGraph()
            eg.add_term(term)
            Runner(rules).run(eg)
            results.append(eg.equiv(term, parse("(Get a 0)")))
        assert results == [True, True]
