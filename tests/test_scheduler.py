"""Tests for the backoff scheduler, cooperative deadlines, and the
Runner's stop reasons (including the fault-tolerance stop reason)."""

import time
import tracemalloc

import pytest

from repro.dsl import parse
from repro.egraph import (
    BackoffScheduler,
    CustomRewrite,
    Deadline,
    EGraph,
    ENode,
    Match,
    Runner,
    StopReason,
    rewrite,
)


def _graph_with_add0_sites(n):
    """An e-graph holding ``n`` distinct ``(+ xi 0)`` terms, i.e. ``n``
    match sites for the ``add-0`` rule."""
    eg = EGraph()
    for i in range(n):
        eg.add_term(parse(f"(+ x{i} 0)"))
    return eg


def _counter_rule(sleep=0.0):
    """A rule that genuinely grows the graph every iteration (unions the
    largest literal's class with a fresh literal one larger)."""

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
            yield Match(cid, lambda e, v=value: e.add(ENode("Num", (), v + 1)))

    return CustomRewrite("counter", searcher)


class TestDeadline:
    def test_none_never_expires(self):
        d = Deadline.after(None)
        assert not d.expired()
        assert d.remaining() == float("inf")

    def test_zero_expires_immediately(self):
        assert Deadline.after(0).expired()

    def test_future_deadline(self):
        d = Deadline.after(60.0)
        assert not d.expired()
        assert 0 < d.remaining() <= 60.0


class TestBackoffScheduler:
    def test_overflow_bans_and_escalates(self):
        eg = _graph_with_add0_sites(5)
        rule = rewrite("add-0", "(+ ?a 0)", "?a")
        sched = BackoffScheduler(match_limit=3, ban_length=2)

        assert sched.search_rewrite(0, eg, rule) == []  # 5 > 3: banned
        stats = sched.stats["add-0"]
        assert stats.times_banned == 1
        assert stats.banned_until == 0 + 1 + 2
        assert stats.applied == 0

        assert sched.search_rewrite(1, eg, rule) == []  # banned: skipped
        assert sched.search_rewrite(2, eg, rule) == []
        assert stats.skipped == 2

        # Unbanned at iteration 3, and the threshold doubled to 6 >= 5.
        matches = sched.search_rewrite(3, eg, rule)
        assert len(matches) == 5
        assert stats.applied == 5
        assert stats.times_banned == 1

    def test_match_limit_none_never_bans(self):
        eg = _graph_with_add0_sites(50)
        rule = rewrite("add-0", "(+ ?a 0)", "?a")
        sched = BackoffScheduler(match_limit=None)
        assert len(sched.search_rewrite(0, eg, rule)) == 50
        assert sched.stats["add-0"].times_banned == 0

    def test_can_stop_fast_forwards_bans(self):
        eg = _graph_with_add0_sites(5)
        rule = rewrite("add-0", "(+ ?a 0)", "?a")
        sched = BackoffScheduler(match_limit=3, ban_length=10)
        sched.search_rewrite(0, eg, rule)
        stats = sched.stats["add-0"]
        assert stats.banned_at(1)

        # A run with a banned rule has not saturated; the ban is
        # fast-forwarded so the rule fires on the very next iteration.
        assert not sched.can_stop(0)
        assert not stats.banned_at(1)
        assert sched.can_stop(0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BackoffScheduler(match_limit=0)
        with pytest.raises(ValueError):
            BackoffScheduler(ban_length=0)


class TestRunnerBackoff:
    def test_ban_unban_cycle_in_real_run(self):
        """The explosive rule is banned, skipped for the ban window,
        then fires once its (doubled) budget accommodates it."""
        eg = _graph_with_add0_sites(10)
        report = Runner(
            [rewrite("add-0", "(+ ?a 0)", "?a"), _counter_rule()],
            match_limit=6,
            iter_limit=9,
            node_limit=100_000,
        ).run(eg)

        stats = report.rule_stats["add-0"]
        assert stats.times_banned == 1  # 10 > 6 on iteration 0
        assert stats.skipped == 5  # default ban_length
        assert stats.applied >= 10  # fired after the ban expired
        assert report.banned_rules() == ["add-0"]
        assert "backoff banned" in report.summary()
        # The rewrite really happened once unbanned.
        assert eg.equiv(parse("(+ x0 0)"), parse("x0"))

    def test_banned_rule_defers_saturation(self):
        """With nothing else driving growth, a banned rule cannot let
        the runner declare saturation; the ban is fast-forwarded and the
        rule eventually fires."""
        eg = _graph_with_add0_sites(10)
        report = Runner(
            [rewrite("add-0", "(+ ?a 0)", "?a")],
            match_limit=3,
            iter_limit=30,
        ).run(eg)
        assert report.stop_reason == StopReason.SATURATED
        assert eg.equiv(parse("(+ x0 0)"), parse("x0"))
        assert report.rule_stats["add-0"].times_banned >= 1


class TestRunnerStopReasons:
    def test_saturated(self):
        eg = EGraph()
        eg.add_term(parse("(+ (+ x 0) 0)"))
        report = Runner([rewrite("add-0", "(+ ?a 0)", "?a")]).run(eg)
        assert report.stop_reason == StopReason.SATURATED

    def test_iteration_limit(self):
        eg = EGraph()
        eg.add_term(parse("0"))
        report = Runner([_counter_rule()], iter_limit=3, node_limit=10_000).run(eg)
        assert report.stop_reason == StopReason.ITERATION_LIMIT
        assert len(report.iterations) == 3

    def test_node_limit(self):
        eg = EGraph()
        eg.add_term(parse("0"))
        report = Runner([_counter_rule()], node_limit=20, iter_limit=1000).run(eg)
        assert report.stop_reason == StopReason.NODE_LIMIT
        assert report.timed_out

    def test_time_limit_between_iterations(self):
        eg = EGraph()
        eg.add_term(parse("0"))
        report = Runner(
            [_counter_rule(sleep=0.02)],
            iter_limit=1_000_000,
            node_limit=10_000_000,
            time_limit=0.2,
        ).run(eg)
        assert report.stop_reason == StopReason.TIME_LIMIT

    def test_mid_search_timeout_applies_nothing(self):
        """When the deadline fires during search, the iteration's
        matches are discarded: the graph keeps its last rebuilt state."""
        eg = EGraph()
        root = eg.add_term(parse("(+ x 0)"))

        def slow_searcher(egr):
            time.sleep(0.2)
            for m in rewrite("add-0", "(+ ?a 0)", "?a").search(egr):
                yield m

        report = Runner(
            [CustomRewrite("slow-add-0", slow_searcher)], time_limit=0.05
        ).run(eg)
        assert report.stop_reason == StopReason.TIME_LIMIT
        assert report.iterations == []
        assert not eg.equiv(parse("(+ x 0)"), parse("x"))
        assert root == eg.find(root)

    def test_slow_search_stops_within_twice_the_limit(self):
        """Cooperative deadlines: an explosive searcher that would run
        for seconds yields mid-rule, bounding overshoot."""
        eg = EGraph()
        cid = eg.add_term(parse("x"))

        def endless_searcher(egr):
            while True:
                time.sleep(0.005)
                yield Match(cid, lambda e: None)

        time_limit = 0.3
        start = time.perf_counter()
        report = Runner(
            [CustomRewrite("endless", endless_searcher)], time_limit=time_limit
        ).run(eg)
        elapsed = time.perf_counter() - start
        assert report.stop_reason == StopReason.TIME_LIMIT
        assert elapsed < 2 * time_limit

    def test_memory_limit(self):
        eg = _graph_with_add0_sites(200)
        tracemalloc.start()
        try:
            report = Runner(
                [rewrite("add-0", "(+ ?a 0)", "?a")],
                memory_limit_bytes=1,
                iter_limit=5,
            ).run(eg)
        finally:
            tracemalloc.stop()
        assert report.stop_reason == StopReason.MEMORY_LIMIT
        assert report.timed_out

    def test_zero_iteration_run_summary(self):
        eg = EGraph()
        eg.add_term(parse("0"))
        report = Runner([_counter_rule()], iter_limit=0).run(eg)
        assert report.stop_reason == StopReason.ITERATION_LIMIT
        assert report.iterations == []
        assert "stopped before the first iteration" in report.summary()

    def test_zero_budget_reports_time_limit(self):
        eg = EGraph()
        eg.add_term(parse("0"))
        report = Runner([_counter_rule()], iter_limit=0, time_limit=0).run(eg)
        assert report.stop_reason == StopReason.TIME_LIMIT
        assert "time_limit" in report.summary()


class TestRunnerErrorRecovery:
    @staticmethod
    def _crash_on_second_search():
        calls = {"n": 0}

        def searcher(eg):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("injected searcher crash")
            return iter(())

        return CustomRewrite("crashy", searcher)

    def test_searcher_crash_preserves_prior_work(self):
        eg = EGraph()
        eg.add_term(parse("(+ x 0)"))
        report = Runner(
            [rewrite("add-0", "(+ ?a 0)", "?a"), self._crash_on_second_search()]
        ).run(eg)
        assert report.stop_reason == StopReason.ERROR
        assert report.errored
        assert report.failed_rule == "crashy"
        assert "RuntimeError" in report.error
        assert "error in crashy" in report.summary()
        # Iteration 0's union survived the iteration-1 crash.
        assert eg.equiv(parse("(+ x 0)"), parse("x"))

    def test_applier_crash_rebuilds_consistent_graph(self):
        eg = EGraph()
        cid = eg.add_term(parse("(+ x 0)"))

        def bad_build(e):
            raise RuntimeError("injected applier crash")

        def searcher(egr):
            yield Match(cid, bad_build)

        report = Runner(
            [rewrite("add-0", "(+ ?a 0)", "?a"), CustomRewrite("bad-applier", searcher)]
        ).run(eg)
        assert report.stop_reason == StopReason.ERROR
        assert report.failed_rule == "bad-applier"
        # add-0's matches were applied before the crash and the handler
        # rebuilt, so the surviving graph reflects them consistently.
        assert eg.equiv(parse("(+ x 0)"), parse("x"))

    def test_rule_stats_exposed_in_report(self):
        eg = EGraph()
        eg.add_term(parse("(+ (+ x 0) 0)"))
        report = Runner([rewrite("add-0", "(+ ?a 0)", "?a")]).run(eg)
        assert "add-0" in report.rule_stats
        assert report.rule_stats["add-0"].matches >= 1
        assert report.rule_stats["add-0"].search_time >= 0.0
