"""Incremental (dirty-set) e-matching: exactness, counters, dedup,
checkpoint stride, and the live node counter.

The load-bearing property (ISSUE 3): for every rule, a search
restricted to classes dirtied since the rule's last *completed* search
reports exactly the matches a full rescan would, modulo matches it
already reported (canonicalized).  E-graphs are monotone -- terms and
equalities are never removed -- so

    canon(full_i)  ==  canon(incr_i)  |  canon_at_i(full_{i-1})

must hold at every iteration of a saturation run, for randomized
kernels from the fuzz generator.
"""

import random

import pytest

from repro.egraph import (
    EGraph,
    MatchCounters,
    Runner,
    ematch,
    pattern,
)
from repro.egraph.egraph import ENode
from repro.egraph.extract import Extractor
from repro.egraph.rewrite import CustomRewrite, Match, rewrite
from repro.egraph.scheduler import BackoffScheduler, Deadline
from repro.kernels import get_kernel
from repro.rules import build_ruleset
from repro.validation.fuzz import random_spec


def _canon_matches(egraph, found):
    """Canonicalize (class, subst) pairs into a comparable set."""
    return {
        (
            egraph.find(cid),
            tuple(sorted((k, egraph.find(v)) for k, v in subst.items())),
        )
        for cid, subst in found
    }


_PATTERNS = [
    "(+ ?a ?b)",
    "(* ?a ?b)",
    "(+ ?a 0)",
    "(* ?a (+ ?b ?c))",
]


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_incremental_ematch_equals_full_rescan(seed):
    """Per-iteration dirty-set match sets union previously-seen ones to
    exactly the full-rescan sets, across unions and rebuilds."""
    rng = random.Random(seed)
    spec = random_spec(rng, index=seed, max_inputs=3, max_input_len=8)
    egraph = EGraph()
    egraph.add_term(spec.term)
    rules = build_ruleset(width=4)
    pats = [pattern(p) for p in _PATTERNS]
    cursors = {i: 0 for i in range(len(pats))}
    previous = {i: set() for i in range(len(pats))}

    for _ in range(6):
        # Check the property for every probe pattern BEFORE mutating.
        for i, pat in enumerate(pats):
            tick_before = egraph.tick
            full = _canon_matches(egraph, ematch(egraph, pat))
            incr_counters = MatchCounters()
            incr = _canon_matches(
                egraph,
                ematch(
                    egraph, pat, since=cursors[i], counters=incr_counters
                ),
            )
            assert incr_counters.completed
            recanon_prev = {
                (egraph.find(cid), tuple((k, egraph.find(v)) for k, v in s))
                for cid, s in previous[i]
            }
            assert incr | recanon_prev == full, (
                f"pattern {pat} diverged at tick {tick_before}"
            )
            cursors[i] = tick_before
            previous[i] = full

        # One saturation iteration's worth of mutation.
        runner = Runner(rules, iter_limit=1, node_limit=20_000)
        runner.run(egraph)


def _seed0_stress_specs():
    """Two larger random kernels, fuzz-0 then fuzz-1, drawn in order
    from one seed-0 generator."""
    rng = random.Random(0)
    specs = [
        random_spec(rng, index=i, max_inputs=3, max_input_len=8, max_outputs=8)
        for i in range(2)
    ]
    return {spec.name: spec for spec in specs}


def _end_to_end_spec(case):
    """A small random kernel for an int seed, a seed-0 stress kernel,
    or a paper kernel by name."""
    if isinstance(case, int):
        rng = random.Random(case)
        return random_spec(rng, index=case, max_inputs=2, max_input_len=6)
    if case.startswith("fuzz-"):
        return _seed0_stress_specs()[case]
    return get_kernel(case).spec()


def _saturate(spec, incremental):
    egraph = EGraph()
    root = egraph.add_term(spec.term)
    runner = Runner(
        build_ruleset(width=4),
        iter_limit=15,
        node_limit=30_000,
        incremental=incremental,
    )
    return egraph, root, runner.run(egraph)


@pytest.mark.parametrize(
    "case",
    [
        3,
        11,
        29,
        "matmul-2x2-2x2",
        "matmul-2x3-3x3",
        "2dconv-3x3-2x2",
        "2dconv-3x3-3x3",
        "fuzz-0",
        "fuzz-1",
    ],
)
def test_incremental_runner_matches_full_rescan_end_to_end(case):
    """Full pipeline equivalence: saturating with dirty-set matching
    (custom vector searchers included) extracts the identical term at
    the identical cost, and grows the identical e-graph."""
    spec = _end_to_end_spec(case)

    results = {}
    for incremental in (True, False):
        egraph, root, report = _saturate(spec, incremental)
        extraction = Extractor(egraph).extract(root)
        results[incremental] = (
            extraction.term,
            extraction.cost,
            egraph.num_nodes,
            egraph.num_classes,
            report.stop_reason,
        )

    assert results[True] == results[False]


def _classes_visited(report):
    return sum(s.classes_visited for s in report.rule_stats.values())


def test_incremental_visits_fewer_classes():
    """On a multi-iteration run the dirty-set matcher must examine
    strictly fewer candidate classes than a full rescan (the counters
    are deterministic, so this cannot flake)."""
    rng = random.Random(5)
    spec = random_spec(rng, index=5, max_inputs=3, max_input_len=8)
    visited = {}
    for incremental in (True, False):
        _, _, report = _saturate(spec, incremental)
        visited[incremental] = _classes_visited(report)
        if incremental:
            skipped = sum(
                s.classes_skipped for s in report.rule_stats.values()
            )
            assert skipped > 0
            assert any(it.skipped > 0 for it in report.iterations)
    assert visited[True] < visited[False]


def test_full_rescan_visits_at_least_twice_the_classes():
    """On the largest quick paper kernel, 2dconv-3x3-3x3, the dirty-set
    matcher examines at most half the candidate classes a full rescan
    does (3,793 against 18,201)."""
    spec = get_kernel("2dconv-3x3-3x3").spec()
    visited = {}
    for incremental in (True, False):
        _, _, report = _saturate(spec, incremental)
        visited[incremental] = _classes_visited(report)
    assert visited[False] >= 2 * visited[True]


def test_matcher_counters_deterministic():
    """The per-rule visited/skipped counters are pure functions of the
    kernel: two incremental saturations of 2dconv-3x3-3x3 agree on them
    exactly, and on the e-graph and extracted cost."""
    spec = get_kernel("2dconv-3x3-3x3").spec()
    runs = []
    for _ in range(2):
        egraph, root, report = _saturate(spec, incremental=True)
        counters = {
            name: (s.classes_visited, s.classes_skipped)
            for name, s in report.rule_stats.items()
        }
        runs.append(
            (
                counters,
                egraph.num_nodes,
                egraph.num_classes,
                Extractor(egraph).extract(root).cost,
            )
        )
    assert runs[0] == runs[1]


def test_truncated_search_does_not_advance_cursor():
    """A deadline-truncated search must leave the rule's high-water
    mark untouched so the unexamined matches are found next time."""
    egraph = EGraph()
    a = egraph.add(ENode("Symbol", (), "a"))
    zero = egraph.add(ENode("Num", (), 0))
    egraph.add(ENode("+", (a, zero)))
    scheduler = BackoffScheduler(incremental=True)
    rule = rewrite("plus-zero", "(+ ?x 0)", "?x")

    expired = Deadline(at=0.0)
    matches = scheduler.search_rewrite(0, egraph, rule, deadline=expired)
    assert matches == []
    assert scheduler.rule_stats(rule.name).last_search_tick == 0

    matches = scheduler.search_rewrite(1, egraph, rule)
    assert len(matches) == 1
    assert scheduler.rule_stats(rule.name).last_search_tick > 0


def test_banned_rule_does_not_advance_cursor():
    """Backoff-banned matches are discarded; advancing the cursor past
    them would lose them forever once the ban lifts."""
    egraph = EGraph()
    a = egraph.add(ENode("Symbol", (), "a"))
    zero = egraph.add(ENode("Num", (), 0))
    for i in range(4):
        s = egraph.add(ENode("Symbol", (), f"s{i}"))
        egraph.add(ENode("+", (s, zero)))
    egraph.add(ENode("+", (a, zero)))
    scheduler = BackoffScheduler(match_limit=4, incremental=True)
    rule = rewrite("plus-zero", "(+ ?x 0)", "?x")

    assert scheduler.search_rewrite(0, egraph, rule) == []  # banned
    stats = scheduler.rule_stats(rule.name)
    assert stats.times_banned == 1
    assert stats.last_search_tick == 0  # cursor held back

    # Once the ban lifts the full set is still reported.
    later = stats.banned_until
    matches = scheduler.search_rewrite(later, egraph, rule)
    assert len(matches) == 5


def test_scheduler_resets_cursors_on_new_graph():
    """Cursors refer to one graph's tick clock; reusing the scheduler
    on a different graph must start from a full rescan."""
    rule = rewrite("plus-zero", "(+ ?x 0)", "?x")
    scheduler = BackoffScheduler(incremental=True)

    g1 = EGraph()
    a = g1.add(ENode("Symbol", (), "a"))
    zero = g1.add(ENode("Num", (), 0))
    g1.add(ENode("+", (a, zero)))
    assert len(scheduler.search_rewrite(0, g1, rule)) == 1
    assert scheduler.rule_stats(rule.name).last_search_tick > 0

    g2 = EGraph()
    b = g2.add(ENode("Symbol", (), "b"))
    zero2 = g2.add(ENode("Num", (), 0))
    g2.add(ENode("+", (b, zero2)))
    # Without the identity check the stale cursor would hide this match.
    assert len(scheduler.search_rewrite(0, g2, rule)) == 1


def test_periodic_full_rescan_safeguard():
    """Every ``rescan_stride`` searches the cursor is ignored once."""
    egraph = EGraph()
    a = egraph.add(ENode("Symbol", (), "a"))
    zero = egraph.add(ENode("Num", (), 0))
    egraph.add(ENode("+", (a, zero)))
    scheduler = BackoffScheduler(incremental=True, rescan_stride=3)
    rule = rewrite("plus-zero", "(+ ?x 0)", "?x")
    for i in range(7):
        scheduler.search_rewrite(i, egraph, rule)
    stats = scheduler.rule_stats(rule.name)
    # Searches 1, 4, 7 are full rescans (first ever + every third).
    assert stats.full_rescans == 3


def test_match_dedup_skips_repeat_applications():
    """A saturated rule's matches are applied once; later iterations
    drop them via the seen-set (visible in IterationReport.deduped)."""
    rng = random.Random(9)
    spec = random_spec(rng, index=9, max_inputs=2, max_input_len=6)
    egraph = EGraph()
    root = egraph.add_term(spec.term)
    runner = Runner(
        build_ruleset(width=4),
        iter_limit=15,
        node_limit=30_000,
        incremental=False,  # full rescan re-reports everything...
        dedup_matches=True,  # ...and the dedup layer drops the repeats
    )
    report = runner.run(egraph)
    assert sum(it.deduped for it in report.iterations) > 0

    # Dedup must not change the outcome.
    egraph2 = EGraph()
    root2 = egraph2.add_term(spec.term)
    Runner(
        build_ruleset(width=4),
        iter_limit=15,
        node_limit=30_000,
        incremental=False,
        dedup_matches=False,
    ).run(egraph2)
    assert (
        Extractor(egraph, ).extract(root).term
        == Extractor(egraph2).extract(root2).term
    )


def test_live_node_counter_matches_recount():
    """num_nodes is maintained incrementally through add/union/repair;
    it must always agree with an O(classes) recount."""
    rng = random.Random(13)
    spec = random_spec(rng, index=13, max_inputs=3, max_input_len=8)
    egraph = EGraph()
    egraph.add_term(spec.term)
    assert egraph.num_nodes == egraph.recount_nodes()
    runner = Runner(build_ruleset(width=4), iter_limit=10, node_limit=30_000)
    runner.run(egraph)
    assert egraph.num_nodes == egraph.recount_nodes()
    snapshot = egraph.copy()
    assert snapshot.num_nodes == snapshot.recount_nodes() == egraph.num_nodes


def test_deadline_polled_inside_single_class():
    """One huge class must not blow past the budget: the gate is polled
    inside match_in_class, not just between candidate classes."""
    egraph = EGraph()
    ids = [egraph.add(ENode("Symbol", (), f"s{i}")) for i in range(400)]
    target = ids[0]
    for other in ids[1:]:
        egraph.union(target, other)
    egraph.rebuild()
    # The merged class now holds 400 nodes; match a variable pattern
    # against it with an already-expired deadline.
    counters = MatchCounters()
    found = ematch(
        egraph,
        pattern("(+ ?a ?b)"),
        deadline=Deadline(at=0.0),
        counters=counters,
    )
    assert found == []
    # Nothing to find here anyway; now add + nodes and verify the
    # expired deadline truncates and reports incompleteness.
    zero = egraph.add(ENode("Num", (), 0))
    for i in range(100):
        egraph.add(ENode("+", (ids[0], zero)))
    counters = MatchCounters()
    found = ematch(
        egraph,
        pattern("(+ ?a ?b)"),
        deadline=Deadline(at=0.0),
        counters=counters,
    )
    assert not counters.completed


def test_old_style_custom_searchers_keep_working():
    """One-argument custom searchers (no SearchContext) full-scan and
    still participate in incremental runs unchanged."""
    seen = []

    def searcher(eg):
        seen.append(eg.num_classes)
        return []

    rule = CustomRewrite("legacy", searcher)
    assert rule._takes_context is False
    egraph = EGraph()
    egraph.add(ENode("Symbol", (), "a"))
    scheduler = BackoffScheduler(incremental=True)
    for i in range(3):
        scheduler.search_rewrite(i, egraph, rule)
    assert len(seen) == 3
