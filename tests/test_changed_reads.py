"""The ``Vec`` searchers' candidate filter (``EGraph.changed_reads``).

On an incremental search, ``vec-binop``, ``vec-unop`` and ``vec-mac``
search a ``Vec`` class only if a ``Vec`` node arrived in it after the
rule's cursor, or a class at most ``NEAR_RADIUS`` levels below one of
its width-``w`` ``Vec`` nodes' lanes changed after it.  Everywhere else
they would read the same nodes and canonical ids as at their last
completed search, so they would find only matches whose effects the
runner has already applied.

The audit checks exactly that on whole runs: at every incremental
``vec-*`` search, the matches of the candidates the filter drops carry
dedup keys, canonicalized at search time, that are already in the
runner's applied set.  The boundary cases pin each condition of the
filter on hand-built graphs.
"""

import random

import pytest

from repro.compiler import CompileOptions, compile_spec
from repro.dsl.parser import parse
from repro.egraph import EGraph, MatchCounters, Runner
from repro.egraph.egraph import NEAR_RADIUS
from repro.egraph.rewrite import CustomRewrite
from repro.kernels import get_kernel
from repro.rules import build_ruleset
from repro.rules.mac import mac_rule
from repro.validation.fuzz import random_spec

# ---------------------------------------------------------------- the audit


class _Audit:
    """Patches the ``vec-*`` searchers so that the filter keeps every
    candidate, then drops the filtered candidates' matches itself after
    checking their keys.  One search per rule, as without the audit,
    so the operator index is rebuilt as often and the run takes the
    same trajectory."""

    def __init__(self, monkeypatch):
        self.applied = {}
        self.dropped = frozenset()
        self.checked = 0
        self.searches = 0
        real_loop = Runner._loop
        real_reads = EGraph.changed_reads
        real_search = CustomRewrite.search

        def loop(runner, egraph, report, scheduler, deadline, applied_keys, *rest):
            self.applied[egraph] = applied_keys
            return real_loop(runner, egraph, report, scheduler, deadline, applied_keys, *rest)

        def changed_reads(egraph, candidates, op, arity, since, counters=None):
            kept = real_reads(egraph, candidates, op, arity, since, counters)
            self.dropped = frozenset(candidates) - frozenset(kept)
            return list(candidates)

        def search(rule, egraph, deadline=None, since=None, counters=None):
            self.dropped = frozenset()
            matches = real_search(rule, egraph, deadline, since, counters)
            if since is None or not rule.name.startswith("vec-"):
                return matches
            self.searches += 1
            self._check(egraph, matches)
            return [m for m in matches if m.eclass not in self.dropped]

        monkeypatch.setattr(Runner, "_loop", loop)
        monkeypatch.setattr(EGraph, "changed_reads", changed_reads)
        monkeypatch.setattr(CustomRewrite, "search", search)

    def _check(self, egraph, matches):
        applied = self.applied[egraph]
        root_of = egraph.uf.parent.__getitem__
        for match in matches:
            if match.eclass in self.dropped:
                ids, extra = match.dedup_key
                key = (match.rule_name, extra, *map(root_of, ids))
                assert key in applied, f"dropped a match with a new key: {match!r}"
                self.checked += 1


def _saturate(spec):
    egraph = EGraph()
    root = egraph.add_term(spec.term)
    report = Runner(build_ruleset(width=4), iter_limit=15, node_limit=30_000).run(egraph)
    rows = [
        (it.matches, it.applied, it.unions, it.nodes, it.classes, it.visited, it.skipped)
        for it in report.iterations
    ]
    return report.stop_reason, rows, egraph.dump()


def _compile(name, phases):
    options = CompileOptions(time_limit=None, validate=False, phases=phases, seed=0)
    result = compile_spec(get_kernel(name).spec(), options)
    assert (result.phases is not None) == (phases == "on")
    rows = [
        (it.matches, it.applied, it.unions, it.nodes, it.visited, it.skipped)
        for it in result.report.iterations
    ]
    return result.program.fingerprint(), result.report.stop_reason, rows


def _random_spec(seed):
    return random_spec(random.Random(seed), index=seed, max_inputs=3, max_input_len=8)


@pytest.mark.parametrize(
    "case",
    [0, 7, 9, 11, ("qprod-4-3-4-3", "off"), ("2dconv-3x3-3x3", "off"), ("2dconv-3x3-2x2", "on")],
    ids=str,
)
def test_dropped_candidates_yield_only_applied_keys(monkeypatch, case):
    """At every incremental ``vec-*`` search, each match the filter
    drops has a key the runner has already applied, and the audited
    run takes the same trajectory as the plain one."""
    if isinstance(case, int):
        run = lambda: _saturate(_random_spec(case))  # noqa: E731
    else:
        run = lambda: _compile(*case)  # noqa: E731
    plain = run()
    with monkeypatch.context() as patch:
        audit = _Audit(patch)
        audited = run()
    assert audited == plain
    assert audit.searches > 0
    assert audit.checked > 0


# ---------------------------------------------------------- boundary cases

WIDTH = 4
MAC = mac_rule(WIDTH)


def _add(egraph, text):
    return egraph.add_term(parse(text))


def _keys(egraph, matches):
    """The matches' dedup keys, canonicalized now, as the runner does."""
    root_of = egraph.uf.parent.__getitem__
    return {
        (m.rule_name, m.dedup_key[1], *map(root_of, m.dedup_key[0])) for m in matches
    }


def _search(egraph, since):
    counters = MatchCounters()
    matches = MAC.search(egraph, since=since, counters=counters)
    return matches, counters


def _filtered(egraph, since):
    """Which ``Vec`` classes the dirty-set filter passes, and which of
    them ``changed_reads`` keeps."""
    dirty = egraph.classes_with_op("Vec", since=since)
    return dirty, egraph.changed_reads(dirty, "Vec", WIDTH, since)


def _mac_graph(lane):
    """A graph holding ``(Vec lane 0 0 0)``; its class id and the
    full-search matches."""
    egraph = EGraph()
    vec = _add(egraph, f"(Vec {lane} 0 0 0)")
    matches, _ = _search(egraph, None)
    assert matches, "the vec-mac searcher must match the hand-built lane"
    return egraph, vec, matches


def test_gaining_only_a_vecmac_node_skips_the_class():
    """A union that pours a ``VecMAC`` node into a ``Vec`` class changes
    nothing the searcher reads: the class is dropped, its matches are
    the ones it had, and the drop is credited as skipped."""
    egraph, vec, before = _mac_graph("(+ (Get a 0) (* (Get b 0) (Get c 0)))")
    mac = _add(egraph, "(VecMAC (Vec 1 1 1 1) (Vec 2 2 2 2) (Vec 3 3 3 3))")
    since = egraph.tick
    assert egraph.union(vec, mac)
    egraph.rebuild()
    root = egraph.find(vec)

    dirty, kept = _filtered(egraph, since)
    assert dirty == [root]
    assert kept == []
    matches, counters = _search(egraph, since)
    assert matches == []
    assert (counters.visited, counters.skipped) == (0, 4)
    # Exact: a full search finds the same effects as before the union.
    assert _keys(egraph, MAC.search(egraph)) == _keys(egraph, before)


def test_gaining_a_vec_node_searches_the_class():
    """A union that brings in a width-``w`` ``Vec`` node, whose lanes
    are all older than the cursor, is searched, and yields the new
    node's matches."""
    egraph, vec, before = _mac_graph("(+ (Get a 0) (* (Get b 0) (Get c 0)))")
    other = _add(egraph, "(Vec (* (Get b 1) (Get c 1)) 0 0 0)")
    since = egraph.tick
    assert egraph.union(vec, other)
    egraph.rebuild()
    root = egraph.find(vec)

    dirty, kept = _filtered(egraph, since)
    assert root in dirty
    assert kept == [root]
    matches, counters = _search(egraph, since)
    assert counters.visited == 1
    assert _keys(egraph, matches) - _keys(egraph, before)


def _merge_symbols(egraph, new_name, old_name):
    """Union a fresh ``Symbol new_name`` class with the ``Symbol
    old_name`` class, the fresh class winning, so a ``Get`` of
    ``old_name`` now reads ``new_name`` first.  Returns the tick
    before the union."""
    fresh = _add(egraph, new_name)
    since = egraph.tick
    target = egraph.lookup_term(parse(old_name))
    assert egraph.union(fresh, target) and egraph.find(target) == fresh
    egraph.rebuild()
    return since


def test_symbol_merge_at_the_radius_searches_the_class():
    """``vec-mac`` sorts a lane's product operands by their ``Get``
    array names, three levels below the lane.  Renaming ``b`` so that
    it sorts after ``c`` makes a new sorted match: the class must be
    searched."""
    egraph, vec, before = _mac_graph("(+ (Get a 0) (* (Get b 0) (Get c 0)))")
    assert NEAR_RADIUS == 3
    since = _merge_symbols(egraph, "d", "b")

    _, kept = _filtered(egraph, since)
    assert kept == [egraph.find(vec)]
    matches, _ = _search(egraph, since)
    new = _keys(egraph, matches) - _keys(egraph, before)
    assert [key[0] for key in new] == ["vec-mac-sorted"]


def test_symbol_merge_past_the_radius_skips_the_class():
    """The same merge one level deeper, under a ``neg``, is past what
    the searcher reads: the class is dropped, and rightly so."""
    egraph, vec, before = _mac_graph("(+ (Get a 0) (* (neg (Get b 0)) (Get c 0)))")
    since = _merge_symbols(egraph, "d", "b")

    dirty, kept = _filtered(egraph, since)
    assert dirty == [egraph.find(vec)]
    assert kept == []
    matches, counters = _search(egraph, since)
    assert matches == []
    assert (counters.visited, counters.skipped) == (0, 1)
    assert _keys(egraph, MAC.search(egraph)) == _keys(egraph, before)


def test_dropped_candidates_move_from_visited_to_skipped():
    """``changed_reads`` keeps its candidates' order and moves each one
    it drops from ``visited`` to ``skipped``; the total is unchanged."""
    egraph = EGraph()
    old = [_add(egraph, f"(Vec (* (Get a {i}) (Get b {i})) 0 0 0)") for i in range(3)]
    since = egraph.tick
    new = _add(egraph, "(Vec (* (Get a 9) (Get b 9)) 0 0 0)")
    lane = egraph.lookup_term(parse("(* (Get a 1) (Get b 1))"))
    twin = _add(egraph, "(* (Get b 1) (Get a 1))")
    egraph.union(lane, twin)
    egraph.rebuild()

    counters = MatchCounters()
    dirty = egraph.classes_with_op("Vec", since=since, counters=counters)
    assert (counters.visited, counters.skipped) == (len(dirty), 4 - len(dirty))
    kept = egraph.changed_reads(dirty, "Vec", WIDTH, since, counters)
    assert kept == [cid for cid in dirty if cid in (egraph.find(old[1]), new)]
    assert len(kept) == 2
    assert (counters.visited, counters.skipped) == (2, 2)


def test_arity_other_than_the_width_is_not_read():
    """A changed lane of a ``Vec`` node of another width does not keep
    the class: the searchers read width-``w`` nodes only."""
    egraph = EGraph()
    vec = _add(egraph, "(Vec (* (Get a 0) (Get b 0)) 0)")
    since = egraph.tick
    lane = egraph.lookup_term(parse("(* (Get a 0) (Get b 0))"))
    egraph.union(lane, _add(egraph, "(* (Get b 0) (Get a 0))"))
    egraph.rebuild()
    assert egraph.changed_reads([vec], "Vec", 2, since) == [vec]
    assert egraph.changed_reads([vec], "Vec", WIDTH, since) == []


def test_copy_and_restore_carry_the_filter_state():
    """A copy answers as the original does; restoring it undoes later
    arrivals and stamps."""
    egraph, vec, _ = _mac_graph("(+ (Get a 0) (* (Get b 0) (Get c 0)))")
    other = _add(egraph, "(Vec (* (Get b 1) (Get c 1)) 0 0 0)")
    since = egraph.tick
    snapshot = egraph.copy()
    egraph.union(vec, other)
    egraph.rebuild()
    root = egraph.find(vec)
    assert egraph.changed_reads([root], "Vec", WIDTH, since) == [root]
    twin = egraph.copy()
    assert twin.changed_reads([root], "Vec", WIDTH, since) == [root]
    egraph.restore_from(snapshot)
    assert egraph.changed_reads([vec], "Vec", WIDTH, since) == []
