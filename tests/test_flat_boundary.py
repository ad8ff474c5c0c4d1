"""The phase boundary as a flat node list (egg's ``RecExpr``), checked
against the ``Term`` round trip it replaced, and the extractor's op-cost
table checked against ``node_cost``.

The previous recursive ``EGraph._add_term`` and the ``Term`` version of
``op_counts`` are kept below as references.  On saturated random
e-graphs and on every round of a phased compile, a program extracted as
a node list must seed a fresh graph into exactly the state the
reference builds from its term, give the same op histogram, and compare
equal to another extraction exactly when their terms do.  The table
must price every node bit for bit as ``node_cost`` does, and a tie
between a table-priced node and a ``Vec`` priced by the hook goes to
the node evaluated first.  CI also runs this file under a second hash
seed: memo and op-index layouts must not depend on string hashing.
"""

import random
import struct

import pytest

from repro.compiler import CompileOptions, compile_spec
from repro.costs import (
    CostConfig,
    DiospyrosCostModel,
    ScalarOnlyCostModel,
    TermSizeCostModel,
)
from repro.dsl.ast import Term
from repro.egraph import CostFunction, EGraph, Extractor, Runner
from repro.egraph.egraph import ENode, build_term, flatten_term
from repro.kernels import get_kernel
from repro.phases import default_plan, op_counts
from repro.phases.execute import biased_cost
from repro.rules import build_ruleset
from repro.validation.fuzz import random_spec


def reference_add_term(egraph, term):
    """The previous ``EGraph.add_term``: recursive, post-order with
    arguments left to right, memoized by structural equality, one
    :meth:`EGraph.add` per distinct subterm."""
    return _reference_add(egraph, term, {})


def _reference_add(egraph, t, cache):
    hit = cache.get(t)
    if hit is not None:
        return hit
    children = tuple(_reference_add(egraph, a, cache) for a in t.args)
    cid = egraph.add(ENode(t.op, children, t.value))
    cache[t] = cid
    return cid


def reference_op_counts(term):
    """The previous ``op_counts``: the operator histogram over a term's
    unique subterms."""
    counts = {}
    seen = set()
    stack = [term]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        counts[current.op] = counts.get(current.op, 0) + 1
        stack.extend(current.args)
    return counts


def node_by_node(egraph, nodes):
    """A node list inserted through :meth:`EGraph.add` one node at a
    time: the hashcons path."""
    ids = []
    for node in nodes:
        ids.append(egraph.add(ENode(node.op, tuple(ids[i] for i in node.children), node.value)))
    return ids[-1]


def graph_state(egraph):
    """Every field a seed writes, in iteration order where order is
    observable (dicts by insertion, sets by their table layout)."""
    uf = egraph.uf
    return {
        "uf": (list(uf._parent), list(uf._size), list(uf._next)),
        "memo": list(egraph._memo.items()),
        "classes": [
            (cid, c.id, list(c.nodes), list(c.parents), c.modified_at)
            for cid, c in egraph.class_table.items()
        ],
        "op_index": [(op, list(ids)) for op, ids in egraph._op_index.items()],
        "op_clean": dict(egraph._op_clean),
        "counters": (egraph.tick, egraph.version, egraph._n_nodes),
        "pending": (list(egraph._pending), sorted(egraph._dirty_pending)),
    }


def _seeded_state(seed, reference):
    egraph = EGraph()
    root = reference(egraph, seed) if reference else egraph.add_term(seed)
    return root, graph_state(egraph)


# ------------------------------------------------------------ the graphs


def _cost_models():
    """The shipped models, and the Diospyros model under every default
    phase's sketch bias."""
    models = [DiospyrosCostModel(), ScalarOnlyCostModel(), TermSizeCostModel()]
    models += [biased_cost(DiospyrosCostModel(), p.sketch) for p in default_plan(4).phases]
    return models


def _random_graphs():
    """Saturated e-graphs of seeded random kernels: unions and rebuilds
    included, as every exit from ``Runner.run`` leaves them."""
    graphs = []
    for seed in (1, 4, 7, 12):
        spec = random_spec(random.Random(seed), index=seed, max_inputs=3, max_input_len=6)
        egraph = EGraph()
        root = egraph.add_term(spec.term)
        Runner(build_ruleset(width=4), iter_limit=6, node_limit=4_000).run(egraph)
        graphs.append((egraph, root))
    return graphs


@pytest.fixture(scope="module")
def random_graphs():
    return _random_graphs()


@pytest.fixture(scope="module")
def phased_rounds():
    """``(egraph copy, root, cost function, extraction)`` for every
    extraction of a phased 2dconv-3x3-2x2 compile, and every seed of
    it as ``(input, root, state)``."""
    extractions, seeds = [], []
    extract, add_term = Extractor.extract, EGraph.add_term

    def recording_extract(self, eclass_id):
        result = extract(self, eclass_id)
        extractions.append((self.egraph.copy(), eclass_id, self.cost_function, result))
        return result

    def recording_add_term(self, seed):
        fresh = self.version == 0
        root = add_term(self, seed)
        if fresh:
            seeds.append((seed, root, graph_state(self)))
        return root

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Extractor, "extract", recording_extract)
        patch.setattr(EGraph, "add_term", recording_add_term)
        result = compile_spec(
            get_kernel("2dconv-3x3-2x2").spec(),
            CompileOptions(time_limit=None, validate=False, phases="on", seed=0),
        )
    rounds = sum(len(p.rounds) for p in result.phases.phases)
    assert len(seeds) == rounds > 1
    return extractions, seeds


# ----------------------------------------------- flat list == term trip


def _check_extraction(result, other_results):
    term = result.term
    assert term is result.term, "the term is built once"
    assert result.nodes == flatten_term(term)
    assert _seeded_state(result.nodes, None) == _seeded_state(term, reference_add_term)
    assert _seeded_state(term, None) == _seeded_state(term, reference_add_term)
    assert op_counts(result.nodes) == reference_op_counts(term)
    for other in other_results:
        assert (result.nodes == other.nodes) == (term == other.term)


def test_random_graphs_flat_extraction_equals_term_round_trip(random_graphs):
    equal_pairs = unequal_pairs = 0
    for egraph, root in random_graphs:
        results = []
        for cost in _cost_models():
            result = Extractor(egraph, cost).extract(root)
            _check_extraction(result, results)
            equal_pairs += sum(result.nodes == r.nodes for r in results)
            unequal_pairs += sum(result.nodes != r.nodes for r in results)
            results.append(result)
    assert equal_pairs and unequal_pairs


def test_phased_compile_rounds_flat_extraction_equals_term_round_trip(phased_rounds):
    extractions, _ = phased_rounds
    results = []
    for _, _, _, result in extractions:
        _check_extraction(result, results)
        results.append(result)


def test_phased_compile_seeds_equal_reference_seeds(phased_rounds):
    """Each round's fresh graph -- the spec term for the first, the
    previous round's node list after it -- is the graph the reference
    builds from the same program as a term."""
    _, seeds = phased_rounds
    assert isinstance(seeds[0][0], Term)
    assert all(isinstance(seed, list) for seed, _, _ in seeds[1:])
    for seed, root, state in seeds:
        term = seed if isinstance(seed, Term) else build_term(seed)
        assert (root, state) == _seeded_state(term, reference_add_term)


def test_repeated_node_takes_the_hashcons_path():
    """A list whose node repeats cannot be seeded class per node; it
    goes through ``add``, as does any list added to a non-empty graph."""
    repeated = [
        ENode("Symbol", (), "a"),
        ENode("Symbol", (), "a"),
        ENode("+", (0, 1)),
    ]
    root, state = _seeded_state(repeated, None)
    assert (root, state) == _seeded_state(repeated, node_by_node)
    assert state["classes"][1][2] == [ENode("+", (0, 0))]

    term = Term("*", (Term("Symbol", value="b"), Term("Num", value=2)))
    busy, reference = EGraph(), EGraph()
    for egraph, add in ((busy, EGraph.add_term), (reference, reference_add_term)):
        add(egraph, Term("Num", value=2))
        add(egraph, term)
    assert graph_state(busy) == graph_state(reference)


def test_flatten_dedups_structurally_equal_objects():
    """Distinct but equal subterm objects are one node, as they are one
    class to the hashcons."""
    a1, a2 = Term("Symbol", value="a"), Term("Symbol", value="a")
    pair = Term("+", (Term("neg", (a1,)), Term("neg", (a2,))))
    assert flatten_term(pair) == [
        ENode("Symbol", (), "a"),
        ENode("neg", (0,)),
        ENode("+", (1, 1)),
    ]
    shared = build_term(flatten_term(pair))
    assert shared == pair and shared.args[0] is shared.args[1]


# --------------------------------------------- cost table == node_cost


def _bits(x):
    return struct.pack("<d", x)


def _table_cost(entry, child_costs):
    constant, penalty = entry
    cost = constant + sum(child_costs)
    if penalty:
        cost += penalty
    return cost


def _check_table(egraph, cost, rng):
    """Every node with finished children, at its children's extracted
    costs and at random ones: the table's price is ``node_cost``'s."""
    extractor = Extractor(egraph, cost)
    table = cost.op_costs()
    priced = 0
    for eclass in egraph.class_table.values():
        for node in eclass.nodes:
            if node.op not in table:
                continue
            actual = [extractor.best_cost(c) for c in node.children]
            drawn = [rng.uniform(0.0, 50.0) for _ in node.children]
            for child_costs in (actual, drawn):
                if None in child_costs:
                    continue
                assert _bits(_table_cost(table[node.op], child_costs)) == _bits(
                    cost.node_cost(extractor, node, child_costs)
                ), (type(cost).__name__, node)
                priced += 1
    return priced


def test_table_prices_match_node_cost_on_random_graphs(random_graphs):
    rng = random.Random(0)
    for egraph, _ in random_graphs:
        for cost in _cost_models():
            assert _check_table(egraph, cost, rng) > 0


def test_table_prices_match_node_cost_on_phased_rounds(phased_rounds):
    extractions, _ = phased_rounds
    rng = random.Random(1)
    for egraph, _, cost, _ in extractions:
        for model in [cost] + _cost_models():
            assert _check_table(egraph, model, rng) > 0


def test_table_prices_match_node_cost_on_drawn_costs():
    """Every entry of every table at child costs drawn across
    magnitudes, where a different float association of the constant,
    the children and the penalty would show in the last bit."""
    rng = random.Random(2)
    for cost in _cost_models():
        for op, entry in cost.op_costs().items():
            for _ in range(300):
                arity = 0 if op in ("Num", "Symbol") else rng.randint(1, 4)
                child_costs = [rng.uniform(0.0, 10.0 ** rng.randint(-1, 3)) for _ in range(arity)]
                node = ENode(op, tuple(range(arity)))
                assert _bits(_table_cost(entry, child_costs)) == _bits(
                    cost.node_cost(None, node, child_costs)
                ), (type(cost).__name__, op, child_costs)


class _HookOnly(CostFunction):
    """A model with its table taken away: every node through
    ``node_cost``, the extractor's path before the table."""

    def __init__(self, model):
        self.model = model

    def node_cost(self, extractor, node, child_costs):
        return self.model.node_cost(extractor, node, child_costs)


def _fixpoint(extractor):
    return [None if c is None else _bits(c) for c in extractor._cost], extractor._choice


def test_table_and_hook_reach_the_same_fixpoint(random_graphs, phased_rounds):
    """The extractor priced from the table and the same model through
    ``node_cost`` alone agree on every class's cost, bit for bit, and
    on every choice."""
    graphs = [(egraph, root, _cost_models()) for egraph, root in random_graphs]
    graphs += [(egraph, root, [cost]) for egraph, root, cost, _ in phased_rounds[0]]
    for egraph, root, models in graphs:
        for model in models:
            table, hook = Extractor(egraph, model), Extractor(egraph, _HookOnly(model))
            assert _fixpoint(table) == _fixpoint(hook)
            assert table.extract(root).nodes == hook.extract(root).nodes


def test_vec_stays_on_the_hook_unless_rewarded():
    assert "Vec" not in DiospyrosCostModel().op_costs()
    layout = biased_cost(DiospyrosCostModel(), default_plan(4).phases[0].sketch)
    assert layout.op_costs()["Vec"] == (layout.REWARD_MARGINAL, 0.0)


# ----------------------------------------------------------- tie-break


#: Literals cost 1 and both a pure-literal Vec (hook) and a List
#: (table) cost 3 plus their children: exactly equal.
_TIE = CostConfig(literal=1.0, vec_literal=3.0, structure=3.0)


def _tied_class(first):
    """A class holding ``List(z, z)`` and ``Vec(z, z)``, ``first`` of
    them first in its node list."""
    egraph = EGraph()
    zero = egraph.add(ENode("Num", (), 0))
    ids = {op: egraph.add(ENode(op, (zero, zero))) for op in ("List", "Vec")}
    other = "Vec" if first == "List" else "List"
    egraph.union(ids[first], ids[other])
    egraph.rebuild()
    root = egraph.find(ids[first])
    assert [n.op for n in egraph.class_table[root].nodes] == [first, other]
    return egraph, root


@pytest.mark.parametrize("first", ["List", "Vec"])
def test_tie_between_table_and_hook_goes_to_the_first_node(first):
    egraph, root = _tied_class(first)
    extractor = Extractor(egraph, DiospyrosCostModel(_TIE))
    assert extractor.best_cost(root) == 5.0
    assert extractor.best_node(root).op == first


@pytest.mark.parametrize("first", ["List", "Vec"])
def test_tie_reached_through_the_worklist_goes_to_the_first_node(first):
    """The tied class comes first in the class table, before its
    child has a cost: both its nodes wait, are re-queued in class
    order when the child gets its cost, and the first one re-evaluated
    keeps the class."""
    egraph = EGraph()
    child = egraph.add(ENode("Symbol", (), "c"))
    ids = {op: egraph.add(ENode(op, (child, child))) for op in ("List", "Vec")}
    other = "Vec" if first == "List" else "List"
    egraph.union(ids[first], ids[other])
    # Merged into a later class, the child moves behind the tied one.
    late = egraph.add(ENode("Num", (), 0))
    egraph.union(late, child)
    egraph.rebuild()
    root = egraph.find(ids[first])
    assert list(egraph.class_table) == [root, late]
    assert [n.op for n in egraph.class_table[root].nodes] == [first, other]
    extractor = Extractor(egraph, DiospyrosCostModel(_TIE))
    assert extractor.best_cost(root) == 5.0
    assert extractor.best_node(root).op == first
