"""Unit tests for the e-graph core (repro.egraph.egraph)."""

import pytest

from repro.dsl import parse
from repro.egraph import EGraph, ENode


class TestAdd:
    def test_hashcons_dedupes(self):
        eg = EGraph()
        a = eg.add_term(parse("(+ 1 2)"))
        b = eg.add_term(parse("(+ 1 2)"))
        assert eg.find(a) == eg.find(b)

    def test_distinct_terms_distinct_classes(self):
        eg = EGraph()
        a = eg.add_term(parse("(+ 1 2)"))
        b = eg.add_term(parse("(+ 2 1)"))
        assert eg.find(a) != eg.find(b)

    def test_subterms_get_classes(self):
        eg = EGraph()
        eg.add_term(parse("(+ (Get a 0) 2)"))
        assert eg.lookup_term(parse("(Get a 0)")) is not None
        assert eg.lookup_term(parse("2")) is not None

    def test_num_nodes_and_classes(self):
        eg = EGraph()
        eg.add_term(parse("(+ 1 2)"))
        # Nodes: 1, 2, (+ 1 2); plus Num/Symbol leaves counted once each.
        assert eg.num_classes == 3
        assert eg.num_nodes == 3

    def test_contains(self):
        eg = EGraph()
        eg.add_term(parse("(* (Get a 0) 3)"))
        assert parse("(Get a 0)") in eg
        assert parse("(Get a 1)") not in eg

    def test_version_monotone(self):
        eg = EGraph()
        v0 = eg.version
        eg.add_term(parse("(+ 1 2)"))
        assert eg.version == v0 + 3
        eg.add_term(parse("(+ 1 2)"))  # fully memoized
        assert eg.version == v0 + 3


class TestUnionRebuild:
    def test_union_then_find(self):
        eg = EGraph()
        a = eg.add_term(parse("(+ x 0)"))
        b = eg.add_term(parse("x"))
        assert eg.union(a, b)
        eg.rebuild()
        assert eg.find(a) == eg.find(b)

    def test_union_same_class_returns_false(self):
        eg = EGraph()
        a = eg.add_term(parse("x"))
        assert not eg.union(a, a)

    def test_congruence_propagates_upward(self):
        """If x == y then f(x) == f(y) after rebuilding."""
        eg = EGraph()
        fx = eg.add_term(parse("(neg x)"))
        fy = eg.add_term(parse("(neg y)"))
        x = eg.add_term(parse("x"))
        y = eg.add_term(parse("y"))
        assert eg.find(fx) != eg.find(fy)
        eg.union(x, y)
        eg.rebuild()
        assert eg.find(fx) == eg.find(fy)

    def test_congruence_cascades(self):
        """Congruence closure is transitive through layers."""
        eg = EGraph()
        ffx = eg.add_term(parse("(neg (neg x))"))
        ffy = eg.add_term(parse("(neg (neg y))"))
        eg.union(eg.add_term(parse("x")), eg.add_term(parse("y")))
        eg.rebuild()
        assert eg.find(ffx) == eg.find(ffy)

    def test_union_merges_node_lists(self):
        eg = EGraph()
        a = eg.add_term(parse("(+ x 0)"))
        b = eg.add_term(parse("x"))
        eg.union(a, b)
        eg.rebuild()
        ops = {n.op for n in eg.nodes_of(a)}
        assert ops == {"+", "Symbol"}

    def test_equiv(self):
        eg = EGraph()
        a = eg.add_term(parse("(+ x 0)"))
        b = eg.add_term(parse("x"))
        assert not eg.equiv(parse("(+ x 0)"), parse("x"))
        eg.union(a, b)
        eg.rebuild()
        assert eg.equiv(parse("(+ x 0)"), parse("x"))

    def test_rebuild_dedupes_nodes_in_class(self):
        """After a union makes two nodes congruent, the surviving class
        stores the canonical node once."""
        eg = EGraph()
        na = eg.add_term(parse("(neg x)"))
        nb = eg.add_term(parse("(neg y)"))
        eg.union(eg.add_term(parse("x")), eg.add_term(parse("y")))
        eg.union(na, nb)
        eg.rebuild()
        nodes = eg.nodes_of(na)
        assert len(nodes) == len(set(nodes))
        assert len([n for n in nodes if n.op == "neg"]) == 1


class TestOpIndex:
    def test_classes_with_op_finds_all(self):
        eg = EGraph()
        eg.add_term(parse("(+ 1 2)"))
        eg.add_term(parse("(+ 3 4)"))
        eg.add_term(parse("(* 1 2)"))
        assert len(eg.classes_with_op("+")) == 2
        assert len(eg.classes_with_op("*")) == 1
        assert eg.classes_with_op("VecAdd") == []

    def test_index_survives_unions(self):
        eg = EGraph()
        a = eg.add_term(parse("(+ 1 2)"))
        b = eg.add_term(parse("(+ 3 4)"))
        eg.union(a, b)
        eg.rebuild()
        found = eg.classes_with_op("+")
        assert found == [eg.find(a)]

    def test_index_ids_are_canonical(self):
        eg = EGraph()
        a = eg.add_term(parse("(neg x)"))
        b = eg.add_term(parse("y"))
        eg.union(a, b)
        eg.rebuild()
        for cid in eg.classes_with_op("neg"):
            assert eg.find(cid) == cid


class TestLookup:
    def test_lookup_missing(self):
        eg = EGraph()
        assert eg.lookup_term(parse("(+ 1 2)")) is None
        one = eg.add_term(parse("1"))
        assert eg.lookup(ENode("+", (one, one))) is None

    def test_lookup_after_union_is_canonical(self):
        eg = EGraph()
        a = eg.add_term(parse("(+ x 0)"))
        b = eg.add_term(parse("x"))
        eg.union(a, b)
        eg.rebuild()
        assert eg.lookup_term(parse("(+ x 0)")) == eg.find(b)

    def test_dump_mentions_classes(self):
        eg = EGraph()
        eg.add_term(parse("(+ 1 2)"))
        text = eg.dump()
        assert "e0" in text and "+" in text


class TestENode:
    def test_numerically_equal_literals_are_one_node(self):
        assert ENode("Num", (), 0) == ENode("Num", (), 0.0)
        assert hash(ENode("Num", (), 0)) == hash(ENode("Num", (), 0.0))
        eg = EGraph()
        assert eg.add(ENode("Num", (), 0)) == eg.add(ENode("Num", (), 0.0))
        assert eg.num_nodes == 1

    def test_immutable_and_without_instance_dict(self):
        node = ENode("+", (0, 1))
        with pytest.raises(AttributeError):
            node.op = "-"
        assert not hasattr(node, "__dict__")
        assert node == ENode(op="+", children=(0, 1), value=None)
        assert repr(node) == "ENode(op='+', children=(0, 1), value=None)"

    def test_pickle_round_trip(self):
        import pickle

        for node in (ENode("Symbol", (), "a"), ENode("VecMAC", (3, 4, 5))):
            clone = pickle.loads(pickle.dumps(node))
            assert clone == node and type(clone) is ENode
            assert hash(clone) == hash(node)

    def test_canonicalize_reads_the_root_array(self):
        eg = EGraph()
        a, b = eg.add(ENode("Symbol", (), "a")), eg.add(ENode("Symbol", (), "b"))
        node = ENode("+", (a, b))
        assert node.canonicalize(eg.uf) is node
        eg.union(a, b)
        root = eg.find(a)
        assert node.canonicalize(eg.uf) == ENode("+", (root, root))
