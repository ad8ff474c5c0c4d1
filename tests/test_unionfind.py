"""Unit tests for the union-find substrate (repro.egraph.unionfind)."""

import random

from repro.egraph import UnionFind


class PathHalvingUnionFind:
    """The previous implementation, kept as the reference: parent
    pointers with path halving and union by size, the larger set's
    root surviving and a tie going to ``a``'s root."""

    def __init__(self):
        self.parent = []
        self.size = []

    def make_set(self):
        self.parent.append(len(self.parent))
        self.size.append(1)
        return len(self.parent) - 1

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra


class TestBasics:
    def test_make_set_allocates_densely(self):
        uf = UnionFind()
        assert [uf.make_set() for _ in range(5)] == [0, 1, 2, 3, 4]
        assert len(uf) == 5

    def test_fresh_sets_are_their_own_roots(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        assert uf.find(a) == a
        assert uf.find(b) == b
        assert not uf.in_same_set(a, b)

    def test_union_merges(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        root = uf.union(a, b)
        assert uf.find(a) == uf.find(b) == root
        assert uf.in_same_set(a, b)

    def test_union_idempotent(self):
        uf = UnionFind()
        a, b = uf.make_set(), uf.make_set()
        first = uf.union(a, b)
        assert uf.union(a, b) == first
        assert uf.num_sets() == 1

    def test_union_transitive(self):
        uf = UnionFind()
        ids = [uf.make_set() for _ in range(4)]
        uf.union(ids[0], ids[1])
        uf.union(ids[2], ids[3])
        assert not uf.in_same_set(ids[0], ids[3])
        uf.union(ids[1], ids[2])
        assert uf.in_same_set(ids[0], ids[3])

    def test_num_sets(self):
        uf = UnionFind()
        ids = [uf.make_set() for _ in range(6)]
        assert uf.num_sets() == 6
        uf.union(ids[0], ids[1])
        uf.union(ids[0], ids[2])
        assert uf.num_sets() == 4


class TestStress:
    def test_random_unions_match_naive_model(self):
        """Differential test against a dict-of-sets model."""
        rng = random.Random(7)
        uf = UnionFind()
        n = 200
        ids = [uf.make_set() for _ in range(n)]
        labels = list(range(n))  # naive model: label per element

        for _ in range(300):
            a, b = rng.randrange(n), rng.randrange(n)
            uf.union(ids[a], ids[b])
            la, lb = labels[a], labels[b]
            if la != lb:
                labels = [la if l == lb else l for l in labels]

        for i in range(n):
            for j in range(i + 1, i + 5):
                if j >= n:
                    break
                assert uf.in_same_set(ids[i], ids[j]) == (labels[i] == labels[j])

    def test_long_chain_path_compression(self):
        uf = UnionFind()
        ids = [uf.make_set() for _ in range(1000)]
        for a, b in zip(ids, ids[1:]):
            uf.union(a, b)
        root = uf.find(ids[0])
        assert all(uf.find(i) == root for i in ids)
        assert uf.num_sets() == 1


class TestAgainstPathHalving:
    def test_roots_match_the_reference_after_every_union(self):
        """Root choice decides e-class ids, hence every later output:
        it must be exactly the path-halving reference's, union by
        union, with the root array always naming the root."""
        rng = random.Random(11)
        uf, ref = UnionFind(), PathHalvingUnionFind()
        for step in range(1500):
            if step % 3 == 0 or len(uf) < 2:
                assert uf.make_set() == ref.make_set()
            else:
                a, b = rng.randrange(len(uf)), rng.randrange(len(uf))
                assert uf.union(a, b) == ref.union(a, b)
            parent = uf.parent
            for x in range(len(uf)):
                assert parent[x] == uf.find(x) == ref.find(x)

    def test_copy_is_independent_and_keeps_unioning_the_same(self):
        rng = random.Random(5)
        uf, ref = UnionFind(), PathHalvingUnionFind()
        for _ in range(60):
            uf.make_set()
            ref.make_set()
        for _ in range(30):
            a, b = rng.randrange(60), rng.randrange(60)
            uf.union(a, b)
            ref.union(a, b)
        snapshot = uf.copy()
        before = list(uf.parent)
        for _ in range(30):
            a, b = rng.randrange(60), rng.randrange(60)
            assert snapshot.union(a, b) == ref.union(a, b)
        assert list(uf.parent) == before
        assert [snapshot.find(x) for x in range(60)] == [
            ref.find(x) for x in range(60)
        ]
