"""Union-find (disjoint set) over dense integer ids.

This is the substrate of the e-graph: every e-class is a set of
congruent e-nodes, and merging two classes is a union operation.  Ids
are allocated densely by :meth:`UnionFind.make_set`, matching how the
e-graph mints e-class ids.

The parent array always names the root: ``parent[x]`` *is* ``x``'s
canonical id, so a lookup is one list index and hot loops bind
:attr:`UnionFind.parent` once and index it.  Each set keeps its members
on a circular list (``_next``); a union relabels the members of the
smaller set and splices the two circles by swapping two entries.  An id
is relabelled only when its set at least doubles, so at most log2(n)
times, and a run of unions costs O(n log n) in total.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["UnionFind"]


class UnionFind:
    """Disjoint sets over ``int`` ids ``0..n-1``."""

    __slots__ = ("_parent", "_size", "_next")

    def __init__(self) -> None:
        self._parent: List[int] = []
        #: Set size, kept current for roots only.
        self._size: List[int] = []
        #: The next member of each id's set: each set is one circle.
        self._next: List[int] = []

    def __len__(self) -> int:
        """Total number of ids ever created (not the number of sets)."""
        return len(self._parent)

    @property
    def parent(self) -> Sequence[int]:
        """The root array: ``parent[x] == find(x)`` for every id.

        The list itself, not a copy -- read it, never write it.  Unions
        update it in place, so a bound reference stays current for the
        life of this object."""
        return self._parent

    def copy(self) -> "UnionFind":
        """An independent snapshot (used by e-graph checkpointing)."""
        new = UnionFind()
        new._parent = list(self._parent)
        new._size = list(self._size)
        new._next = list(self._next)
        return new

    def make_set(self) -> int:
        """Create a fresh singleton set and return its id."""
        new_id = len(self._parent)
        self._parent.append(new_id)
        self._size.append(1)
        self._next.append(new_id)
        return new_id

    def find(self, x: int) -> int:
        """Return the canonical representative of ``x``'s set."""
        return self._parent[x]

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; return the surviving root.

        The larger set's root survives; on a tie, ``a``'s root does.
        When the two ids are already in the same set this is a no-op
        returning the shared root.
        """
        parent = self._parent
        ra, rb = parent[a], parent[b]
        if ra == rb:
            return ra
        size = self._size
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        nxt = self._next
        x = rb
        while True:
            parent[x] = ra
            x = nxt[x]
            if x == rb:
                break
        nxt[ra], nxt[rb] = nxt[rb], nxt[ra]
        size[ra] += size[rb]
        return ra

    def in_same_set(self, a: int, b: int) -> bool:
        return self._parent[a] == self._parent[b]

    def num_sets(self) -> int:
        """Number of distinct sets (linear scan; for tests/stats only)."""
        return sum(1 for i, p in enumerate(self._parent) if i == p)
