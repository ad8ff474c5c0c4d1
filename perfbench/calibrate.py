"""Machine-speed calibration for shared, noisy hosts.

Other tenants of a shared machine change how much CPU throughput a
run gets, by up to 2x within minutes, and that shift moves every wall
time alike.  The benchmark therefore times a fixed pure-Python probe
-- hash-consing, union-find and object allocation over a few MB, the
same kind of work e-graph code does -- between units of measured work,
and scales each measured duration by ``REFERENCE_S / probe time``
around it.  The probe lives in the benchmark, not the compiler, so a
change to the compiler cannot change it: a compiler that gets 10%
slower still reads 10% slower, while a machine that gets slower does
not.  Raw wall times are kept in the report beside the scaled ones.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List, Tuple

#: Probe time the scaled durations are expressed against: roughly the
#: probe's time on an unloaded 2.1 GHz Xeon core.
REFERENCE_S = 0.035


class _Node:
    __slots__ = ("op", "children", "cls")

    def __init__(self, op: int, children: Tuple[int, int], cls: int) -> None:
        self.op = op
        self.children = children
        self.cls = cls


def probe(steps: int = 20_000) -> float:
    """Seconds one fixed run of the probe takes right now.

    The cyclic garbage collector is off while it runs: a collection
    triggered inside the probe would cost time in proportion to the
    benchmark's heap, not to the machine's speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _probe(steps)
    finally:
        if enabled:
            gc.enable()


def _probe(steps: int) -> float:
    start = time.perf_counter()
    rng = random.Random(5)
    memo = {}
    nodes: List[_Node] = []
    parent = list(range(4096))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(steps):
        a = find(rng.randrange(4096))
        b = find(rng.randrange(4096))
        key = (i % 7, a, b)
        if key not in memo:
            memo[key] = len(nodes)
            nodes.append(_Node(i % 7, (a, b), a))
        elif i % 5 == 0 and a != b:
            parent[max(a, b)] = min(a, b)
    for node in nodes[::3]:
        node.cls = find(node.cls)
    return time.perf_counter() - start


class Calibrator:
    """Probes the machine between units of work, at most every
    ``interval`` seconds, and scales durations by the probes around
    them."""

    def __init__(self, interval: float = 0.5) -> None:
        self.interval = interval
        self.samples: List[Tuple[float, float]] = []

    def measure(self) -> None:
        seconds = probe()
        self.samples.append((time.perf_counter(), seconds))

    def maybe_measure(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.interval:
            self.measure()

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean probe time of the last probe
        before ``start`` and the first probe after ``end``."""
        before = [s for t, s in self.samples if t <= start]
        after = [s for t, s in self.samples if t >= end]
        around = before[-1:] + after[:1] or [s for _, s in self.samples]
        return REFERENCE_S / statistics.mean(around)

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)
