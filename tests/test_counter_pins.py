"""Saturation counters pinned to recorded values.

The engine's speed work must leave every match, union and emitted
program where it was: root choice in the union-find, match order and
dedup keys all feed these counters, so a drift in any of them fails
here by name.  The values were recorded with the path-halving
union-find and dataclass e-nodes; CI also runs this file under a
second hash seed, since dedup keys must not depend on string hashing.
The matches, deduped, visited and skipped columns were re-recorded
when the ``Vec`` searchers began skipping classes whose reads are
unchanged (``EGraph.changed_reads``); applied and unions did not move.
"""

import dataclasses

from repro.compiler import CompileOptions, compile_spec
from repro.kernels import get_kernel

#: (matches, applied, unions, deduped, visited, skipped) per iteration
#: of the monolithic 2dconv-3x3-3x3 compile.
CONV_3X3_3X3_ITERATIONS = [
    (1, 1, 1, 0, 848, 0),
    (20, 19, 19, 1, 22, 847),
    (41, 40, 34, 1, 121, 868),
    (76, 59, 35, 17, 167, 946),
    (124, 66, 41, 58, 263, 1012),
    (143, 70, 52, 73, 248, 1142),
    (229, 102, 48, 127, 306, 1201),
    (187, 82, 61, 105, 313, 1316),
    (216, 70, 32, 146, 273, 1396),
    (272, 76, 16, 196, 283, 1422),
    (70, 25, 18, 45, 103, 1630),
    (86, 20, 7, 66, 95, 1642),
    (91, 18, 0, 73, 85, 1652),
]

#: Phase -> one (round, stop_reason, iterations, seed_version,
#: final_version, node_limit, sketch_score, resumed_from) per round of
#: the phased 2dconv-8x8-4x4 compile.
CONV_8X8_4X4_ROUNDS = {
    "layout": [(0, "saturated", 2, 2074, 2135, 4000, 1.0, None)],
    "vectorize": [
        (0, "node_limit", 7, 2134, 4001, 4000, 1 / 768, None),
        (1, "node_limit", 10, 1395, 4001, 4000, 1 / 13, None),
        (2, "saturated", 4, 957, 1697, 4000, 1.0, None),
    ],
    "cleanup": [(0, "saturated", 4, 950, 1594, 4000, 1.0, None)],
}


def _compile(name):
    options = CompileOptions(time_limit=None, validate=False)
    return compile_spec(get_kernel(name).spec(), options)


def test_monolithic_iteration_counters():
    result = _compile("2dconv-3x3-3x3")
    assert result.phases is None
    assert result.report.stop_reason == "saturated"
    got = [
        (it.matches, it.applied, it.unions, it.deduped, it.visited, it.skipped)
        for it in result.report.iterations
    ]
    assert got == CONV_3X3_3X3_ITERATIONS


def test_phased_round_reports():
    result = _compile("2dconv-8x8-4x4")
    got = {
        phase.name: [
            tuple(
                value
                for key, value in dataclasses.asdict(rnd).items()
                if key != "elapsed"
            )
            for rnd in phase.rounds
        ]
        for phase in result.phases.phases
    }
    assert got == CONV_8X8_4X4_ROUNDS
