"""End-to-end tests of the compiler driver (repro.compiler)."""

import tracemalloc

import pytest

from repro.compiler import CompileOptions, compile_kernel, compile_spec
from repro.frontend import lift, random_inputs, run_reference
from repro.kernels import get_kernel
from repro.machine import simulate


def vector_add(a, b, o):
    for i in range(len(o)):
        o[i] = a[i] + b[i]


def four_dots(a, b, o):
    """Four independent 2-term dot products: one per vector lane."""
    for j in range(4):
        acc = 0.0
        for i in range(2):
            acc = acc + a[2 * j + i] * b[2 * j + i]
        o[j] = acc


class TestEndToEnd:
    def test_vector_add_vectorizes(self, fast_options):
        result = compile_kernel(
            "vadd", vector_add, [("a", 8), ("b", 8)], [("o", 8)], fast_options
        )
        hist = result.program.opcode_histogram()
        assert hist.get("vbin.+", 0) == 2
        assert hist.get("vload", 0) == 4
        sim = simulate(result.program, {"a": range(8), "b": range(8)})
        assert sim.output("out") == [2.0 * i for i in range(8)]

    def test_dot_products_use_mac(self, fast_options):
        result = compile_kernel(
            "dots", four_dots, [("a", 8), ("b", 8)], [("o", 4)], fast_options
        )
        sexpr = result.optimized.to_sexpr()
        assert "VecMAC" in sexpr
        sim = simulate(
            result.program, {"a": [1] * 8, "b": [1, 2, 3, 4, 5, 6, 7, 8]}
        )
        assert sim.output("out") == [3.0, 7.0, 11.0, 15.0]

    def test_single_dot_product_stays_scalar(self, fast_options):
        """A 1-output reduction cannot profitably vectorize without a
        horizontal-sum instruction (absent from the paper's DSL); the
        cost model must keep the scalar form."""

        def dot(a, b, o):
            acc = 0.0
            for i in range(4):
                acc = acc + a[i] * b[i]
            o[0] = acc

        result = compile_kernel(
            "dot", dot, [("a", 4), ("b", 4)], [("o", 1)], fast_options
        )
        assert result.optimized.op == "List"
        sim = simulate(result.program, {"a": [1, 2, 3, 4], "b": [5, 6, 7, 8]})
        assert sim.output("out")[0] == 70.0

    def test_result_fields_populated(self, fast_options):
        result = compile_kernel(
            "vadd", vector_add, [("a", 4), ("b", 4)], [("o", 4)], fast_options
        )
        assert result.compile_time > 0
        assert result.egraph_nodes > 0
        assert result.egraph_classes > 0
        assert result.cost > 0
        assert "PDX_" in result.c_code
        assert "vadd" in result.summary()
        assert not result.timed_out

    def test_validation_runs(self, validated_options):
        result = compile_kernel(
            "vadd", vector_add, [("a", 4), ("b", 4)], [("o", 4)], validated_options
        )
        assert result.validation is not None
        assert result.validated

    def test_track_memory(self):
        options = CompileOptions(
            time_limit=5, node_limit=10_000, validate=False, track_memory=True
        )
        result = compile_kernel(
            "vadd", vector_add, [("a", 4), ("b", 4)], [("o", 4)], options
        )
        assert result.peak_memory_bytes is not None
        assert result.peak_memory_bytes > 0

    def test_track_memory_keeps_a_running_trace(self):
        """A trace the caller started keeps running, and the reported
        peak is the compile's own, not the caller's 8 MB."""
        spec = get_kernel("matmul-2x2-2x2").spec()
        options = CompileOptions(time_limit=None, validate=False, track_memory=True)
        tracemalloc.start()
        try:
            held = bytearray(8 << 20)
            result = compile_spec(spec, options)
            assert tracemalloc.is_tracing()
            del held
        finally:
            tracemalloc.stop()
        assert 0 < result.peak_memory_bytes < 4 << 20

    def test_differential_against_reference(self, fast_options, rng):
        def kernel(a, b, o):
            for i in range(3):
                o[i] = a[i] * b[i] - a[(i + 1) % 3]

        spec = lift("k", kernel, [("a", 3), ("b", 3)], [("o", 3)])
        result = compile_spec(spec, fast_options)
        env = random_inputs(spec, rng)
        sim = simulate(result.program, env)
        expected = run_reference(kernel, spec, env)
        for got, want in zip(sim.output("out"), expected):
            assert abs(got - want) < 1e-9


class TestOptions:
    def test_vector_rules_disabled_yields_scalar(self, fast_options):
        from dataclasses import replace

        options = replace(fast_options, enable_vector_rules=False)
        result = compile_kernel(
            "vadd", vector_add, [("a", 8), ("b", 8)], [("o", 8)], options
        )
        hist = result.program.opcode_histogram()
        assert all(not op.startswith("v") for op in hist)

    def test_lvn_disabled_leaves_redundancy(self, fast_options):
        from dataclasses import replace

        def square_twice(a, o):
            o[0] = (a[0] + a[1]) * (a[0] + a[1])

        options = replace(fast_options, enable_vector_rules=False)
        result = compile_kernel("sq", square_twice, [("a", 2)], [("o", 1)], options)
        assert len(result.program_unoptimized) >= len(result.program)

    def test_select_best_candidate_never_worse(self, fast_options):
        from dataclasses import replace

        from repro.machine.config import static_cycles

        def sums(a, o):
            o[0] = (a[0] + a[1]) + (a[2] + a[3])

        base = compile_kernel("s", sums, [("a", 4)], [("o", 1)], fast_options)
        best = compile_kernel(
            "s", sums, [("a", 4)], [("o", 1)],
            replace(fast_options, select_best_candidate=True),
        )
        assert static_cycles(best.program) <= static_cycles(base.program)

    def test_custom_width(self, fast_options):
        from dataclasses import replace

        options = replace(fast_options, vector_width=2)
        result = compile_kernel(
            "vadd", vector_add, [("a", 4), ("b", 4)], [("o", 4)], options
        )
        assert result.program.vector_width == 2
        sim = simulate(result.program, {"a": [1, 2, 3, 4], "b": [4, 3, 2, 1]})
        assert sim.output("out") == [5.0] * 4

    def test_extra_rule_extension(self, fast_options):
        """The Section 6 portability recipe: add a recip rule and its
        catalogue entry, and the pipeline picks it up."""
        from dataclasses import replace

        from repro.egraph import rewrite

        recip_rule = rewrite("recip-intro", "(/ 1 ?x)", "(recip ?x)")
        options = replace(fast_options, extra_rules=(recip_rule,))

        def reciprocal(a, o):
            o[0] = 1.0 / a[0]

        spec = lift("rec", reciprocal, [("a", 1)], [("o", 1)])
        from repro.egraph import EGraph, Runner
        from repro.rules import build_ruleset

        eg = EGraph()
        eg.add_term(spec.term)
        Runner(build_ruleset(4, extra_rules=[recip_rule])).run(eg)
        from repro.dsl import parse

        assert eg.equiv(parse("(/ 1 (Get a 0))"), parse("(recip (Get a 0))"))

    def test_timeout_still_produces_code(self):
        """A starved budget must still emit a correct kernel
        (extraction from a partially saturated e-graph)."""
        options = CompileOptions(
            time_limit=0.0, node_limit=10, iter_limit=0, validate=False
        )
        result = compile_kernel(
            "vadd", vector_add, [("a", 4), ("b", 4)], [("o", 4)], options
        )
        sim = simulate(result.program, {"a": [1, 2, 3, 4], "b": [1, 1, 1, 1]})
        assert sim.output("out") == [2.0, 3.0, 4.0, 5.0]
