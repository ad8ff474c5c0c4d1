"""Property-based tests of the full pipeline: for randomly generated
small kernels, saturation + extraction + lowering + simulation must
reproduce the reference semantics exactly.

This is the strongest invariant in the system -- it exercises the
rewrite rules, cost model, extractor, gather planner, LVN, and
simulator together on shapes no hand-written test enumerates.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.compiler import CompileOptions, compile_spec
from repro.costs import DiospyrosCostModel
from repro.dsl import evaluate_output
from repro.dsl.ast import Term, get, lst, num
from repro.egraph import EGraph, Extractor, Runner
from repro.frontend.lift import ArrayDecl, Spec
from repro.machine import simulate
from repro.rules import build_ruleset
from repro.validation import validate

ARRAY_LEN = 8

_leaves = st.one_of(
    st.integers(min_value=0, max_value=2).map(num),
    st.tuples(
        st.sampled_from(["a", "b"]), st.integers(0, ARRAY_LEN - 1)
    ).map(lambda p: get(*p)),
)


def _compound(children):
    ops = st.sampled_from(["+", "-", "*"])
    return st.builds(
        lambda op, l, r: Term(op, (l, r)), ops, children, children
    )


_scalar_exprs = st.recursive(_leaves, _compound, max_leaves=6)

_specs = st.lists(_scalar_exprs, min_size=1, max_size=9).map(
    lambda elements: Spec(
        "prop",
        (ArrayDecl("a", ARRAY_LEN), ArrayDecl("b", ARRAY_LEN)),
        (ArrayDecl("o", len(elements)),),
        lst(*elements),
    )
)

_ENV = {
    "a": [1.5, -2.0, 3.0, 0.5, -1.0, 2.5, 4.0, -0.25],
    "b": [0.5, 1.0, -3.0, 2.0, 1.25, -0.75, 0.125, 5.0],
}

_OPTIONS = CompileOptions(
    time_limit=3.0, node_limit=20_000, iter_limit=20, validate=False
)


class TestPipelineSemantics:
    @given(_specs)
    @settings(max_examples=30, deadline=None)
    def test_compile_simulate_matches_interpreter(self, spec):
        expected = evaluate_output(spec.term, _ENV)
        result = compile_spec(spec, _OPTIONS)
        sim = simulate(result.program, _ENV)
        actual = sim.output("out")
        assert len(actual) == len(expected)
        for a, b in zip(actual, expected):
            assert abs(a - b) <= 1e-6 * max(1.0, abs(b))

    @given(_specs)
    @settings(max_examples=20, deadline=None)
    def test_saturation_preserves_extractable_semantics(self, spec):
        """Whatever term extraction picks, it evaluates like the spec
        (rule soundness, end to end)."""
        eg = EGraph()
        root = eg.add_term(spec.term)
        Runner(build_ruleset(4), iter_limit=15, node_limit=15_000).run(eg)
        term = Extractor(eg, DiospyrosCostModel()).extract(root).term
        expected = evaluate_output(spec.term, _ENV)
        actual = evaluate_output(term, _ENV)
        for a, b in zip(expected, actual[: len(expected)]):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    @given(_specs)
    @settings(max_examples=15, deadline=None)
    def test_translation_validation_accepts_compiler_output(self, spec):
        eg = EGraph()
        root = eg.add_term(spec.term)
        Runner(build_ruleset(4), iter_limit=15, node_limit=15_000).run(eg)
        term = Extractor(eg, DiospyrosCostModel()).extract(root).term
        assert validate(spec, term).ok

    @given(_specs)
    @settings(max_examples=15, deadline=None)
    def test_lvn_preserves_semantics(self, spec):
        result = compile_spec(spec, _OPTIONS)
        raw, opt = result.program_unoptimized, result.program
        assert simulate(raw, _ENV).output("out") == simulate(
            opt, _ENV
        ).output("out")
        assert len(opt) <= len(raw)
