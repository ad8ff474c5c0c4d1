"""Property-based tests of the real-arithmetic canonicalizer: its
verdicts must agree with concrete evaluation on random inputs."""

import random
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.dsl import evaluate
from repro.dsl.ast import Term, get, num
from repro.validation import CanonOverflow, equivalent

_leaves = st.one_of(
    st.integers(min_value=-2, max_value=2).map(num),
    st.tuples(st.sampled_from(["x", "y"]), st.integers(0, 3)).map(
        lambda p: get(*p)
    ),
)


def _compound(children):
    return st.builds(
        lambda op, l, r: Term(op, (l, r)),
        st.sampled_from(["+", "-", "*"]),
        children,
        children,
    )


_exprs = st.recursive(_leaves, _compound, max_leaves=8)

_ENVS = [
    {"x": [1.0, -2.0, 0.5, 3.0], "y": [2.0, 0.25, -1.0, 1.5]},
    {"x": [0.0, 1.0, 2.0, 3.0], "y": [-1.0, -2.0, -3.0, -4.0]},
    {"x": [7.0, 11.0, 13.0, 17.0], "y": [19.0, 23.0, 29.0, 31.0]},
]


class TestCanonAgreesWithEvaluation:
    @given(_exprs, _exprs)
    @settings(max_examples=80, deadline=None)
    def test_equivalent_implies_equal_values(self, e1, e2):
        try:
            verdict = equivalent(e1, e2)
        except CanonOverflow:
            assume(False)
        for env in _ENVS:
            v1 = evaluate(e1, env)
            v2 = evaluate(e2, env)
            if verdict:
                assert abs(v1 - v2) < 1e-6 * max(1.0, abs(v1)), (
                    f"canon says equal, values differ: {e1} vs {e2}"
                )

    @given(_exprs)
    @settings(max_examples=60, deadline=None)
    def test_reflexive(self, e):
        try:
            assert equivalent(e, e)
        except CanonOverflow:
            assume(False)

    @given(_exprs, _exprs)
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, e1, e2):
        try:
            assert equivalent(e1, e2) == equivalent(e2, e1)
        except CanonOverflow:
            assume(False)

    @given(_exprs, _exprs)
    @settings(max_examples=60, deadline=None)
    def test_commuted_sum_always_equivalent(self, e1, e2):
        try:
            assert equivalent(Term("+", (e1, e2)), Term("+", (e2, e1)))
        except CanonOverflow:
            assume(False)

    @given(_exprs, _exprs, _exprs)
    @settings(max_examples=40, deadline=None)
    def test_distributivity_recognized(self, a, b, c):
        lhs = Term("*", (a, Term("+", (b, c))))
        rhs = Term("+", (Term("*", (a, b)), Term("*", (a, c))))
        try:
            assert equivalent(lhs, rhs)
        except CanonOverflow:
            assume(False)

    @given(_exprs)
    @settings(max_examples=40, deadline=None)
    def test_value_separation(self, e):
        """An expression is never canonically equal to itself plus 1."""
        bumped = Term("+", (e, num(1)))
        try:
            assert not equivalent(e, bumped)
        except CanonOverflow:
            assume(False)


# ---------------------------------------------------------------------------
# Exact-arithmetic oracle over the whole rational fragment
# ---------------------------------------------------------------------------

_rational_leaves = st.one_of(
    st.integers(min_value=-3, max_value=3).map(num),
    st.sampled_from([0.25, 0.1, -1.5]).map(num),
    st.tuples(st.sampled_from(["x", "y"]), st.integers(0, 2)).map(
        lambda p: get(*p)
    ),
)


def _rational_compound(children):
    return st.one_of(
        st.builds(
            lambda op, l, r: Term(op, (l, r)),
            st.sampled_from(["+", "-", "*", "/"]),
            children,
            children,
        ),
        children.map(lambda a: Term("neg", (a,))),
    )


_rational_exprs = st.recursive(_rational_leaves, _rational_compound, max_leaves=8)


def _variant(term, draw, near=False):
    """An equal term: each node may be rewritten by a real-arithmetic
    identity, several of which route through non-integral literals.
    With ``near``, a node may also be squared, which in general makes
    the terms differ."""
    if not term.args:
        return term
    args = tuple(_variant(a, draw, near) for a in term.args)
    op = term.op
    rewrite = draw(st.integers(0, 4 if near else 3))
    if rewrite == 4:
        return Term("*", (Term(op, args), Term(op, args)))
    if op in ("+", "*") and rewrite == 1:
        return Term(op, (args[1], args[0]))
    if op == "-" and rewrite == 1:
        return Term("+", (args[0], Term("neg", (args[1],))))
    if op == "/" and rewrite == 1:
        return Term("*", (args[0], Term("/", (num(1), args[1]))))
    if rewrite == 2:
        return Term("-", (Term("+", (Term(op, args), num(0.5))), num(0.5)))
    if rewrite == 3:
        return Term("*", (Term("*", (Term(op, args), num(0.25))), num(4)))
    return Term(op, args)


@st.composite
def _rational_pairs(draw):
    e1 = draw(_rational_exprs)
    kind = draw(st.sampled_from(["equal", "near", "independent"]))
    if kind == "independent":
        return e1, draw(_rational_exprs)
    return e1, _variant(e1, draw, near=kind == "near")


def _exact_value(term, point):
    """Evaluate with Fraction arithmetic (raises ZeroDivisionError)."""
    op = term.op
    if op == "Num":
        return Fraction(term.value)
    if op == "Get":
        return point[(term.args[0].value, term.args[1].value)]
    if op == "neg":
        return -_exact_value(term.args[0], point)
    a, b = (_exact_value(arg, point) for arg in term.args)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b


#: Random integer points; a zero denominator skips the point.
_POINTS = [
    {(name, i): Fraction(rng.randint(-1000, 1000)) for name in "xy" for i in range(3)}
    for rng in [random.Random(seed) for seed in range(8)]
]


class TestCanonExactOracle:
    @given(_rational_pairs())
    @settings(max_examples=150, deadline=None)
    def test_verdict_agrees_with_exact_evaluation(self, pair):
        e1, e2 = pair
        try:
            verdict = equivalent(e1, e2)
        except (CanonOverflow, ZeroDivisionError):
            assume(False)
        agree = []
        for point in _POINTS:
            try:
                agree.append(_exact_value(e1, point) == _exact_value(e2, point))
            except ZeroDivisionError:
                continue
        assume(agree)
        if verdict:
            assert all(agree), f"canon says equal, values differ: {e1} vs {e2}"
        else:
            assert not all(agree), f"canon says unequal, values agree: {e1} vs {e2}"
