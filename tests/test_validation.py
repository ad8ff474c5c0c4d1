"""Unit tests for translation validation (repro.validation)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dsl import parse
from repro.dsl.ast import Term, concat, get, lst, num, vec
from repro.frontend import ArrayDecl, Spec, lift
from repro.validation import (
    CanonLimits,
    CanonOverflow,
    canonicalize,
    equivalent,
    flatten_to_scalars,
    validate,
)


class TestCanonEquivalence:
    EQUIVALENT = [
        ("(+ a b)", "(+ b a)"),
        ("(* a (+ b c))", "(+ (* a b) (* a c))"),
        ("(- a a)", "0"),
        ("(+ (+ a b) c)", "(+ a (+ b c))"),
        ("(* (Get x 0) 2)", "(+ (Get x 0) (Get x 0))"),
        ("(neg a)", "(- 0 a)"),
        ("(/ (* a b) b)", "a"),  # equal as rational functions
        ("(/ a 2)", "(* a 0.5)"),
        ("(- (* a a) (* b b))", "(* (+ a b) (- a b))"),
        ("(+ (/ a b) (/ c d))", "(/ (+ (* a d) (* c b)) (* b d))"),
        ("(sqrt (+ a b))", "(sqrt (+ b a))"),  # atom congruence
        ("(* (sgn a) (sgn a))", "(* (sgn a) (sgn a))"),
    ]

    @pytest.mark.parametrize("lhs,rhs", EQUIVALENT)
    def test_equivalent(self, lhs, rhs):
        assert equivalent(parse(lhs), parse(rhs))

    DIFFERENT = [
        ("(+ a b)", "(- a b)"),
        ("(* a a)", "a"),
        ("(/ a b)", "(/ b a)"),
        ("(Get x 0)", "(Get x 1)"),
        ("(Get x 0)", "(Get y 0)"),
        ("(sqrt a)", "(sqrt b)"),
        ("1", "2"),
    ]

    @pytest.mark.parametrize("lhs,rhs", DIFFERENT)
    def test_not_equivalent(self, lhs, rhs):
        assert not equivalent(parse(lhs), parse(rhs))

    def test_sqrt_is_uninterpreted_beyond_congruence(self):
        # sqrt(a)^2 == a holds for reals >= 0 but is NOT assumed.
        assert not equivalent(parse("(* (sqrt a) (sqrt a))"), parse("a"))

    def test_division_by_zero_polynomial(self):
        with pytest.raises(ZeroDivisionError):
            canonicalize(parse("(/ a (- b b))"))

    def test_overflow_raises(self):
        # (a+b+c+d)^16 has far more monomials than the limit allows.
        term = "(+ (+ a b) (+ c d))"
        for _ in range(4):
            term = f"(* {term} {term})"
        with pytest.raises(CanonOverflow):
            canonicalize(parse(term), CanonLimits(max_terms=50, max_work=10_000))

    def test_atom_key_limit(self):
        # sqrt of a polynomial with many monomials refuses to key.
        big = "(+ a b)"
        for _ in range(4):
            big = f"(* {big} (+ c {big}))"
        with pytest.raises(CanonOverflow):
            canonicalize(parse(f"(sqrt {big})"), CanonLimits(max_atom_key=4))

    def test_float_coefficients_exact(self):
        assert equivalent(parse("(* a 0.25)"), parse("(/ a 4)"))

    def test_float_coefficients_cancel_to_integers(self):
        assert equivalent(parse("(- (+ a 0.5) 0.5)"), parse("a"))
        assert equivalent(parse("(* (* a 0.25) 4)"), parse("a"))
        assert not equivalent(parse("(* a 0.1)"), parse("(/ a 10)"))

    def test_atom_keys_normalize_exactly(self):
        # Both sqrt arguments are a/(3b), so they key the same atom.
        # Scaling 11a/33b by a float 1/33 would give 0.33333333333333337
        # where a/3b gives 0.3333333333333333.
        assert equivalent(
            parse("(sqrt (/ (* 11 a) (* 33 b)))"), parse("(sqrt (/ a (* 3 b)))")
        )
        assert not equivalent(
            parse("(sqrt (/ a (* 3 b)))"), parse("(sqrt (/ a b))")
        )


def _dot_tree(lo, hi):
    """A balanced sum of the products a[i]*b[i] for lo <= i < hi."""
    if hi - lo == 1:
        return f"(* (Get a {lo}) (Get b {lo}))"
    mid = (lo + hi) // 2
    return f"(+ {_dot_tree(lo, mid)} {_dot_tree(mid, hi)})"


def _dot_mac(n):
    """The same dot product as a chain of multiply-accumulates."""
    term = "0"
    for i in range(n):
        term = f"(+ {term} (* (Get a {i}) (Get b {i})))"
    return term


class TestWorkAccounting:
    """The work charge decides which lanes fall back to randomized
    validation, so the smallest budget that proves each pair is pinned:
    a faster canonicalizer must charge exactly the same work."""

    PROBES = [
        ("dot16", _dot_tree(0, 16), _dot_mac(16), 903),
        (
            "float-literals",
            "(/ (+ (Get x 0) (* (Get x 1) 0.5)) 0.25)",
            "(+ (* 4 (Get x 0)) (* 2 (Get x 1)))",
            34,
        ),
        (
            "sqrt-congruence",
            "(* (sqrt (+ (Get x 0) (Get x 1))) (Get y 0))",
            "(* (Get y 0) (sqrt (+ (Get x 1) (Get x 0))))",
            26,
        ),
        (
            "nested-fraction",
            "(/ (Get x 0) (/ (Get x 1) (+ (Get x 2) 1)))",
            "(/ (* (Get x 0) (+ (Get x 2) 1)) (Get x 1))",
            49,
        ),
        (
            "difference",
            "(- (* (+ (Get x 0) 1) (+ (Get x 0) 1)) 1)",
            "(* (Get x 0) (+ (Get x 0) 2))",
            41,
        ),
    ]

    @pytest.mark.parametrize(
        "lhs,rhs,budget", [p[1:] for p in PROBES], ids=[p[0] for p in PROBES]
    )
    def test_smallest_sufficient_budget(self, lhs, rhs, budget):
        lhs, rhs = parse(lhs), parse(rhs)
        assert equivalent(lhs, rhs, CanonLimits(max_work=budget))
        with pytest.raises(CanonOverflow):
            equivalent(lhs, rhs, CanonLimits(max_work=budget - 1))


_WIDTH = 3
_VEC_BINARY = {"VecAdd": "+", "VecMinus": "-", "VecMul": "*", "VecDiv": "/"}
_VEC_UNARY = {"VecNeg": "neg", "VecSqrt": "sqrt", "VecSgn": "sgn"}

_scalar_lanes = st.one_of(
    st.integers(-3, 3).map(num),
    st.tuples(st.sampled_from("xy"), st.integers(0, 3)).map(lambda p: get(*p)),
)
_base_vectors = st.lists(_scalar_lanes, min_size=_WIDTH, max_size=_WIDTH).map(
    lambda lanes: vec(*lanes)
)


@st.composite
def _shared_vector_programs(draw):
    """A vector DAG in which one compound sub-vector is used three times."""
    pool = draw(st.lists(_base_vectors, min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 6))):
        op = draw(st.sampled_from(["VecMAC", *_VEC_BINARY, *_VEC_UNARY]))
        arity = 3 if op == "VecMAC" else 1 if op in _VEC_UNARY else 2
        pool.append(Term(op, tuple(draw(st.sampled_from(pool)) for _ in range(arity))))
    shared = draw(st.sampled_from([p for p in pool if p.op != "Vec"]))
    user_op = draw(st.sampled_from(["VecMAC", *_VEC_BINARY]))
    rest = tuple(
        draw(st.sampled_from(pool)) for _ in range(2 if user_op == "VecMAC" else 1)
    )
    user = Term(user_op, (shared, *rest))
    return lst(shared, user, concat(shared, draw(st.sampled_from(pool))))


def _reference_flatten(term):
    """Plain recursive unfolding, one call per occurrence."""
    op = term.op
    if op == "List":
        return [lane for item in term.args for lane in _reference_flatten(item)]
    if op == "Concat":
        return _reference_flatten(term.args[0]) + _reference_flatten(term.args[1])
    if op == "Vec":
        return list(term.args)
    if op in _VEC_BINARY:
        left, right = (_reference_flatten(a) for a in term.args)
        return [Term(_VEC_BINARY[op], (a, b)) for a, b in zip(left, right)]
    if op == "VecMAC":
        acc, a, b = (_reference_flatten(x) for x in term.args)
        return [Term("+", (c, Term("*", (x, y)))) for c, x, y in zip(acc, a, b)]
    if op in _VEC_UNARY:
        return [Term(_VEC_UNARY[op], (a,)) for a in _reference_flatten(term.args[0])]
    return [term]


class TestFlatten:
    def test_list_of_scalars(self):
        lanes = flatten_to_scalars(parse("(List p q)"))
        assert lanes == [parse("p"), parse("q")]

    def test_concat_vec(self):
        lanes = flatten_to_scalars(parse("(Concat (Vec p q) (Vec r s))"))
        assert lanes == [parse(t) for t in "pqrs"]

    def test_vecadd(self):
        lanes = flatten_to_scalars(parse("(VecAdd (Vec p q) (Vec r s))"))
        assert lanes == [parse("(+ p r)"), parse("(+ q s)")]

    def test_vecmac(self):
        lanes = flatten_to_scalars(parse("(VecMAC (Vec p q) (Vec r s) (Vec t u))"))
        assert lanes == [parse("(+ p (* r t))"), parse("(+ q (* s u))")]

    def test_vec_unary(self):
        assert flatten_to_scalars(parse("(VecSqrt (Vec p q))")) == [
            parse("(sqrt p)"),
            parse("(sqrt q)"),
        ]

    def test_lane_mismatch_rejected(self):
        with pytest.raises(ValueError):
            flatten_to_scalars(parse("(VecAdd (Vec p) (Vec r s))"))

    @given(_shared_vector_programs())
    @settings(max_examples=80, deadline=None)
    def test_memoized_flattening_matches_reference(self, top):
        lanes = flatten_to_scalars(top)
        assert lanes == _reference_flatten(top)
        # top is (List shared user (Concat shared other)), and user's
        # first operand is shared: a shared sub-vector is unfolded
        # once, so its lanes are the same objects wherever it occurs.
        n = _WIDTH
        shared_lanes, user_lanes, concat_lanes = lanes[:n], lanes[n:2 * n], lanes[2 * n:3 * n]
        assert all(a is b for a, b in zip(shared_lanes, concat_lanes))
        assert all(u.args[0] is s for u, s in zip(user_lanes, shared_lanes))


def _vadd_spec(n=4):
    def vadd(a, b, o):
        for i in range(n):
            o[i] = a[i] + b[i]

    return lift("vadd", vadd, [("a", n), ("b", n)], [("o", n)])


class TestValidate:
    def test_accepts_correct_vectorization(self):
        spec = _vadd_spec(4)
        optimized = parse(
            "(VecAdd (Vec (Get a 0) (Get a 1) (Get a 2) (Get a 3))"
            " (Vec (Get b 0) (Get b 1) (Get b 2) (Get b 3)))"
        )
        result = validate(spec, optimized)
        assert result.ok
        assert result.methods_used.get("canonical", 0) + result.methods_used.get(
            "structural", 0
        ) == 4

    def test_accepts_padding_lanes(self):
        spec = _vadd_spec(2)
        optimized = parse(
            "(VecAdd (Vec (Get a 0) (Get a 1) 0 0) (Vec (Get b 0) (Get b 1) 0 0))"
        )
        assert validate(spec, optimized).ok

    def test_rejects_wrong_program(self):
        spec = _vadd_spec(2)
        wrong = parse(
            "(VecAdd (Vec (Get a 0) (Get a 1) 0 0) (Vec (Get b 1) (Get b 0) 0 0))"
        )
        result = validate(spec, wrong)
        assert not result.ok
        assert result.failing_lanes()

    def test_rejects_too_few_lanes(self):
        spec = _vadd_spec(4)
        result = validate(spec, parse("(Vec (+ (Get a 0) (Get b 0)))"))
        assert not result.ok

    def test_structural_fast_path(self):
        spec = _vadd_spec(2)
        result = validate(spec, spec.term)
        assert result.ok
        assert result.methods_used == {"structural": 2}

    def test_uninterpreted_call_without_semantics_flagged(self):
        def kernel(a, o):
            from repro.frontend import sym_call

            o[0] = sym_call("blackbox", a[0])

        spec = lift("k", kernel, [("a", 1)], [("o", 1)])
        result = validate(spec, spec.term.args[0])
        # Identical term: structural check accepts without needing
        # function semantics.
        assert result.ok

    def test_uninterpreted_call_with_semantics(self):
        from repro.frontend import sym_call

        def kernel(a, o):
            o[0] = sym_call("double", a[0])

        spec = lift("k", kernel, [("a", 1)], [("o", 1)])
        equivalent_term = parse("(List (double (Get a 0)))")
        result = validate(spec, equivalent_term, funcs={"double": lambda x: 2 * x})
        assert result.ok

    def test_uninterpreted_call_mismatch_detected(self):
        from repro.frontend import sym_call

        def kernel(a, o):
            o[0] = sym_call("double", a[0])

        spec = lift("k", kernel, [("a", 1)], [("o", 1)])
        wrong = parse("(List (double (+ (Get a 0) 1)))")
        result = validate(spec, wrong, funcs={"double": lambda x: 2 * x})
        assert not result.ok

    @pytest.mark.parametrize(
        "spec_lane,opt_lane",
        [
            ("(sqrt (- (Get x 0) 3))", "(+ (sqrt (- (Get x 0) 3)) 1)"),
            ("(/ 1 (sqrt (- (Get x 0) 5)))", "(* 2 (/ 1 (sqrt (- (Get x 0) 5))))"),
        ],
    )
    def test_lane_without_in_domain_sample_fails(self, spec_lane, opt_lane):
        # Inputs are drawn from [-2, 2], so every sample raises: a lane
        # that was never evaluated must not pass.
        spec = Spec(
            "k", (ArrayDecl("x", 1),), (ArrayDecl("o", 1),),
            parse(f"(List {spec_lane})"),
        )
        result = validate(spec, parse(f"(List {opt_lane})"))
        assert not result.ok
        (lane,) = result.lanes
        assert lane.method == "random"
        assert "nothing was checked" in lane.detail

    def test_catches_subtle_index_bug(self):
        """The classic miscompile: one shuffled index off by one."""
        spec = _vadd_spec(4)
        subtle = parse(
            "(VecAdd (Vec (Get a 0) (Get a 1) (Get a 2) (Get a 2))"
            " (Vec (Get b 0) (Get b 1) (Get b 2) (Get b 3)))"
        )
        result = validate(spec, subtle)
        assert not result.ok
        assert [l.index for l in result.failing_lanes()] == [3]
