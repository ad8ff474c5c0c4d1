"""Unit tests for the rewrite-rule families (repro.rules).

Every rule family is checked two ways: (1) the specific equivalences
the paper describes are discovered, and (2) saturation preserves
concrete semantics on random inputs (the fundamental soundness
contract of the rewrite system).
"""

import random

import pytest

from repro.costs import DiospyrosCostModel
from repro.dsl import evaluate_output, parse
from repro.egraph import EGraph, Extractor, Runner
from repro.rules import (
    ac_rules,
    build_ruleset,
    scalar_rules,
)


def saturate(text, rules, **kw):
    eg = EGraph()
    root = eg.add_term(parse(text))
    report = Runner(rules, **kw).run(eg)
    return eg, root, report


def check_semantics_preserved(spec_text, rules, env, n_outputs=None, seed=3):
    """Extract under the vector cost model and compare concrete
    outputs with the original spec on the given environment."""
    eg, root, _ = saturate(spec_text, rules, iter_limit=25, node_limit=30_000)
    term = Extractor(eg, DiospyrosCostModel()).extract(root).term
    spec = parse(spec_text)
    expected = evaluate_output(spec, env)
    actual = evaluate_output(term, env)
    assert len(actual) >= len(expected)
    for a, b in zip(expected, actual):
        assert abs(a - b) < 1e-9 * max(1.0, abs(a)), (term.to_sexpr(), expected, actual)
    return term


class TestScalarRules:
    CASES = [
        ("(+ q 0)", "q"),
        ("(+ 0 q)", "q"),
        ("(- q 0)", "q"),
        ("(* q 1)", "q"),
        ("(* 1 q)", "q"),
        ("(* q 0)", "0"),
        ("(* 0 q)", "0"),
        ("(/ q 1)", "q"),
        ("(- q q)", "0"),
        ("(neg (neg q))", "q"),
        ("(neg q)", "(- 0 q)"),
        ("(* q -1)", "(neg q)"),
        ("(+ q (neg r))", "(- q r)"),
        ("(sqrt 0)", "0"),
        ("(sqrt 1)", "1"),
        ("(sgn 0)", "0"),
        ("(* (neg q) r)", "(neg (* q r))"),
    ]

    @pytest.mark.parametrize("lhs,rhs", CASES)
    def test_equivalence_discovered(self, lhs, rhs):
        eg, root, _ = saturate(lhs, scalar_rules())
        assert eg.equiv(parse(lhs), parse(rhs)), f"{lhs} !~ {rhs}"

    def test_reassociation_floats_subtractions(self):
        """(a - b) + c ~ (a + c) - b: the targeted AC recovery of
        Section 3.3 used for sign-mixed reductions."""
        eg, root, _ = saturate("(+ (- a b) c)", scalar_rules())
        assert eg.equiv(parse("(+ (- a b) c)"), parse("(- (+ a c) b)"))

    def test_fuse_subs(self):
        eg, root, _ = saturate("(- (- a b) c)", scalar_rules())
        assert eg.equiv(parse("(- (- a b) c)"), parse("(- a (+ b c))"))

    def test_unsound_rules_absent(self):
        """x/x is NOT rewritten to 1 (unsound at x = 0)."""
        eg, root, _ = saturate("(/ q q)", scalar_rules())
        assert not eg.equiv(parse("(/ q q)"), parse("1"))

    def test_scalar_rules_preserve_semantics(self, rng):
        env = {"a": [rng.uniform(-3, 3) for _ in range(4)]}
        check_semantics_preserved(
            "(List (+ (Get a 0) 0) (* (Get a 1) 1) (- (Get a 2) (Get a 2)) (neg (neg (Get a 3))))",
            scalar_rules(),
            env,
        )


class TestListSplitting:
    def test_exact_multiple(self):
        rules = build_ruleset(width=2)
        eg, root, _ = saturate("(List (Get a 0) (Get a 1) (Get a 2) (Get a 3))", rules)
        expected = parse(
            "(Concat (Vec (Get a 0) (Get a 1)) (Vec (Get a 2) (Get a 3)))"
        )
        assert eg.equiv(
            parse("(List (Get a 0) (Get a 1) (Get a 2) (Get a 3))"), expected
        )

    def test_zero_padding(self):
        rules = build_ruleset(width=4)
        eg, root, _ = saturate("(List (Get a 0) (Get a 1) (Get a 2) (Get a 3) (Get a 4))", rules)
        expected = parse(
            "(Concat (Vec (Get a 0) (Get a 1) (Get a 2) (Get a 3))"
            " (Vec (Get a 4) 0 0 0))"
        )
        assert eg.equiv(
            parse("(List (Get a 0) (Get a 1) (Get a 2) (Get a 3) (Get a 4))"),
            expected,
        )

    def test_single_chunk(self):
        rules = build_ruleset(width=4)
        eg, root, _ = saturate("(List (Get a 0) (Get a 1))", rules)
        assert eg.equiv(
            parse("(List (Get a 0) (Get a 1))"),
            parse("(Vec (Get a 0) (Get a 1) 0 0)"),
        )


class TestBinaryVectorization:
    def test_paper_example(self):
        """The Section 3.2 rewrite: (Vec (+ a b) (+ c d)) =>
        (VecAdd (Vec a c) (Vec b d))."""
        rules = build_ruleset(width=2)
        eg, root, _ = saturate("(Vec (+ p q) (+ r s))", rules)
        assert eg.equiv(parse("(Vec (+ p q) (+ r s))"), parse("(VecAdd (Vec p r) (Vec q s))"))

    def test_zero_lane_vectorization(self):
        """The Section 3.3 zero-aware rewrite: (Vec (+ a b) 0 (+ c d) 0)
        vectorizes with zero padding in both operand vectors."""
        rules = build_ruleset(width=4)
        eg, root, _ = saturate("(Vec (+ p q) 0 (+ r s) 0)", rules)
        assert eg.equiv(
            parse("(Vec (+ p q) 0 (+ r s) 0)"),
            parse("(VecAdd (Vec p 0 r 0) (Vec q 0 s 0))"),
        )

    def test_subtraction_lanes(self):
        rules = build_ruleset(width=2)
        eg, root, _ = saturate("(Vec (- p q) (- r s))", rules)
        assert eg.equiv(parse("(Vec (- p q) (- r s))"), parse("(VecMinus (Vec p r) (Vec q s))"))

    def test_division_lanes_with_zero(self):
        rules = build_ruleset(width=2)
        env = {"a": [3.0, 5.0], "b": [2.0, 4.0]}
        term = check_semantics_preserved(
            "(List (/ (Get a 0) (Get b 0)) (/ (Get a 1) (Get b 1)))",
            rules,
            env,
        )

    def test_mixed_ops_do_not_vectorize_binary(self):
        """(Vec (+ ..) (* ..)) must not become a single VecAdd/VecMul."""
        rules = build_ruleset(width=2)
        eg, root, _ = saturate("(Vec (+ p q) (* r s))", rules)
        assert not eg.equiv(parse("(Vec (+ p q) (* r s))"), parse("(VecAdd (Vec p r) (Vec q s))"))
        assert not eg.equiv(parse("(Vec (+ p q) (* r s))"), parse("(VecMul (Vec p r) (Vec q s))"))


class TestUnaryVectorization:
    @pytest.mark.parametrize(
        "scalar,vector",
        [("neg", "VecNeg"), ("sqrt", "VecSqrt"), ("sgn", "VecSgn")],
    )
    def test_unary_lanes(self, scalar, vector):
        rules = build_ruleset(width=2)
        eg, root, _ = saturate(f"(Vec ({scalar} p) ({scalar} q))", rules)
        assert eg.equiv(
            parse(f"(Vec ({scalar} p) ({scalar} q))"),
            parse(f"({vector} (Vec p q))"),
        )

    def test_unary_with_zero_lane(self):
        rules = build_ruleset(width=2)
        eg, root, _ = saturate("(Vec (neg p) 0)", rules)
        assert eg.equiv(parse("(Vec (neg p) 0)"), parse("(VecNeg (Vec p 0))"))


class TestMacRule:
    def test_basic_mac(self):
        rules = build_ruleset(width=2)
        eg, root, _ = saturate("(Vec (+ a (* b c)) (+ d (* e f)))", rules)
        assert eg.equiv(
            parse("(Vec (+ a (* b c)) (+ d (* e f)))"),
            parse("(VecMAC (Vec a d) (Vec b e) (Vec c f))"),
        )

    def test_flipped_addend(self):
        rules = build_ruleset(width=2)
        eg, root, _ = saturate("(Vec (+ (* b c) a) (+ d (* e f)))", rules)
        assert eg.equiv(
            parse("(Vec (+ (* b c) a) (+ d (* e f)))"),
            parse("(VecMAC (Vec a d) (Vec b e) (Vec c f))"),
        )

    def test_bare_product_lane(self):
        """A shorter lane (* b c) contributes a zero accumulator --
        the paper's boundary-condition case."""
        rules = build_ruleset(width=2)
        eg, root, _ = saturate("(Vec (* b c) (+ d (* e f)))", rules)
        assert eg.equiv(
            parse("(Vec (* b c) (+ d (* e f)))"),
            parse("(VecMAC (Vec 0 d) (Vec b e) (Vec c f))"),
        )

    def test_zero_lane(self):
        rules = build_ruleset(width=2)
        eg, root, _ = saturate("(Vec (+ a (* b c)) 0)", rules)
        assert eg.equiv(
            parse("(Vec (+ a (* b c)) 0)"),
            parse("(VecMAC (Vec a 0) (Vec b 0) (Vec c 0))"),
        )

    def test_subtraction_negates_multiplicand(self):
        """(- a (* b c)) fuses as acc + (neg b) * c."""
        rules = build_ruleset(width=2)
        eg, root, _ = saturate("(Vec (- a (* b c)) (- d (* e f)))", rules)
        assert eg.equiv(
            parse("(Vec (- a (* b c)) (- d (* e f)))"),
            parse("(VecMAC (Vec a d) (Vec (neg b) (neg e)) (Vec c f))"),
        )

    def test_mac_chain_semantics(self, rng):
        """Dot-product-shaped lanes peel into chained MACs that compute
        the right values."""
        env = {
            "a": [rng.uniform(-2, 2) for _ in range(4)],
            "b": [rng.uniform(-2, 2) for _ in range(4)],
        }
        spec = (
            "(List"
            " (+ (* (Get a 0) (Get b 0)) (* (Get a 1) (Get b 1)))"
            " (+ (* (Get a 2) (Get b 2)) (* (Get a 3) (Get b 3))))"
        )
        term = check_semantics_preserved(spec, build_ruleset(width=2), env)
        assert "VecMAC" in term.to_sexpr() or "VecMul" in term.to_sexpr()


class TestVectorIdentities:
    def test_mac_fusion_bidirectional(self):
        rules = build_ruleset(width=2)
        eg, root, _ = saturate("(VecAdd (Vec a b) (VecMul (Vec c d) (Vec e f)))", rules)
        assert eg.equiv(
            parse("(VecAdd (Vec a b) (VecMul (Vec c d) (Vec e f)))"),
            parse("(VecMAC (Vec a b) (Vec c d) (Vec e f))"),
        )

    def test_mac_zero_acc_is_mul(self):
        rules = build_ruleset(width=2)
        eg, root, _ = saturate("(VecMAC (Vec 0 0) (Vec a b) (Vec c d))", rules)
        assert eg.equiv(
            parse("(VecMAC (Vec 0 0) (Vec a b) (Vec c d))"),
            parse("(VecMul (Vec a b) (Vec c d))"),
        )

    def test_vecadd_zero(self):
        rules = build_ruleset(width=2)
        eg, root, _ = saturate("(VecAdd (Vec a b) (Vec 0 0))", rules)
        assert eg.equiv(parse("(VecAdd (Vec a b) (Vec 0 0))"), parse("(Vec a b)"))


class TestAcRules:
    def test_commutativity(self):
        eg, root, _ = saturate("(+ p q)", scalar_rules() + ac_rules())
        assert eg.equiv(parse("(+ p q)"), parse("(+ q p)"))

    def test_associativity(self):
        eg, root, _ = saturate(
            "(+ (+ p q) r)", scalar_rules() + ac_rules(), iter_limit=10
        )
        assert eg.equiv(parse("(+ (+ p q) r)"), parse("(+ p (+ q r))"))

    def test_ac_grows_graph(self):
        """Full AC saturation produces a larger e-graph than the custom
        searchers (the Section 3.3 memory argument)."""
        spec = "(+ (+ (+ p q) r) s)"
        eg_off, _, _ = saturate(spec, scalar_rules(), iter_limit=8)
        eg_on, _, _ = saturate(spec, scalar_rules() + ac_rules(), iter_limit=8)
        assert eg_on.num_nodes > eg_off.num_nodes


class TestRulesetBuilder:
    def test_default_has_all_families(self):
        rules = build_ruleset(width=4)
        names = {r.name for r in rules}
        assert "list-split-w4" in names
        assert "vec-mac-w4" in names
        assert "add-0-r" in names

    def test_vector_disabled(self):
        names = {r.name for r in build_ruleset(width=4, enable_vector=False)}
        assert not any("vec" in n for n in names)

    def test_scalar_disabled(self):
        names = {r.name for r in build_ruleset(width=4, enable_scalar=False)}
        assert "add-0-r" not in names

    def test_empty_ruleset_rejected(self):
        with pytest.raises(ValueError):
            build_ruleset(enable_scalar=False, enable_vector=False)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            build_ruleset(width=0)

    def test_extra_rules_appended(self):
        from repro.egraph import rewrite as mk

        extra = mk("recip", "(/ 1 ?x)", "(recip ?x)")
        rules = build_ruleset(width=4, extra_rules=[extra])
        assert rules[-1] is extra

    def test_shipped_rules_are_built_once_and_lists_are_fresh(self):
        from repro.egraph import rewrite as mk

        first = build_ruleset(width=4)
        second = build_ruleset(width=4)
        assert first is not second
        assert len(first) == len(second)
        assert all(a is b for a, b in zip(first, second))
        shipped = list(first)
        first.append(mk("stray", "(+ ?x 0)", "?x"))
        first.reverse()
        again = build_ruleset(width=4)
        assert len(again) == len(shipped)
        assert all(a is b for a, b in zip(again, shipped))
        # Extensions and tag filters still apply per call.
        extra = mk("recip", "(/ 1 ?x)", "(recip ?x)")
        extended = build_ruleset(width=4, extra_rules=[extra])
        assert extended[-1] is extra
        assert all(a is b for a, b in zip(extended, shipped))
        mac_only = build_ruleset(width=4, extra_rules=[extra], only_tags=["mac"])
        assert [r.name for r in mac_only] == ["vec-mac-w4", "recip"]
        assert "list-split-w2" in {r.name for r in build_ruleset(width=2)}
