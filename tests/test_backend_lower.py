"""Unit tests for lowering (repro.backend.lower): every gather
strategy class, the scalar path, and differential correctness."""

import pytest

from repro.backend import vir
from repro.backend.lower import LoweringError, lower_term
from repro.dsl import evaluate_output, parse
from repro.machine import simulate

A = [float(x) for x in range(1, 13)]  # a = 1..12
B = [float(x) for x in range(101, 113)]


def lower_and_run(text, inputs=None, n_outputs=None, width=4, env=None):
    term = parse(text)
    inputs = inputs or {"a": 12, "b": 12}
    env = env or {"a": A, "b": B}
    if n_outputs is None:
        n_outputs = len(evaluate_output(term, env))
    program = lower_term(term, inputs, n_outputs, width)
    result = simulate(program, env)
    expected = evaluate_output(term, env)[:n_outputs]
    assert result.output("out") == pytest.approx(expected)
    return program, result


class TestVecGatherStrategies:
    def test_contiguous_load(self):
        program, _ = lower_and_run("(Vec (Get a 4) (Get a 5) (Get a 6) (Get a 7))")
        hist = program.opcode_histogram()
        assert hist == {"vload": 1, "vstore": 1}

    def test_constant_offset_run_uses_single_load(self):
        """Indices base+pos with don't-care holes still lower to one
        vload (the offset-run generalization)."""
        program, _ = lower_and_run("(Vec (Get a 2) (Get a 3) (Get a 4) (Get a 5))")
        assert program.opcode_histogram()["vload"] == 1

    def test_single_window_shuffle(self):
        program, _ = lower_and_run("(Vec (Get a 3) (Get a 1) (Get a 0) (Get a 2))")
        hist = program.opcode_histogram()
        assert hist.get("vshuffle") == 1
        assert hist.get("vload") == 1

    def test_broadcast_shuffle(self):
        program, _ = lower_and_run("(Vec (Get a 1) (Get a 1) (Get a 1) (Get a 1))")
        hist = program.opcode_histogram()
        assert hist.get("vshuffle") == 1

    def test_two_windows_single_select(self):
        program, _ = lower_and_run("(Vec (Get a 0) (Get a 5) (Get a 1) (Get a 6))")
        hist = program.opcode_histogram()
        assert hist.get("vselect") == 1
        assert hist.get("vload") == 2

    def test_three_windows_nested_selects(self):
        """More than two source registers need nested selects
        (paper Section 5.1)."""
        program, _ = lower_and_run("(Vec (Get a 0) (Get a 5) (Get a 9) (Get a 1))")
        hist = program.opcode_histogram()
        assert hist.get("vselect") == 2
        assert hist.get("vload") == 3

    def test_cross_array_select(self):
        program, _ = lower_and_run("(Vec (Get a 0) (Get b 1) (Get a 2) (Get b 3))")
        hist = program.opcode_histogram()
        assert hist.get("vselect", 0) >= 1

    def test_literal_lanes_vconst(self):
        program, _ = lower_and_run("(Vec 1 2 3 4)")
        assert program.opcode_histogram() == {"vconst": 1, "vstore": 1}

    def test_mixed_literal_and_gets(self):
        program, _ = lower_and_run("(Vec (Get a 0) 0 (Get a 2) 0)")
        hist = program.opcode_histogram()
        assert "vconst" in hist and "vselect" in hist

    def test_computed_scalar_lane_insert(self):
        program, _ = lower_and_run(
            "(Vec (Get a 0) (Get a 1) (Get a 2) (+ (Get b 0) (Get b 1)))"
        )
        hist = program.opcode_histogram()
        assert hist.get("vinsert") == 1
        assert hist.get("sbin.+") == 1

    def test_short_array_scalar_inserts(self):
        """Arrays shorter than the vector width still work (scalar
        loads + inserts); buffers are padded so loads stay in bounds."""
        program = lower_term(
            parse("(Vec (Get t 0) (Get t 1) (Get t 2) 0)"), {"t": 3}, 4
        )
        result = simulate(program, {"t": [7.0, 8.0, 9.0]})
        assert result.output("out") == [7.0, 8.0, 9.0, 0.0]

    def test_tail_window_clamped(self):
        """An index in the final partial window clamps the load base."""
        program = lower_term(
            parse("(Vec (Get c 5) (Get c 1) (Get c 0) (Get c 2))"), {"c": 6}, 4
        )
        result = simulate(program, {"c": [float(i) for i in range(6)]})
        assert result.output("out") == [5.0, 1.0, 0.0, 2.0]


class TestVectorOps:
    def test_vecadd(self):
        program, _ = lower_and_run(
            "(VecAdd (Vec (Get a 0) (Get a 1) (Get a 2) (Get a 3))"
            " (Vec (Get b 0) (Get b 1) (Get b 2) (Get b 3)))"
        )
        assert program.opcode_histogram()["vbin.+"] == 1

    def test_vecmac_chain(self):
        program, _ = lower_and_run(
            "(VecMAC (VecMul (Vec (Get a 0) (Get a 1) (Get a 2) (Get a 3))"
            " (Vec (Get b 0) (Get b 1) (Get b 2) (Get b 3)))"
            " (Vec (Get a 4) (Get a 5) (Get a 6) (Get a 7))"
            " (Vec (Get b 4) (Get b 5) (Get b 6) (Get b 7)))"
        )
        hist = program.opcode_histogram()
        assert hist["vmac"] == 1 and hist["vbin.*"] == 1

    def test_unary(self):
        lower_and_run("(VecNeg (Vec (Get a 0) (Get a 1) (Get a 2) (Get a 3)))")
        lower_and_run("(VecSqrt (Vec (Get a 0) (Get a 1) (Get a 2) (Get a 3)))")
        lower_and_run("(VecSgn (Vec (Get a 0) (Get a 1) (Get a 2) (Get a 3)))")

    def test_concat_stores_chunks(self):
        program, result = lower_and_run(
            "(Concat (Vec (Get a 0) (Get a 1) (Get a 2) (Get a 3))"
            " (Vec (Get a 4) (Get a 5) (Get a 6) (Get a 7)))"
        )
        assert program.opcode_histogram()["vstore"] == 2

    def test_padding_chunk_partial_store(self):
        """A 6-output program stores 4 + 2 lanes."""
        term = (
            "(Concat (Vec (Get a 0) (Get a 1) (Get a 2) (Get a 3))"
            " (Vec (Get a 4) (Get a 5) 0 0))"
        )
        program = lower_term(parse(term), {"a": 12}, 6)
        result = simulate(program, {"a": A})
        assert result.output("out") == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        stores = [i for i in program.instructions if isinstance(i, vir.VStore)]
        assert [s.count for s in stores] == [4, 2]

    def test_memoized_subterms_lowered_once(self):
        shared = "(Vec (Get a 0) (Get a 1) (Get a 2) (Get a 3))"
        program, _ = lower_and_run(f"(VecAdd (VecMul {shared} {shared}) {shared})")
        assert program.opcode_histogram()["vload"] == 1


class TestScalarPath:
    def test_list_of_scalars(self):
        program, _ = lower_and_run(
            "(List (+ (Get a 0) (Get b 0)) (* (Get a 1) (Get b 1)))"
        )
        hist = program.opcode_histogram()
        assert hist["sstore"] == 2
        assert "vload" not in hist

    def test_scalar_expression_tree(self):
        lower_and_run("(List (/ (+ (Get a 0) (Get a 1)) (sqrt (Get a 2))))")

    def test_scalar_memoization(self):
        program, _ = lower_and_run(
            "(List (* (+ (Get a 0) (Get a 1)) (+ (Get a 0) (Get a 1))))"
        )
        assert program.opcode_histogram()["sbin.+"] == 1


class TestErrors:
    def test_unknown_array(self):
        with pytest.raises(LoweringError):
            lower_term(parse("(Vec (Get zz 0) 0 0 0)"), {"a": 4}, 4)

    def test_wrong_vec_width(self):
        with pytest.raises(LoweringError):
            lower_term(parse("(Vec (Get a 0) (Get a 1))"), {"a": 4}, 4)

    def test_call_unlowered(self):
        with pytest.raises(LoweringError, match="intrinsic"):
            lower_term(parse("(List (myfn (Get a 0)))"), {"a": 4}, 1)

    def test_list_arity_mismatch(self):
        with pytest.raises(LoweringError):
            lower_term(parse("(List (Get a 0))"), {"a": 4}, 3)

    def test_insufficient_lanes(self):
        with pytest.raises(LoweringError, match="covers"):
            lower_term(parse("(Vec (Get a 0) 0 0 0)"), {"a": 4}, 9)

    def test_backend_raises_the_staged_lowering_error(self):
        """One ``LoweringError``: the backend's is the compiler's staged
        error, so ``except repro.errors.LoweringError`` catches it."""
        import repro.backend
        import repro.errors

        assert LoweringError is repro.errors.LoweringError
        assert repro.backend.LoweringError is repro.errors.LoweringError
        with pytest.raises(repro.errors.CompileError) as info:
            lower_term(parse("(List (myfn (Get a 0)))"), {"a": 4}, 1)
        assert info.value.stage == "lowering"

    def test_input_padding_declared(self):
        program = lower_term(parse("(Vec (Get t 0) 0 0 0)"), {"t": 3}, 4)
        assert program.inputs["t"] == 4
