"""Opcode semantics, latencies, and classification."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.opcodes import (
    MASK64,
    Op,
    OP_LATENCY,
    evaluate,
    is_branch,
    is_load,
    is_mem,
    is_store,
    port_class,
)


class TestClassification:
    def test_load_store_mem(self):
        assert is_load(Op.LOAD)
        assert not is_load(Op.STORE)
        assert is_store(Op.STORE)
        assert is_mem(Op.LOAD) and is_mem(Op.STORE)
        assert not is_mem(Op.ADD)

    def test_branch(self):
        assert is_branch(Op.BRANCH)
        assert not is_branch(Op.ADD)

    def test_alu_ops(self):
        for op in (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.MOV, Op.NOP):
            assert port_class(op) == "alu"
        assert port_class(Op.MUL) != "alu"

    def test_mul_and_fp(self):
        assert port_class(Op.MUL) == port_class(Op.DIV) == "mul"
        for op in (Op.FPADD, Op.FPMUL, Op.FMA):
            assert port_class(op) == "fp"

    def test_port_class_total(self):
        for op in Op:
            assert port_class(op) in ("alu", "mul", "fp", "load", "store", "branch")

    def test_port_class_values(self):
        assert port_class(Op.ADD) == "alu"
        assert port_class(Op.MUL) == "mul"
        assert port_class(Op.FMA) == "fp"
        assert port_class(Op.LOAD) == "load"
        assert port_class(Op.STORE) == "store"
        assert port_class(Op.BRANCH) == "branch"


class TestLatencies:
    def test_all_ops_have_latency(self):
        for op in Op:
            assert op in OP_LATENCY

    def test_single_cycle_alu(self):
        assert OP_LATENCY[Op.ADD] == 1
        assert OP_LATENCY[Op.MOV] == 1

    def test_multi_cycle(self):
        assert OP_LATENCY[Op.MUL] > 1
        assert OP_LATENCY[Op.DIV] > OP_LATENCY[Op.MUL]
        assert OP_LATENCY[Op.FMA] >= OP_LATENCY[Op.FPADD]


class TestSemantics:
    def test_add(self):
        assert evaluate(Op.ADD, (2, 3)) == 5
        assert evaluate(Op.ADD, (2,), imm=7) == 9

    def test_add_wraps(self):
        assert evaluate(Op.ADD, (MASK64, 1)) == 0

    def test_sub(self):
        assert evaluate(Op.SUB, (5, 3)) == 2
        assert evaluate(Op.SUB, (0, 1)) == MASK64

    def test_logical(self):
        assert evaluate(Op.AND, (0b1100, 0b1010)) == 0b1000
        assert evaluate(Op.OR, (0b1100, 0b1010)) == 0b1110
        assert evaluate(Op.XOR, (0b1100, 0b1010)) == 0b0110

    def test_shifts(self):
        assert evaluate(Op.SHL, (1,), imm=4) == 16
        assert evaluate(Op.SHR, (16,), imm=4) == 1
        assert evaluate(Op.SHL, (1,), imm=64) == 1  # shift mod 64

    def test_mov(self):
        assert evaluate(Op.MOV, (42,)) == 42
        assert evaluate(Op.MOV, (), imm=99) == 99

    def test_mul_div(self):
        assert evaluate(Op.MUL, (6, 7)) == 42
        assert evaluate(Op.DIV, (42, 7)) == 6

    def test_div_by_zero_guarded(self):
        assert evaluate(Op.DIV, (42, 0)) == 42  # divisor forced to 1

    def test_fma(self):
        assert evaluate(Op.FMA, (2, 3, 4)) == 10

    def test_store_returns_data(self):
        assert evaluate(Op.STORE, (123,)) == 123

    def test_branch_condition_bit(self):
        assert evaluate(Op.BRANCH, (3,)) == 1
        assert evaluate(Op.BRANCH, (2,)) == 0

    def test_nop(self):
        assert evaluate(Op.NOP, ()) == 0

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            evaluate(999, (1,))


@given(
    op=st.sampled_from([Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.MUL, Op.FPADD,
                        Op.FPMUL, Op.FMA]),
    a=st.integers(min_value=0, max_value=MASK64),
    b=st.integers(min_value=0, max_value=MASK64),
    imm=st.integers(min_value=0, max_value=1 << 16),
)
def test_evaluate_stays_in_64_bits(op, a, b, imm):
    result = evaluate(op, (a, b), imm=imm)
    assert 0 <= result <= MASK64


@given(a=st.integers(min_value=0, max_value=MASK64),
       b=st.integers(min_value=0, max_value=MASK64))
def test_add_sub_roundtrip(a, b):
    total = evaluate(Op.ADD, (a, b))
    assert evaluate(Op.SUB, (total, b)) == a


@given(a=st.integers(min_value=0, max_value=MASK64),
       b=st.integers(min_value=0, max_value=MASK64))
def test_xor_involution(a, b):
    once = evaluate(Op.XOR, (a, b))
    assert evaluate(Op.XOR, (once, b)) == a
