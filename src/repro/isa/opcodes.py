"""Opcodes, execution latencies, and 64-bit integer value semantics.

The opcode set is deliberately small but covers the behaviours the RFP paper
cares about: single-cycle ALU chains (back-to-back scheduling), multi-cycle
multiply/divide/FP (port pressure, FSPEC-style FMA bottlenecks), loads and
stores (the L1 pipeline), and branches (frontend redirects, squashes).

Value semantics are total functions over 64-bit unsigned integers so that the
out-of-order core and the architectural reference emulator compute identical
committed state, bit for bit.
"""

from enum import IntEnum

MASK64 = (1 << 64) - 1


class Op(IntEnum):
    """Opcodes understood by the core, the emulator, and the generator."""

    ADD = 0
    SUB = 1
    AND = 2
    OR = 3
    XOR = 4
    SHL = 5
    SHR = 6
    MOV = 7
    MUL = 8
    DIV = 9
    FPADD = 10
    FPMUL = 11
    FMA = 12
    LOAD = 13
    STORE = 14
    BRANCH = 15
    NOP = 16


#: Execution latency in cycles for each opcode.  Loads are listed at 1 here:
#: their latency is dominated by the memory pipeline and is computed by the
#: core (address generation + L1/L2/LLC/DRAM), not by this table.
OP_LATENCY = {
    Op.ADD: 1,
    Op.SUB: 1,
    Op.AND: 1,
    Op.OR: 1,
    Op.XOR: 1,
    Op.SHL: 1,
    Op.SHR: 1,
    Op.MOV: 1,
    Op.MUL: 3,
    Op.DIV: 18,
    Op.FPADD: 4,
    Op.FPMUL: 4,
    Op.FMA: 5,
    Op.LOAD: 1,
    Op.STORE: 1,
    Op.BRANCH: 1,
    Op.NOP: 1,
}

_ALU_OPS = frozenset(
    {Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.MOV, Op.NOP}
)
_MUL_OPS = frozenset({Op.MUL, Op.DIV})
_FP_OPS = frozenset({Op.FPADD, Op.FPMUL, Op.FMA})


def is_load(op):
    """Return True for the load opcode."""
    return op == Op.LOAD


def is_store(op):
    """Return True for the store opcode."""
    return op == Op.STORE


def is_mem(op):
    """Return True for opcodes that access memory."""
    return op == Op.LOAD or op == Op.STORE


def is_branch(op):
    """Return True for the branch opcode."""
    return op == Op.BRANCH


def port_class(op):
    """Map an opcode to the functional-unit class that executes it.

    Returns one of ``"alu"``, ``"mul"``, ``"fp"``, ``"load"``, ``"store"``,
    ``"branch"``.  The scheduler uses this to enforce per-class issue limits.
    """
    if op in _ALU_OPS:
        return "alu"
    if op in _MUL_OPS:
        return "mul"
    if op in _FP_OPS:
        return "fp"
    if op == Op.LOAD:
        return "load"
    if op == Op.STORE:
        return "store"
    if op == Op.BRANCH:
        return "branch"
    raise ValueError("unknown opcode: %r" % (op,))


def _eval_add(srcs, imm):
    a = srcs[0] if srcs else 0
    b = srcs[1] if len(srcs) > 1 else None
    return (a + (b or 0) + imm) & MASK64


def _eval_sub(srcs, imm):
    a = srcs[0] if srcs else 0
    b = srcs[1] if len(srcs) > 1 else None
    return (a - (b or 0) - imm) & MASK64


def _eval_and(srcs, imm):
    a = srcs[0] if srcs else 0
    b = srcs[1] if len(srcs) > 1 else None
    return (a & (b if b is not None else MASK64)) & MASK64


def _eval_or(srcs, imm):
    a = srcs[0] if srcs else 0
    b = srcs[1] if len(srcs) > 1 else None
    return (a | (b or 0) | imm) & MASK64


def _eval_xor(srcs, imm):
    a = srcs[0] if srcs else 0
    b = srcs[1] if len(srcs) > 1 else None
    return (a ^ (b or 0) ^ imm) & MASK64


def _eval_shl(srcs, imm):
    a = srcs[0] if srcs else 0
    return (a << (imm & 63)) & MASK64


def _eval_shr(srcs, imm):
    a = srcs[0] if srcs else 0
    return (a >> (imm & 63)) & MASK64


def _eval_mov(srcs, imm):
    return (srcs[0] if srcs else imm) & MASK64


def _eval_mul(srcs, imm):
    a = srcs[0] if srcs else 0
    b = srcs[1] if len(srcs) > 1 else None
    return (a * (b if b is not None else imm)) & MASK64


def _eval_div(srcs, imm):
    a = srcs[0] if srcs else 0
    b = srcs[1] if len(srcs) > 1 else None
    divisor = (b if b is not None else imm) or 1
    return (a // divisor) & MASK64


def _eval_fpadd(srcs, imm):
    a = srcs[0] if srcs else 0
    b = srcs[1] if len(srcs) > 1 else None
    return (a + (b or 0) + imm) & MASK64


def _eval_fpmul(srcs, imm):
    a = srcs[0] if srcs else 0
    b = srcs[1] if len(srcs) > 1 else None
    return (a * ((b or 0) | 1)) & MASK64


def _eval_fma(srcs, imm):
    a = srcs[0] if srcs else 0
    b = srcs[1] if len(srcs) > 1 else None
    factor = b if b is not None else 1
    addend = srcs[2] if len(srcs) > 2 else imm
    return (a * factor + addend) & MASK64


def _eval_store(srcs, imm):
    return (srcs[0] if srcs else imm) & MASK64


def _eval_branch(srcs, imm):
    cond = srcs[0] if srcs else imm
    return 1 if (cond & 1) else 0


def _eval_nop(srcs, imm):
    return 0


#: Opcode -> value function.  LOAD is deliberately absent: its value comes
#: from memory, and evaluating one is a bug worth raising on.
EVALUATORS = {
    Op.ADD: _eval_add,
    Op.SUB: _eval_sub,
    Op.AND: _eval_and,
    Op.OR: _eval_or,
    Op.XOR: _eval_xor,
    Op.SHL: _eval_shl,
    Op.SHR: _eval_shr,
    Op.MOV: _eval_mov,
    Op.MUL: _eval_mul,
    Op.DIV: _eval_div,
    Op.FPADD: _eval_fpadd,
    Op.FPMUL: _eval_fpmul,
    Op.FMA: _eval_fma,
    Op.STORE: _eval_store,
    Op.BRANCH: _eval_branch,
    Op.NOP: _eval_nop,
}


def evaluate(op, srcs, imm=0):
    """Compute the 64-bit result of a non-memory opcode.

    ``srcs`` is the tuple of source-register values in operand order.  The
    immediate, when present, acts as an extra operand.  Memory ops and
    branches return values too: a STORE's "result" is the value it writes
    (src0 + imm), and a BRANCH's result is its taken/not-taken condition bit,
    which keeps the dataflow graph uniform.

    Hot paths bypass this wrapper and call ``EVALUATORS[op]`` (or a
    per-instruction cached evaluator) directly; results are identical.
    """
    func = EVALUATORS.get(op)
    if func is None:
        raise ValueError("evaluate() does not handle %r" % (op,))
    return func(srcs, imm)
