"""Instruction records: the interned static record and the dynamic view.

A trace stores each distinct static instruction once, as a
:class:`StaticInstr`, and per dynamic instance only what varies: the
static id, the effective address and a flag byte (see
:class:`~repro.isa.trace.Trace`).  :class:`Instruction` is the whole
dynamic record as one object; hand-written traces are built from it and
``trace[i]`` returns one, but the simulator never allocates it.
"""

from repro.isa.opcodes import EVALUATORS, OP_LATENCY, Op, port_class

# Hoisted: the constructors run once per static or per test instruction.
_LOAD, _STORE, _BRANCH = Op.LOAD, Op.STORE, Op.BRANCH

#: Functional-unit class -> dense index into the scheduler's per-cycle
#: budget vector (order matters: it must match ReservationStation's
#: ``_budget_list``).
FU_INDEX = {"alu": 0, "mul": 1, "fp": 2, "load": 3, "store": 4}


def _op_facts(op):
    fu = port_class(op)
    if fu == "branch":
        fu = "alu"  # branches execute on the ALU ports
    return (op == _LOAD, op == _STORE, op == _BRANCH, fu, FU_INDEX[fu],
            OP_LATENCY[op], EVALUATORS.get(op))


#: Opcode -> ``(is_load, is_store, is_branch, fu_class, fu_idx, latency,
#: evaluator)``, the facts dispatch reads per dynamic instance, in the
#: order :class:`~repro.core.dyninstr.DynInstr` unpacks them.  One tuple
#: per opcode, shared by every static record of that opcode.
OP_FACTS = {op: _op_facts(op) for op in Op}


class StaticInstr(object):
    """One static instruction of a trace, interned by the trace builder.

    Holds the encoding (``pc``, ``op``, ``dst``, ``srcs``, ``imm``) and
    the facts dispatch reads per dynamic instance: the opcode class, the
    scheduler FU class and its budget index, the execution latency and the
    value function (``facts``, the opcode's :data:`OP_FACTS` entry).
    ``sid`` is the record's position in its trace's static table.
    """

    __slots__ = (
        "sid", "pc", "op", "dst", "srcs", "imm",
        "is_load", "is_store", "is_mem", "is_branch",
        "fu_class", "fu_idx", "latency", "evaluator", "facts",
    )

    def __init__(self, sid, pc, op, dst=None, srcs=(), imm=0):
        self.sid = sid
        self.pc = pc
        self.op = op
        self.dst = dst
        self.srcs = srcs
        self.imm = imm
        self.facts = facts = OP_FACTS[op]
        (self.is_load, self.is_store, self.is_branch, self.fu_class,
         self.fu_idx, self.latency, self.evaluator) = facts
        self.is_mem = self.is_load or self.is_store

    def __repr__(self):
        return "<Static #%d pc=%#x %s>" % (self.sid, self.pc, self.op.name)


class Instruction(object):
    """One dynamic instruction as a single record.

    The model is execution driven for *values* (loads/stores move real data
    through the memory image; ALU ops compute real results) and trace driven
    for *control flow and addresses*: the effective address of a memory op is
    carried in the trace record, but the pipeline only learns it once the
    address-generation sources are ready, so timing is faithful.

    Attributes:
        pc: static program counter of the instruction (identifies the static
            load for the Prefetch Table and the predictors).
        op: opcode from :class:`repro.isa.opcodes.Op`.
        dst: destination architectural register index, or ``None``.
        srcs: tuple of source architectural register indices.  For memory ops
            the sources are the address-generation operands; for stores the
            *data* source is listed first and address sources follow.
        imm: immediate operand.
        addr: effective virtual address for memory ops, else ``None``.
        taken: branch direction (branches only).
        mispredicted: True if the frontend mispredicts this branch.
        index: position in the trace (``-1`` until read back from one).
    """

    __slots__ = (
        "pc", "op", "dst", "srcs", "imm", "addr", "taken", "mispredicted",
        "index", "is_load", "is_store", "is_mem", "is_branch",
    )

    def __init__(self, pc, op, dst=None, srcs=(), imm=0, addr=None,
                 taken=False, mispredicted=False):
        self.pc = pc
        self.op = op
        self.dst = dst
        self.srcs = srcs if type(srcs) is tuple else tuple(srcs)
        self.imm = imm
        self.addr = addr
        self.taken = taken
        self.mispredicted = mispredicted
        self.index = -1
        self.is_load = is_load = op == _LOAD
        self.is_store = is_store = op == _STORE
        self.is_mem = is_load or is_store
        self.is_branch = op == _BRANCH

    def __repr__(self):
        parts = ["pc=%#x" % self.pc, self.op.name]
        if self.dst is not None:
            parts.append("r%d<-" % self.dst)
        if self.srcs:
            parts.append(",".join("r%d" % s for s in self.srcs))
        if self.addr is not None:
            parts.append("@%#x" % self.addr)
        return "<Instr %s>" % " ".join(parts)
