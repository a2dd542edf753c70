"""The dynamic instruction record that flows through the pipeline."""

from repro.isa.opcodes import Op

# Hoisted: the constructor runs once per generated trace instruction.
_LOAD, _STORE, _BRANCH = Op.LOAD, Op.STORE, Op.BRANCH


class Instruction(object):
    """One dynamic instruction in a trace.

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
        size: access size in bytes for memory ops.
        taken: branch direction (branches only).
        mispredicted: True if the frontend mispredicts this branch.
        index: position in the trace; assigned by :class:`~repro.isa.trace.Trace`.
    """

    __slots__ = (
        "pc",
        "op",
        "dst",
        "srcs",
        "imm",
        "addr",
        "size",
        "taken",
        "mispredicted",
        "index",
        # Opcode-class facts, precomputed here because the frontend, the
        # dispatch stage, and the tracer read them once per dynamic
        # instruction — an attribute load is several times cheaper than a
        # property call.
        "is_load",
        "is_store",
        "is_mem",
        "is_branch",
        # Lazily-filled static snapshot (is_load, is_store, is_branch, pc,
        # addr, word_addr, fu_class, latency) shared by every DynInstr
        # wrapping this instruction; a pure function of the fields above, so
        # caching it on the (trace-shared) instruction is idempotent.
        "_static",
    )

    def __init__(
        self,
        pc,
        op,
        dst=None,
        srcs=(),
        imm=0,
        addr=None,
        size=8,
        taken=False,
        mispredicted=False,
    ):
        self.pc = pc
        self.op = op
        self.dst = dst
        self.srcs = srcs if type(srcs) is tuple else tuple(srcs)
        self.imm = imm
        self.addr = addr
        self.size = size
        self.taken = taken
        self.mispredicted = mispredicted
        self.index = -1
        self.is_load = is_load = op == _LOAD
        self.is_store = is_store = op == _STORE
        self.is_mem = is_load or is_store
        self.is_branch = op == _BRANCH
        self._static = None

    def __repr__(self):
        parts = ["pc=%#x" % self.pc, self.op.name]
        if self.dst is not None:
            parts.append("r%d<-" % self.dst)
        if self.srcs:
            parts.append(",".join("r%d" % s for s in self.srcs))
        if self.addr is not None:
            parts.append("@%#x" % self.addr)
        return "<Instr %s>" % " ".join(parts)
