"""The trace writer: static interning, PC/region allocation, memory init."""

import random
from array import array

from repro.isa.instruction import StaticInstr
from repro.isa.trace import BRANCH, MISPREDICTED, TAKEN, Trace

CODE_BASE = 0x400000
HEAP_BASE = 0x10000000
MASK64 = (1 << 64) - 1


class TraceBuilder(object):
    """Writes a :class:`~repro.isa.trace.Trace`'s columns and memory image.

    Kernels allocate static PCs, static records and data regions once at
    construction and then append dynamic instances; the builder owns the
    global address space so concurrently interleaved kernels never
    collide.  ``memory`` is a plain dict while the kernels read and write
    it, and becomes the trace's two image columns in :meth:`finish`.
    """

    def __init__(self, name="trace", category="", seed=0):
        self.name = name
        self.category = category
        self.rng = random.Random(seed)
        self.memory = {}
        self.statics = []
        self._interned = {}
        self.sids = array("H")
        self.addrs = array("I")
        self.flags = bytearray()
        self._next_pc = CODE_BASE
        self._next_addr = HEAP_BASE

    # ------------------------------------------------------------------
    # allocation

    def alloc_pcs(self, count):
        """Allocate ``count`` consecutive static instruction addresses."""
        base = self._next_pc
        self._next_pc += 4 * count
        return [base + 4 * i for i in range(count)]

    def alloc_region(self, num_words, align=4096):
        """Allocate a data region of ``num_words`` 8-byte words."""
        addr = (self._next_addr + align - 1) // align * align
        self._next_addr = addr + num_words * 8
        return addr

    # ------------------------------------------------------------------
    # memory initialisation patterns

    def init_arith(self, base, num_words, start=0, delta=1):
        """Arithmetic sequence: word k holds start + k*delta."""
        memory = self.memory
        value = start
        for k in range(num_words):
            memory[base + 8 * k] = value & MASK64
            value += delta

    def init_const(self, base, num_words, value):
        memory = self.memory
        for k in range(num_words):
            memory[base + 8 * k] = value & MASK64

    def init_random(self, base, num_words, lo=0, hi=(1 << 32) - 1):
        memory = self.memory
        rng = self.rng
        for k in range(num_words):
            memory[base + 8 * k] = rng.randint(lo, hi)

    def init_permutation_chain(self, base, num_words):
        """Build a pointer-chase cycle: each word holds the address of the
        next node in a random permutation over the region."""
        order = list(range(num_words))
        self.rng.shuffle(order)
        memory = self.memory
        for position in range(num_words):
            current = order[position]
            nxt = order[(position + 1) % num_words]
            memory[base + 8 * current] = base + 8 * nxt
        return base + 8 * order[0]

    # ------------------------------------------------------------------
    # emission

    def static(self, pc, op, dst=None, srcs=(), imm=0):
        """The interned :class:`StaticInstr` for this encoding."""
        key = (pc, op, dst, srcs, imm)
        static = self._interned.get(key)
        if static is None:
            static = StaticInstr(len(self.statics), pc, op, dst, srcs, imm)
            self.statics.append(static)
            self._interned[key] = static
        return static

    def append(self, static, addr=0, flags=0):
        """Append one dynamic instance of ``static``: its effective address
        (memory ops) or its :data:`~repro.isa.trace.BRANCH` flag byte."""
        try:
            self.sids.append(static.sid)
        except OverflowError:  # past 65,536 statics: widen the id column
            self.sids = array("I", self.sids)
            self.sids.append(static.sid)
        try:
            self.addrs.append(addr)
        except OverflowError:  # an address of 2**32 or more: widen
            self.addrs = array("Q", self.addrs)
            self.addrs.append(addr)
        self.flags.append(flags)

    def emit(self, instr):
        """Append one :class:`~repro.isa.instruction.Instruction` record."""
        static = self.static(instr.pc, instr.op, instr.dst, instr.srcs,
                             instr.imm)
        flags = 0
        if static.is_branch:
            flags = (BRANCH | (TAKEN if instr.taken else 0)
                     | (MISPREDICTED if instr.mispredicted else 0))
        addr = instr.addr if static.is_mem else None
        self.append(static, addr or 0, flags)

    def finish(self, trace):
        """Hand the columns to ``trace`` (no copy) and return it.

        The memory image becomes two compact columns: addresses as
        ``array('I')`` while every one fits in 32 bits (``'Q'``
        otherwise, like :attr:`addrs`), values as ``array('Q')``.  The
        dict is not kept: cores read the image through
        :func:`~repro.isa.trace.resident_image`."""
        trace.name = self.name
        trace.category = self.category
        trace.statics = self.statics
        trace.sids = self.sids
        trace.addrs = self.addrs
        trace.flags = self.flags
        try:
            trace.image_addrs = array("I", self.memory.keys())
        except OverflowError:
            trace.image_addrs = array("Q", self.memory.keys())
        trace.image_values = array("Q", self.memory.values())
        return trace

    def build(self):
        return self.finish(Trace.__new__(Trace))
