"""Trace construction helpers: PC/region allocation and memory init."""

import random

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.trace import Trace

CODE_BASE = 0x400000
HEAP_BASE = 0x10000000
MASK64 = (1 << 64) - 1


class TraceBuilder(object):
    """Accumulates instructions and the initial memory image.

    Kernels allocate static PCs and data regions once at construction and
    then emit dynamic instances; the builder owns the global address space
    so concurrently interleaved kernels never collide.
    """

    def __init__(self, name="trace", category="", seed=0):
        self.name = name
        self.category = category
        self.rng = random.Random(seed)
        self.instructions = []
        self.memory = {}
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

    def emit(self, instr):
        self.instructions.append(instr)
        return instr

    def load(self, pc, dst, addr, srcs=()):
        return self.emit(Instruction(pc, Op.LOAD, dst=dst, srcs=srcs, addr=addr))

    def store(self, pc, data_src, addr, addr_srcs=()):
        return self.emit(
            Instruction(pc, Op.STORE, srcs=(data_src,) + tuple(addr_srcs), addr=addr)
        )

    def build(self):
        return Trace(
            self.instructions,
            memory_image=self.memory,
            name=self.name,
            category=self.category,
        )
