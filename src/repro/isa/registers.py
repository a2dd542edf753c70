"""Architectural register file definitions.

We model a flat space of 32 architectural integer registers (an x86-64 core
has 16 GPRs plus vector registers; 32 flat registers is a convenient superset
that lets the workload generator build wide dependence graphs without
modelling the vector file separately).
"""

NUM_ARCH_REGS = 32


class ArchRegisters(object):
    """Architectural register state, used by the reference emulator."""

    __slots__ = ("values",)

    def __init__(self):
        self.values = [0] * NUM_ARCH_REGS

    def read(self, index):
        return self.values[index]

    def write(self, index, value):
        self.values[index] = value

    def __eq__(self, other):
        if isinstance(other, ArchRegisters):
            return self.values == other.values
        return NotImplemented

    def __repr__(self):
        nonzero = {i: v for i, v in enumerate(self.values) if v}
        return "<ArchRegisters %r>" % (nonzero,)
