"""In-order architectural emulator used as a correctness oracle."""

from repro.isa.opcodes import evaluate
from repro.isa.registers import ArchRegisters


class ArchEmulator(object):
    """Executes a trace sequentially with architectural semantics.

    The oracle keeps its own full copy of the trace's initial image, so
    it shares nothing with the cores it checks.

    Attributes after :meth:`run`:
        registers: final :class:`~repro.isa.registers.ArchRegisters`.
        memory: final memory image (8-byte-aligned address -> value).
        load_values: list of the value every dynamic load returned, in
            program order (used to validate the core's load resolution).
    """

    def __init__(self, trace):
        self.trace = trace
        self.registers = ArchRegisters()
        self.memory = trace.initial_memory()
        self.load_values = []
        self.store_values = []

    def step(self, static, addr):
        """Execute one instance of ``static`` (effective address ``addr``)
        architecturally."""
        srcs = tuple(self.registers.read(r) for r in static.srcs)
        if static.is_load:
            value = self.memory.get(addr & ~7, 0)
            self.load_values.append(value)
        elif static.is_store:
            value = evaluate(static.op, srcs, static.imm)
            self.memory[addr & ~7] = value
            self.store_values.append(value)
        else:
            value = evaluate(static.op, srcs, static.imm)
        if static.dst is not None:
            self.registers.write(static.dst, value)
        return value

    def run(self, limit=None):
        """Execute the whole trace (or the first ``limit`` instructions)."""
        trace = self.trace
        statics = trace.statics
        stop = len(trace) if limit is None else limit
        for sid, addr in zip(trace.sids[:stop], trace.addrs[:stop]):
            self.step(statics[sid], addr)
        return self
