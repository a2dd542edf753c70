"""Trace container and the rewindable fetch cursor.

A :class:`Trace` is the unit of work the simulator consumes: a list of
dynamic instructions plus the initial memory image they execute against.
The :class:`TraceCursor` is the frontend's view of the trace; it supports
rewinding to an arbitrary instruction index, which is how memory-ordering
and value-misprediction flushes restart execution from the offending load.
"""


class Trace(object):
    """An instruction trace plus its initial memory image.

    Attributes:
        name: workload name (e.g. ``"spec06_mcf"``).
        category: workload category (e.g. ``"ISPEC06"``).
        instructions: list of :class:`~repro.isa.instruction.Instruction`.
        memory_image: dict mapping 8-byte-aligned virtual address -> initial
            64-bit value.  Addresses absent from the image read as zero.
    """

    def __init__(self, instructions, memory_image=None, name="trace", category=""):
        self.name = name
        self.category = category
        self.instructions = list(instructions)
        self.memory_image = dict(memory_image or {})
        for index, instr in enumerate(self.instructions):
            instr.index = index

    def __len__(self):
        return len(self.instructions)

    def __getitem__(self, index):
        return self.instructions[index]

    def __iter__(self):
        return iter(self.instructions)

    @property
    def load_count(self):
        return sum(1 for i in self.instructions if i.is_load)

    def __repr__(self):
        return "<Trace %s: %d instrs, %d loads>" % (
            self.name,
            len(self.instructions),
            self.load_count,
        )


class TraceCursor(object):
    """Rewindable fetch pointer over a trace.

    The out-of-order core fetches through this cursor.  ``rewind(index)``
    implements pipeline flushes: after a memory-disambiguation or
    value-prediction flush the core squashes the ROB back to the faulting
    instruction and re-fetches the trace from that index.
    """

    def __init__(self, trace):
        self.trace = trace
        #: Cached instruction list + length: the frontend's fetch loop
        #: reads the list and advances ``index`` in place every busy cycle.
        self._instructions = trace.instructions
        self._length = len(trace.instructions)
        self.index = 0
        #: Fetch limit (exclusive): instructions at or past this index are
        #: never fetched.  Defaults to the trace length; the interval
        #: sampling runner lowers it so one measurement interval drains
        #: naturally after exactly ``limit - start`` instructions instead
        #: of being stopped mid-pipeline.
        self.limit = self._length

    @property
    def exhausted(self):
        return self.index >= self.limit

    def rewind(self, index):
        """Reset the cursor so the next fetch returns instruction ``index``."""
        if index < 0 or index > self._length:
            raise ValueError("rewind index %d out of range" % index)
        self.index = index
