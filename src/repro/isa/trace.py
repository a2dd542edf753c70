"""Columnar trace container and the rewindable fetch cursor.

A :class:`Trace` is the unit of work the simulator consumes.  A workload
repeats a few dozen static instructions tens of thousands of times, so the
trace keeps one :class:`~repro.isa.instruction.StaticInstr` per distinct
static instruction and, per dynamic instance, only what varies: its
static id, its effective address and a flag byte, in three arrays indexed
by trace position (7 bytes per instruction while every address fits in
32 bits).  The initial memory image stays two compact parallel columns;
:func:`resident_image` expands it into a dict once per process, for
every core built on the trace to read.

The :class:`TraceCursor` is the frontend's view of the trace; it supports
rewinding to an arbitrary instruction index, which is how memory-ordering
and value-misprediction flushes restart execution from the offending load.
"""

from functools import lru_cache

from repro.isa.instruction import Instruction

#: Bits of a trace's per-instruction flag byte.  Only branches carry any:
#: ``BRANCH`` marks one, so the frontend updates path history from this
#: byte alone.
BRANCH, TAKEN, MISPREDICTED = 1, 2, 4


class Trace(object):
    """An instruction trace plus its initial memory image.

    Attributes:
        name: workload name (e.g. ``"spec06_mcf"``).
        category: workload category (e.g. ``"ISPEC06"``).
        statics: list of :class:`~repro.isa.instruction.StaticInstr`,
            indexed by static id.
        sids: ``array('H')`` of static ids, one per dynamic instruction
            (``array('I')`` past 65,536 statics).
        addrs: ``array('I')`` of effective addresses (0 for non-memory
            ops; ``array('Q')`` once an address reaches 2**32).
        flags: ``bytearray`` of :data:`BRANCH` | :data:`TAKEN` |
            :data:`MISPREDICTED` bits.
        image_addrs, image_values: columns of the initial memory image
            (8-byte-aligned address -> 64-bit value), in the order the
            builder first wrote each address; ``image_addrs`` is
            ``array('I')`` like ``addrs`` (``'Q'`` past 32 bits),
            ``image_values`` ``array('Q')``.  Addresses absent from the
            image read as zero.  Nothing expands the image onto the
            trace: :meth:`initial_memory` returns a private copy and
            :func:`resident_image` the process's one shared copy.

    ``Trace(instructions, memory_image)`` encodes a list of
    :class:`~repro.isa.instruction.Instruction` records through
    :class:`~repro.workloads.builder.TraceBuilder`, the one writer of
    these columns; ``trace[i]`` reads one back as a fresh record.
    """

    __slots__ = ("name", "category", "statics", "sids", "addrs", "flags",
                 "image_addrs", "image_values")

    def __init__(self, instructions=(), memory_image=None, name="trace",
                 category=""):
        # Imported here: the builder module imports this one.
        from repro.workloads.builder import TraceBuilder

        builder = TraceBuilder(name, category)
        builder.memory.update(memory_image or {})
        for instr in instructions:
            builder.emit(instr)
        builder.finish(self)

    def __len__(self):
        return len(self.sids)

    def __getitem__(self, index):
        index = range(len(self.sids))[index]
        static = self.statics[self.sids[index]]
        flags = self.flags[index]
        instr = Instruction(
            static.pc, static.op, dst=static.dst, srcs=static.srcs,
            imm=static.imm,
            addr=self.addrs[index] if static.is_mem else None,
            taken=bool(flags & TAKEN), mispredicted=bool(flags & MISPREDICTED),
        )
        instr.index = index
        return instr

    def __iter__(self):
        for index in range(len(self.sids)):
            yield self[index]

    def initial_memory(self):
        """A fresh dict of the initial memory image, in image order."""
        return dict(zip(self.image_addrs, self.image_values))

    @property
    def load_count(self):
        statics = self.statics
        return sum(1 for sid in self.sids if statics[sid].is_load)

    def __repr__(self):
        return "<Trace %s: %d instrs, %d loads>" % (
            self.name,
            len(self.sids),
            self.load_count,
        )


@lru_cache(maxsize=1)
def resident_image(trace):
    """The initial memory image of ``trace`` as a dict, in image order,
    shared read-only by every core, warmer and checkpoint restore of the
    process: a core's committed memory is a dict of its own writes over
    this image.

    A process holds one expanded image: asking for another trace's
    replaces it, and ``resident_image.cache_clear()`` drops it (the sweep
    executors do when they move to another trace).  Callers must never
    write to the returned dict.
    """
    return trace.initial_memory()


class TraceCursor(object):
    """Rewindable fetch pointer over a trace.

    The out-of-order core fetches through this cursor.  ``rewind(index)``
    implements pipeline flushes: after a memory-disambiguation or
    value-prediction flush the core squashes the ROB back to the faulting
    instruction and re-fetches the trace from that index.
    """

    def __init__(self, trace):
        self.trace = trace
        self._length = len(trace)
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
