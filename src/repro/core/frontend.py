"""Trace-driven frontend with a uop-cache-style fixed fetch-to-alloc delay.

The frontend models exactly what the paper leans on in §2.2/§3: with a uop
cache the fetch-to-allocate window is short (``frontend_latency``, default
4 cycles), so fetch-time address predictors rarely finish a 5-cycle L1
probe in time, while an RFP launched *after rename* inherits the full
scheduling-pipeline window instead.

Branch handling is trace driven without wrong-path fetch: a mispredicted
branch blocks further fetch until it resolves, then fetch resumes after the
redirect penalty.  Flushes (memory-ordering or value mispredictions) rewind
the trace cursor and restart fetch from the faulting instruction.
"""

from collections import deque

from repro.isa.trace import MISPREDICTED, TAKEN, TraceCursor

PATH_MASK = 0xFFFF


class Frontend(object):
    """Fetches trace instructions into a small decoded-uop buffer.

    ``buffer`` holds ``(ready_at, index)`` pairs in program order, where
    ``index`` is the trace position; the core's dispatch loop takes its
    head once ``ready_at`` has passed.
    """

    def __init__(self, config, trace):
        self.config = config
        self.cursor = TraceCursor(trace)
        self.buffer = deque()
        # Hoisted config scalars: fetch() runs every cycle.
        self.fetch_width = config.fetch_width
        self.frontend_latency = config.frontend_latency
        self.buffer_capacity = config.fetch_width * (config.frontend_latency + 2)
        self.stall_until = 0
        self.blocked_branch_index = None
        #: Global branch path history (taken bits), consumed by context and
        #: path-based predictors.
        self.path_history = 0
        self.fetched = 0
        #: Observability hook; set by the core when tracing is enabled.
        self.tracer = None
        #: Invariant locals of :meth:`fetch`, packed once (the buffer and
        #: cursor objects are mutated in place, never rebound).
        self._fetch_inv = (
            self.fetch_width, self.frontend_latency, self.buffer,
            self.buffer_capacity, self.cursor, trace.flags,
        )

    def fetch(self, cycle, on_fetch=None):
        """Fetch up to ``fetch_width`` instructions this cycle.

        ``on_fetch(index, cycle, path_history)`` is invoked per instruction
        (the DLVP-family predictors hook their fetch-time probes here).
        Only the trace's flag byte is read: it marks branches and their
        direction and misprediction.
        """
        if self.blocked_branch_index is not None or cycle < self.stall_until:
            return 0
        # The cursor is read and advanced in place: this loop runs every
        # busy cycle.  ``cursor.index`` is re-read per iteration in case a
        # fetch hook ever rewinds the cursor mid-fetch.
        (fetch_width, frontend_latency, buffer, capacity, cursor,
         flags) = self._fetch_inv
        # The fetch limit is read per call (not hoisted into _fetch_inv):
        # the sampling runner assigns cursor.limit after construction.
        length = cursor.limit
        fetched = 0
        ready_at = cycle + frontend_latency
        tracer = self.tracer
        while fetched < fetch_width:
            if len(buffer) >= capacity:
                break
            index = cursor.index
            if index >= length:
                break
            cursor.index = index + 1
            buffer.append((ready_at, index))
            if tracer is not None:
                tracer.note_fetch(cycle, index)
            if on_fetch is not None:
                on_fetch(index, cycle, self.path_history)
            fetched += 1
            self.fetched += 1
            flag = flags[index]
            if flag:  # a branch
                self.path_history = (
                    (self.path_history << 1) | (1 if flag & TAKEN else 0)
                ) & PATH_MASK
                if flag & MISPREDICTED:
                    self.blocked_branch_index = index
                    break
        return fetched

    def branch_resolved(self, instr_index, cycle):
        """A mispredicted branch resolved; resume fetch after the redirect.

        The configured penalty is the *total* resolve-to-dispatch cost; the
        frontend pipe refill (``frontend_latency``) happens naturally as
        fetched uops age through the buffer, so only the remainder is
        charged as a fetch stall.
        """
        if self.blocked_branch_index == instr_index:
            self.blocked_branch_index = None
            extra = max(
                1, self.config.branch_redirect_penalty - self.config.frontend_latency
            )
            self.stall_until = cycle + extra

    def flush_rewind(self, trace_index, resume_cycle):
        """Squash fetched-but-undispatched uops and restart from
        ``trace_index`` once ``resume_cycle`` arrives."""
        self.buffer.clear()
        self.cursor.rewind(trace_index)
        self.blocked_branch_index = None
        self.stall_until = resume_cycle

    def __repr__(self):
        return "<Frontend idx=%d buffered=%d stall_until=%d>" % (
            self.cursor.index,
            len(self.buffer),
            self.stall_until,
        )
