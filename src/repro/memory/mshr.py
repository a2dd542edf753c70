"""Miss Status Holding Registers for the L1 data cache.

The MSHR file tracks in-flight line fills.  A demand access to a line that
already has an outstanding fill is an *MSHR hit* (the paper's Fig. 2 breaks
these out separately): it completes when the existing fill returns rather
than launching a second request.  When all entries are busy, a new miss is
queued behind the earliest-completing entry, which models miss-bandwidth
back-pressure without a separate retry engine.

Entries expire lazily: every access first drops the fills that have
landed by its cycle.  The file keeps its earliest fill time, so that
expiry is one comparison until some fill is actually due — the core's
L1-hit fast path runs it on every load.
"""

INFINITY = float("inf")


class MSHRFile(object):
    """In-flight miss tracker with a fixed number of entries.

    Args:
        num_entries: maximum number of distinct outstanding line fills.
    """

    def __init__(self, num_entries=16):
        self.num_entries = num_entries
        # line -> fill completion cycle
        self.inflight = {}
        #: Earliest fill time in ``inflight`` (infinity when empty); only
        #: :meth:`expire`, :meth:`allocate` and :meth:`reset` move it.
        self.next_fill = INFINITY
        self.mshr_hits = 0
        self.allocations = 0
        self.full_stalls = 0

    def expire(self, cycle):
        """Drop every fill that has completed by ``cycle``."""
        if cycle < self.next_fill:
            return
        inflight = self.inflight
        done = [line for line, t in inflight.items() if t <= cycle]
        for line in done:
            del inflight[line]
        self.next_fill = min(inflight.values()) if inflight else INFINITY

    def probe(self, line, cycle):
        """Return the completion cycle of an in-flight fill of ``line``.

        Returns ``None`` when no fill for the line is outstanding.  Counts
        an MSHR hit when one is.
        """
        self.expire(cycle)
        fill_time = self.inflight.get(line)
        if fill_time is not None:
            self.mshr_hits += 1
        return fill_time

    def allocate(self, line, cycle, fill_time):
        """Allocate an entry for a new miss.

        If the file is full, the fill is delayed until the earliest current
        entry retires (modelled as a serial dependency), and the delayed
        completion time is returned.  Otherwise ``fill_time`` is returned
        unchanged.
        """
        self.expire(cycle)
        inflight = self.inflight
        if line in inflight:
            return inflight[line]
        if len(inflight) >= self.num_entries:
            earliest = self.next_fill
            delay = max(0, earliest - cycle)
            fill_time += delay
            self.full_stalls += 1
            # Free the earliest entry to make room; it has completed by the
            # time the new fill is considered issued.
            for line_key, t in list(inflight.items()):
                if t == earliest:
                    del inflight[line_key]
                    break
            self.next_fill = min(inflight.values()) if inflight else INFINITY
        inflight[line] = fill_time
        if fill_time < self.next_fill:
            self.next_fill = fill_time
        self.allocations += 1
        return fill_time

    @property
    def occupancy(self):
        return len(self.inflight)

    def reset(self):
        self.inflight.clear()
        self.next_fill = INFINITY

    def __repr__(self):
        return "<MSHRFile %d/%d inflight>" % (len(self.inflight), self.num_entries)
