"""Reorder buffer: in-order dispatch and retire, youngest-first squash."""

from collections import deque


class ReorderBuffer(object):
    """Bounded FIFO of in-flight :class:`~repro.core.dyninstr.DynInstr`."""

    def __init__(self, num_entries):
        self.num_entries = num_entries
        self.entries = deque()

    @property
    def full(self):
        return len(self.entries) >= self.num_entries

    def squash_younger_than(self, seq, inclusive=False):
        """Remove and yield (youngest first) entries with ``seq`` greater
        than the given sequence number — or greater-or-equal when
        ``inclusive`` is set (used when the faulting load itself must
        re-execute, e.g. a memory-ordering violation).
        """
        squashed = []
        while self.entries:
            tail = self.entries[-1]
            if tail.seq > seq or (inclusive and tail.seq == seq):
                squashed.append(self.entries.pop())
            else:
                break
        return squashed

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return "<ROB %d/%d>" % (len(self.entries), self.num_entries)
