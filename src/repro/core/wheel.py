"""Cycle-indexed timing wheel: the event queue of the event-driven core.

A :class:`TimingWheel` maps future cycles to ordered lists of scheduled
items.  It replaces per-cycle polling of simulator structures with direct
"advance to the next cycle that has work" queries:

- the scheduler parks instructions whose operands become readable at a
  known future cycle (cache fills, DRAM returns, replay wakeups) and pops
  them when that cycle arrives;
- the core parks timed pipeline events (branch resolutions, value-
  misprediction flushes) the same way;
- the idle-skip analysis asks :attr:`cycles` ``[0]`` — the earliest cycle
  holding any work — instead of rescanning every in-flight instruction.

Items scheduled for the same cycle come back in insertion order, so
same-cycle events fire in the order they were scheduled.

The structure is a dict of per-cycle slots plus a min-heap of slot keys:
``schedule`` is O(log n) only when it opens a new cycle slot, appends are
O(1), and an idle window costs nothing at all — cycles with no slot are
never visited.
"""

import heapq


class TimingWheel(object):
    """Sparse cycle -> [item, ...] schedule with O(1) next-cycle peek."""

    __slots__ = ("cycles", "slots")

    def __init__(self):
        #: Min-heap of cycles that have a non-empty slot.  Peek
        #: ``cycles[0]`` directly on hot paths; it is the next event cycle.
        self.cycles = []
        self.slots = {}

    def schedule(self, cycle, item):
        """Park ``item`` to be popped once ``cycle`` is reached."""
        slot = self.slots.get(cycle)
        if slot is None:
            self.slots[cycle] = [item]
            heapq.heappush(self.cycles, cycle)
        else:
            slot.append(item)

    def next_cycle(self):
        """Earliest cycle holding work, or None when the wheel is empty."""
        return self.cycles[0] if self.cycles else None

    def pop_due(self, cycle):
        """Yield every item scheduled at or before ``cycle``.

        Items come out in (cycle, insertion) order.
        """
        cycles = self.cycles
        slots = self.slots
        while cycles and cycles[0] <= cycle:
            for item in slots.pop(heapq.heappop(cycles)):
                yield item

    def __bool__(self):
        return bool(self.cycles)

    def __len__(self):
        return sum(len(slot) for slot in self.slots.values())

    def __repr__(self):
        return "<TimingWheel %d cycles, next=%s>" % (
            len(self.cycles),
            self.cycles[0] if self.cycles else "empty",
        )
