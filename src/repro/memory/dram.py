"""Flat-latency DRAM model with a work-conserving bandwidth queue.

The paper quotes a 200-cycle main-memory latency for its Tiger-Lake-like
baseline.  We model a fixed access latency behind a single service queue
with a fixed line-fill service rate (``max_per_window`` fills per
``window`` cycles).  The queue is work conserving: a burst delays later
requests by exactly the backlog it creates and no request can jump the
queue — important for fairness between configurations that merely *reorder*
the same miss stream (e.g. value prediction pulling dependent misses
earlier must not inflate total DRAM service time).
"""


class DRAM(object):
    """Fixed-latency, bandwidth-limited memory.

    Args:
        latency: access latency in cycles (paper: 200).
        max_per_window: line fills serviced per scheduling window.
        window: window size in cycles.
    """

    def __init__(self, latency=200, max_per_window=4, window=8):
        self.latency = latency
        self.max_per_window = max_per_window
        self.window = window
        #: Cycles of service time each fill occupies.
        self.service_interval = window / max_per_window
        self._next_free = 0.0
        self.accesses = 0
        self.bandwidth_delays = 0

    def access(self, cycle):
        """Launch a line fill at ``cycle``; returns the completion cycle."""
        self.accesses += 1
        issue = max(float(cycle), self._next_free)
        if issue > cycle:
            self.bandwidth_delays += 1
        self._next_free = issue + self.service_interval
        return int(issue) + self.latency

    def __repr__(self):
        return "<DRAM latency=%d, %.1f cycles/fill>" % (
            self.latency,
            self.service_interval,
        )
