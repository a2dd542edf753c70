"""Load/store queues, store-to-load forwarding, memory disambiguation.

This is the machinery RFP piggybacks on (paper §3.2.1): a prefetch launched
after rename scans older stores exactly like a demand load would, waits or
proceeds according to the memory-dependence predictor, and therefore needs
no second "validation" access — if the predicted address is right, the data
is right.

The dependence predictor is a store-set-flavoured PC-indexed saturating
counter (Chrysos & Emer): loads that suffered an ordering violation are
forced to wait for older stores; the prediction decays so transient
conflicts do not throttle a load PC forever.

Lookup structure: the queues answer three questions on the issue hot path
(youngest older forwarding store, any older unexecuted store, oldest
violating load), and each used to walk the full queue.  They are now
incremental:

- executed stores/loads live in a per-word-address index sorted by seq, so
  forwarding and violation checks bisect straight to the neighbours of the
  querying instruction instead of scanning the queue;
- "any older store with an unknown address" reads the head of a min-heap
  of unexecuted store seqs (invalidated entries are popped lazily — a
  store's state says whether its heap entry still counts).

The core's stage loops fill these structures directly: dispatch appends
a load to ``LoadQueue.entries`` (a store goes through
:meth:`StoreQueue.allocate`), a store or load enters its queue's
``_executed`` index the cycle it completes, and commit unlinks a retiring
load and decays the dependence predictor.  Results are identical to the
full walks.
"""

import heapq
from bisect import bisect_left

from repro.core import dyninstr as D


def _index_drop(index, dyn):
    """Remove ``dyn`` from a per-word (seq, dyn) index if present."""
    lst = index.get(dyn.word_addr)
    if lst:
        i = bisect_left(lst, (dyn.seq,))
        if i < len(lst) and lst[i][1] is dyn:
            del lst[i]
            if not lst:
                del index[dyn.word_addr]


class MemDepPredictor(object):
    """PC-indexed conflict predictor with periodic decay.

    The core's commit loop counts retiring loads in ``_commit_tick`` and
    decrements the entry of every ``decay_period``-th one, so stale
    conflict predictions expire.
    """

    def __init__(self, num_entries=4096, decay_period=64):
        self.num_entries = num_entries
        self.decay_period = decay_period
        self.table = [0] * num_entries
        self._commit_tick = 0
        self.violations = 0

    def _index(self, pc):
        return (pc >> 2) % self.num_entries

    def predict_conflict(self, pc):
        """True when the load at ``pc`` should wait for older stores."""
        return self.table[self._index(pc)] >= 2

    def train_violation(self, pc):
        """A load at ``pc`` consumed stale data; predict conflicts hard."""
        self.table[self._index(pc)] = 3
        self.violations += 1


class StoreQueue(object):
    """Program-ordered in-flight stores plus the senior (committed,
    draining-to-L1) stores that still hold queue slots."""

    def __init__(self, num_entries):
        self.num_entries = num_entries
        self.entries = []          # active DynInstr stores, oldest first
        self.senior = []           # (release_cycle,) for committed stores
        self.forwards = 0
        #: Executed stores by word address, each a seq-sorted (seq, dyn)
        #: list — the forwarding lookup structure.
        self._executed = {}
        #: Min-heap of (seq, dyn) for stores whose address is still
        #: unknown; dead entries (executed/squashed) are popped lazily.
        self._unexecuted = []
        #: Observability hook; set by the core when tracing is enabled.
        self.tracer = None

    @property
    def occupancy(self):
        return len(self.entries) + len(self.senior)

    def full(self, cycle):
        self.drain(cycle)
        return self.occupancy >= self.num_entries

    def allocate(self, dyn):
        dyn.in_sq = True
        unexecuted = self._unexecuted
        if len(unexecuted) > 64 + 4 * len(self.entries):
            # Mostly dead heap (squash/execution churn): rebuild from the
            # live window, which is already seq-sorted.
            unexecuted = [
                (d.seq, d) for d in self.entries if d.state == D.DISPATCHED
            ]
            self._unexecuted = unexecuted
        self.entries.append(dyn)
        heapq.heappush(unexecuted, (dyn.seq, dyn))

    def remove(self, dyn):
        self.entries.remove(dyn)
        dyn.in_sq = False
        _index_drop(self._executed, dyn)

    def drain(self, cycle):
        """Release senior entries whose L1 write has completed."""
        if self.senior:
            self.senior = [t for t in self.senior if t > cycle]

    def mark_senior(self, dyn, release_cycle):
        """Move a committing store to the senior (post-commit drain) list."""
        self.entries.remove(dyn)
        dyn.in_sq = False
        _index_drop(self._executed, dyn)
        self.senior.append(release_cycle)
        if self.tracer is not None:
            self.tracer.store_drain(dyn, release_cycle)

    def older_executed_match(self, seq, word_addr):
        """Youngest *executed* store older than ``seq`` writing ``word_addr``.

        This is the forwarding source for a load (or RFP request) at ``seq``.
        """
        lst = self._executed.get(word_addr)
        if lst:
            i = bisect_left(lst, (seq,)) - 1
            if i >= 0:
                store = lst[i][1]
                self.forwards += 1
                return store
        return None

    def peek_older_executed_match(self, seq, word_addr):
        """Like :meth:`older_executed_match` but without counting the
        forward — the idle-skip detector probes whether the RFP queue head
        *would* forward, and a probe must not perturb statistics."""
        lst = self._executed.get(word_addr)
        if lst:
            i = bisect_left(lst, (seq,)) - 1
            if i >= 0:
                return True
        return False

    def has_older_unexecuted(self, seq):
        """True when any store older than ``seq`` has not yet executed
        (its address is therefore unknown to the pipeline)."""
        heap = self._unexecuted
        DISPATCHED = D.DISPATCHED
        while heap and heap[0][1].state != DISPATCHED:
            heapq.heappop(heap)
        return bool(heap) and heap[0][0] < seq

    def __len__(self):
        return len(self.entries)


class LoadQueue(object):
    """Program-ordered in-flight loads; source of violation checks."""

    def __init__(self, num_entries):
        self.num_entries = num_entries
        self.entries = []
        #: Executed loads by word address, each a seq-sorted (seq, dyn)
        #: list — the violation-check lookup structure.
        self._executed = {}

    @property
    def full(self):
        return len(self.entries) >= self.num_entries

    def remove(self, dyn):
        self.entries.remove(dyn)
        dyn.in_lq = False
        _index_drop(self._executed, dyn)

    def oldest_violation(self, store):
        """Find the oldest younger load that executed with data older than
        ``store``'s — a memory-ordering violation.

        A load is a violator when it has executed, reads the store's word,
        and its data source predates the store (memory, or a forward from a
        store older than this one).  Loads that forwarded from this store or
        a younger one are safe.
        """
        lst = self._executed.get(store.word_addr)
        if not lst:
            return None
        seq = store.seq
        i = bisect_left(lst, (seq,))
        while i < len(lst):
            load = lst[i][1]
            src = load.forward_src_seq
            if src is None or src < seq:
                return load
            i += 1
        return None

    def __len__(self):
        return len(self.entries)
