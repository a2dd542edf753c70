"""Data TLB model.

RFP drops prefetches that miss the DTLB (paper §3.2.2): a page walk takes
long enough that the prefetch would have no run-ahead left.  The core's
demand loads pay the walk latency instead.
"""

PAGE_SHIFT = 12  # 4KB pages


class DTLB(object):
    """Set-associative data TLB with true-LRU replacement.

    Args:
        num_entries: total entries.
        assoc: ways per set.
        walk_latency: page-walk latency in cycles charged on a miss.
    """

    def __init__(self, num_entries=64, assoc=4, walk_latency=30):
        if num_entries % assoc:
            raise ValueError("entries must divide evenly into ways")
        self.num_entries = num_entries
        self.assoc = assoc
        self.walk_latency = walk_latency
        self.num_sets = num_entries // assoc
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of TLB sets must be a power of two")
        self.set_mask = self.num_sets - 1
        self.sets = [dict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def lookup(self, addr, fill=True):
        """Translate ``addr``.

        Returns ``(hit, extra_latency)`` where ``extra_latency`` is the page
        walk cost on a miss (0 on a hit).  When ``fill`` is False a miss does
        not install the translation — RFP probes use this, since a dropped
        prefetch must not perturb TLB contents.
        """
        page = addr >> PAGE_SHIFT
        tlb_set = self.sets[page & self.set_mask]
        if page in tlb_set:
            tlb_set.pop(page)
            tlb_set[page] = True
            self.hits += 1
            return True, 0
        self.misses += 1
        if fill:
            if len(tlb_set) >= self.assoc:
                tlb_set.pop(next(iter(tlb_set)))
            tlb_set[page] = True
        return False, self.walk_latency

    def probe(self, addr):
        """Check for a translation without filling or counting stats."""
        page = addr >> PAGE_SHIFT
        return page in self.sets[page & self.set_mask]

    def __repr__(self):
        return "<DTLB %d-entry %d-way>" % (self.num_entries, self.assoc)
