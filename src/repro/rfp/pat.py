"""Page Address Table (paper §3.5).

Many static loads touch a small set of page frames, so instead of storing a
full 64-bit virtual address per Prefetch Table entry, the PT stores a 6-bit
pointer into this 64-entry, 4-way table of page frame numbers plus a 12-bit
page offset.  When a PAT entry is evicted the pointers into it go *stale*:
the next prediction through a stale pointer reconstructs an address in the
wrong page, mispredicts, and the PT relearns — exactly the behaviour the
paper describes (and measures at a negligible 0.09% cost, §5.5.4).
"""

from repro.memory.tlb import PAGE_SHIFT

PAGE_MASK = (1 << PAGE_SHIFT) - 1


class PageAddressTable(object):
    """Set-associative table of page frame numbers with LRU replacement.

    Pointers are ``(set_index, way_index)`` pairs — 6 bits for the paper's
    16-set x 4-way geometry.  Deliberately, a pointer dereference returns
    whatever page currently occupies the slot; staleness is not detectable
    by the hardware, only by the downstream address-check misprediction.
    """

    def __init__(self, num_entries=64, assoc=4):
        if num_entries % assoc:
            raise ValueError("PAT entries must divide evenly into ways")
        self.num_entries = num_entries
        self.assoc = assoc
        self.num_sets = num_entries // assoc
        # Each set: list of pages, index in list == way; LRU tracked aside.
        self.ways = [[None] * assoc for _ in range(self.num_sets)]
        self.lru = [list(range(assoc)) for _ in range(self.num_sets)]
        self.insertions = 0
        self.evictions = 0

    def _set_of(self, page):
        return page % self.num_sets

    def insert(self, page):
        """Ensure ``page`` is resident; return its pointer.

        Evicts the LRU way when the set is full, which silently invalidates
        any PT pointers into that way.
        """
        set_index = page % self.num_sets
        ways = self.ways[set_index]
        order = self.lru[set_index]
        if page in ways:
            way = ways.index(page)  # find
        else:
            way = order[0]
            if ways[way] is not None:
                self.evictions += 1
            ways[way] = page
            self.insertions += 1
        if order[-1] != way:  # the most recently used way goes last
            order.remove(way)
            order.append(way)
        return (set_index, way)

    def occupancy(self):
        """Number of ways currently holding a page frame number."""
        return sum(
            1 for ways in self.ways for page in ways if page is not None
        )

    def dereference(self, pointer):
        """Return the page currently at ``pointer`` (may be stale), or None
        when the slot has never been filled."""
        set_index, way = pointer
        return self.ways[set_index][way]

    @staticmethod
    def join(page, offset):
        return (page << PAGE_SHIFT) | offset

    def __repr__(self):
        return "<PageAddressTable %d entries %d-way>" % (self.num_entries, self.assoc)
