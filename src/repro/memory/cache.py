"""Set-associative cache model with true-LRU replacement.

Timing is handled by :class:`repro.memory.hierarchy.MemoryHierarchy`; this
module models only presence/replacement.  That split keeps the hot lookup
path a couple of dict operations per access.
"""


class CacheStats(object):
    """Hit/miss counters for one cache level."""

    __slots__ = ("hits", "misses", "evictions", "fills", "prefetch_fills")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.fills = 0
        self.prefetch_fills = 0

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        total = self.accesses
        return self.hits / total if total else 0.0

    def as_dict(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "fills": self.fills,
            "prefetch_fills": self.prefetch_fills,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self):
        return "<CacheStats hits=%d misses=%d>" % (self.hits, self.misses)


class Cache(object):
    """A set-associative cache with true-LRU replacement.

    Lines are identified by line address (``addr >> line_shift``).  Each set
    is an ordered dict from tag to a per-line record; ordering encodes
    recency (last item = most recently used).

    Args:
        size_bytes: total capacity.
        assoc: ways per set.
        line_bytes: line size (must be a power of two).
        name: label used in stats reports.
    """

    def __init__(self, size_bytes, assoc, line_bytes=64, name="cache"):
        if size_bytes % (assoc * line_bytes):
            raise ValueError(
                "size %d not divisible by assoc*line (%d*%d)"
                % (size_bytes, assoc, line_bytes)
            )
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.line_shift = line_bytes.bit_length() - 1
        if (1 << self.line_shift) != line_bytes:
            raise ValueError("line_bytes must be a power of two")
        self.num_sets = size_bytes // (assoc * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        self.set_mask = self.num_sets - 1
        # One dict per set: {tag: dirty_bool}, insertion order = LRU order.
        self.sets = [dict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def line_addr(self, addr):
        """Return the line address (full address >> line shift)."""
        return addr >> self.line_shift

    def lookup(self, line):
        """Probe for a line; updates LRU and hit/miss stats.

        Returns True on hit.
        """
        cache_set = self.sets[line & self.set_mask]
        if line in cache_set:
            dirty = cache_set.pop(line)
            cache_set[line] = dirty
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def contains(self, line):
        """Probe without touching LRU state or statistics."""
        return line in self.sets[line & self.set_mask]

    def fill(self, line, dirty=False, is_prefetch=False):
        """Insert a line, evicting the LRU way if the set is full.

        Returns the evicted ``(line, dirty)`` pair, or ``None``.
        """
        cache_set = self.sets[line & self.set_mask]
        victim = None
        if line in cache_set:
            # Refill of a present line: merge dirty bit, refresh recency.
            dirty = cache_set.pop(line) or dirty
        elif len(cache_set) >= self.assoc:
            victim_line = next(iter(cache_set))
            victim = (victim_line, cache_set.pop(victim_line))
            self.stats.evictions += 1
        cache_set[line] = dirty
        self.stats.fills += 1
        if is_prefetch:
            self.stats.prefetch_fills += 1
        return victim

    def mark_dirty(self, line):
        """Set the dirty bit of a present line (store hit)."""
        cache_set = self.sets[line & self.set_mask]
        if line in cache_set:
            cache_set[line] = True
            return True
        return False

    def invalidate(self, line):
        """Drop a line if present; returns True if it was present."""
        cache_set = self.sets[line & self.set_mask]
        if line in cache_set:
            del cache_set[line]
            return True
        return False

    def occupancy(self):
        """Total number of valid lines currently resident."""
        return sum(len(s) for s in self.sets)

    def __repr__(self):
        return "<Cache %s %dKB %d-way>" % (
            self.name,
            self.size_bytes // 1024,
            self.assoc,
        )
