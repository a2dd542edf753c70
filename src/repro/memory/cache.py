"""Set-associative cache model with true-LRU replacement.

Timing is handled by :class:`repro.memory.hierarchy.MemoryHierarchy`; this
module models only presence/replacement.  That split keeps the hot lookup
path a couple of dict operations per access.
"""


class _EmptySet(dict):
    """The read-only empty set every cache set starts as (:data:`EMPTY_SET`).

    A cache set is made on its first fill: :meth:`Cache.fill` and the
    loaders that restore or adopt a whole cache replace this one shared
    object in the set's slot.  Any write that bypasses them raises
    instead of filling every untouched set at once.  A deep copy of a
    cache keeps sharing it.
    """

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("an untouched cache set is the shared read-only "
                        "EMPTY_SET; fill the set through Cache.fill")

    __setitem__ = __ior__ = setdefault = update = _read_only

    def __deepcopy__(self, memo):
        return self


#: The shared empty set (see :class:`_EmptySet`).
EMPTY_SET = _EmptySet()


class CacheStats(object):
    """Hit/miss counters for one cache level."""

    __slots__ = ("hits", "misses", "evictions", "fills", "prefetch_fills")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.fills = 0
        self.prefetch_fills = 0

    def __repr__(self):
        return "<CacheStats hits=%d misses=%d>" % (self.hits, self.misses)


class Cache(object):
    """A set-associative cache with true-LRU replacement.

    Lines are identified by line address (``addr >> line_shift``).  Each set
    is an ordered dict from tag to a per-line record; ordering encodes
    recency (last item = most recently used).  A set no line has entered
    is the shared :data:`EMPTY_SET`, so a fresh cache costs one list slot
    per set; :meth:`fill` makes the set's own dict.

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
        # One dict per set: {tag: dirty_bool}, insertion order = LRU order;
        # EMPTY_SET until the set's first fill.
        self.sets = [EMPTY_SET] * self.num_sets
        self.stats = CacheStats()

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
        if cache_set is EMPTY_SET:
            cache_set = self.sets[line & self.set_mask] = {}
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

    def __repr__(self):
        return "<Cache %s %dKB %d-way>" % (
            self.name,
            self.size_bytes // 1024,
            self.assoc,
        )
