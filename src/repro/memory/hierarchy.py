"""The multi-level memory hierarchy glue: L1D + L2 + LLC + DRAM + DTLB.

Timing model
------------
Each level has an end-to-end *load-to-use* latency (address generation,
translation, lookup, and rotation folded in, as the paper's §2.4 describes
for the L1's 5 cycles).  A load that hits at level N completes at
``issue_cycle + latency[N]``.  Presence state (which lines are cached) is
updated immediately on access; only completion *times* are delayed.  This is
the standard cycle-level approximation and preserves the latency-wall
structure the paper analyses in Fig. 1.

Oracle modes (Fig. 1) override the latency a given level's hits are served
at: "oracle prefetching from level N to level N-1 ensures all hits at level
N are served at the latency of level N-1".
"""

from collections import namedtuple

from repro.memory.cache import Cache
from repro.memory.dram import DRAM
from repro.memory.mshr import MSHRFile
from repro.memory.prefetcher import L2StridePrefetcher
from repro.memory.tlb import DTLB, PAGE_SHIFT

#: Result of a hierarchy access: absolute completion cycle plus the level
#: that served the data ("L1", "L2", "LLC", "DRAM", "MSHR").
AccessResult = namedtuple("AccessResult", ["complete", "level"])

LEVELS = ("L1", "L2", "LLC", "DRAM", "MSHR")


class MemoryHierarchy(object):
    """L1D/L2/LLC/DRAM stack with MSHRs, DTLB and an L2 stride prefetcher.

    Args:
        config: a :class:`repro.core.config.CoreConfig` (only its memory
            fields are read, so tests can pass any object with the same
            attributes).
    """

    def __init__(self, config):
        self.config = config
        self.l1 = Cache(config.l1_size, config.l1_assoc, config.line_bytes, name="L1D")
        self.l2 = Cache(config.l2_size, config.l2_assoc, config.line_bytes, name="L2")
        self.llc = Cache(config.llc_size, config.llc_assoc, config.line_bytes, name="LLC")
        self.dram = DRAM(
            latency=config.dram_latency,
            max_per_window=config.dram_max_per_window,
            window=config.dram_window,
        )
        self.mshr = MSHRFile(config.l1_mshrs)
        self.dtlb = DTLB(
            num_entries=config.dtlb_entries,
            assoc=config.dtlb_assoc,
            walk_latency=config.dtlb_walk_latency,
        )
        if config.l2_prefetcher_enabled:
            self.l2_prefetcher = L2StridePrefetcher(
                num_entries=config.l2_prefetcher_entries,
                degree=config.l2_prefetcher_degree,
            )
        else:
            self.l2_prefetcher = None
        self.l1_next_line = config.l1_next_line_prefetch
        # Per-level latency, possibly overridden by oracle modes.
        self.latency = {
            "L1": config.l1_latency,
            "L2": config.l2_latency,
            "LLC": config.llc_latency,
        }
        self.oracle_overrides = dict(config.oracle_overrides)
        self.loads_served = {level: 0 for level in LEVELS}
        self.store_accesses = 0
        #: L1 load-to-use latency after oracle overrides, precomputed for
        #: the per-load hit path (overrides are fixed at construction).
        self._l1_serve = self._serve_latency("L1")

    # ------------------------------------------------------------------
    # latency helpers

    def _serve_latency(self, level):
        """Load-to-use latency for a hit at ``level``, after oracle overrides."""
        override = self.oracle_overrides.get(level)
        if override is not None:
            return override
        if level == "DRAM":
            return self.dram.latency
        return self.latency[level]

    def line_of(self, addr):
        return addr >> self.l1.line_shift

    # ------------------------------------------------------------------
    # loads

    def l1_hit(self, addr, cycle):
        """The fast case of :meth:`load`: a DTLB hit and an L1 hit whose
        own line has no fill in flight.

        Returns the completion cycle after making exactly the changes
        :meth:`load` makes for that case (DTLB and L1 LRU touches, hit
        counts, the MSHR expiry at ``cycle`` — a DTLB hit adds no walk),
        except the load-distribution count, which is the caller's.
        Returns None for any other case; the caller then runs
        :meth:`load`, and the only change made here, an expiry ``load``
        would run at ``cycle`` or later anyway, leaves its outcome as it
        was.  The RFP pump calls this first; the core's demand-load path
        inlines it.
        """
        dtlb = self.dtlb
        page = addr >> PAGE_SHIFT
        tlb_set = dtlb.sets[page & dtlb.set_mask]
        if page not in tlb_set:
            return None
        l1 = self.l1
        line = addr >> l1.line_shift
        l1_set = l1.sets[line & l1.set_mask]
        if line not in l1_set:
            return None
        mshr = self.mshr
        if cycle >= mshr.next_fill:
            mshr.expire(cycle)
        if line in mshr.inflight:
            return None  # an MSHR hit
        tlb_set.pop(page)
        tlb_set[page] = True
        dtlb.hits += 1
        l1_set[line] = l1_set.pop(line)
        l1.stats.hits += 1
        return cycle + self._l1_serve

    def load(self, addr, pc, cycle, fill_tlb=True, count_distribution=True):
        """Perform a demand (or RFP) load access starting at ``cycle``.

        Returns an :class:`AccessResult`.  The DTLB walk, if any, is charged
        serially before the cache lookup.
        """
        _, walk = self.dtlb.lookup(addr, fill=fill_tlb)
        start = cycle + walk
        line = self.line_of(addr)

        if self.l1.lookup(line):
            # Present, but possibly still being filled: a load to a line
            # whose fill is in flight is an MSHR hit (Fig. 2's category) and
            # completes when the fill returns.
            if self.mshr.inflight:
                pending = self.mshr.probe(line, start)
                if pending is not None:
                    complete = max(pending, start + self._l1_serve)
                    if count_distribution:
                        self.loads_served["MSHR"] += 1
                    return AccessResult(complete, "MSHR")
            result = AccessResult(start + self._l1_serve, "L1")
            if count_distribution:
                self.loads_served["L1"] += 1
            return result

        if self.l2.lookup(line):
            level = "L2"
            complete = start + self._serve_latency("L2")
        elif self.llc.lookup(line):
            level = "LLC"
            complete = start + self._serve_latency("LLC")
        else:
            level = "DRAM"
            override = self.oracle_overrides.get("DRAM")
            if override is not None:
                complete = start + override
            else:
                complete = self.dram.access(start)
            self.llc.fill(line)
        # Fill inward and register the in-flight fill.
        if level != "L2":
            self.l2.fill(line)
        self.l1.fill(line)
        complete = self.mshr.allocate(line, start, complete)
        if count_distribution:
            self.loads_served[level] += 1
        if self.l2_prefetcher is not None:
            self._run_l2_prefetcher(pc, line)
        if self.l1_next_line:
            self._next_line_prefetch(line, start, complete)
        return AccessResult(complete, level)

    def _next_line_prefetch(self, line, start, demand_complete):
        """DCU-style next-line prefetch into the L1 on a demand miss.

        The next line is brought in piggybacked one cycle behind the demand
        fill; accesses that arrive before it lands are MSHR hits.
        """
        next_line = line + 1
        if self.l1.contains(next_line) or next_line in self.mshr.inflight:
            return
        self.l1.fill(next_line, is_prefetch=True)
        if not self.l2.contains(next_line):
            self.l2.fill(next_line, is_prefetch=True)
        self.mshr.allocate(next_line, start, demand_complete + 1)

    def _run_l2_prefetcher(self, pc, line):
        for pf_line in self.l2_prefetcher.train(pc, line):
            if pf_line < 0:
                continue
            if not self.l2.contains(pf_line):
                self.l2.fill(pf_line, is_prefetch=True)
            if not self.llc.contains(pf_line):
                self.llc.fill(pf_line, is_prefetch=True)

    # ------------------------------------------------------------------
    # functional warming (fast-forward mode)

    def warm_load(self, addr, pc):
        """Warm presence state for one demand load, without timing.

        Mirrors :meth:`load`'s fill policy — DTLB fill, inward L1/L2/LLC
        fills, the L2 stride prefetcher and the next-line prefetch — but
        performs no MSHR or DRAM bookkeeping, so a fast-forwarded warmup
        leaves the caches holding the lines a detailed run would have
        brought in without scheduling any phantom in-flight fills.

        Returns the level that held the line before any fill ("L1", "L2",
        "LLC" or "DRAM"), which is the hit/miss outcome the hit-miss
        predictor should be trained with.
        """
        self.dtlb.lookup(addr, fill=True)
        line = self.line_of(addr)
        if self.l1.lookup(line):
            return "L1"
        if self.l2.lookup(line):
            level = "L2"
        elif self.llc.lookup(line):
            level = "LLC"
        else:
            level = "DRAM"
            self.llc.fill(line)
        if level != "L2":
            self.l2.fill(line)
        self.l1.fill(line)
        if self.l2_prefetcher is not None:
            self._run_l2_prefetcher(pc, line)
        if self.l1_next_line:
            next_line = line + 1
            if not self.l1.contains(next_line):
                self.l1.fill(next_line, is_prefetch=True)
                if not self.l2.contains(next_line):
                    self.l2.fill(next_line, is_prefetch=True)
        return level

    def warm_store(self, addr):
        """Warm presence state for one committed store (no timing).

        Mirrors :meth:`store_commit`: write-allocate into the L1, filling
        outer levels only on a full miss.
        """
        self.dtlb.lookup(addr, fill=True)
        line = self.line_of(addr)
        if self.l1.lookup(line):
            self.l1.mark_dirty(line)
            return
        if not self.l2.lookup(line) and not self.llc.lookup(line):
            self.llc.fill(line)
            self.l2.fill(line)
        self.l1.fill(line, dirty=True)

    def probe_level(self, addr):
        """Which level would serve ``addr`` right now (no state change)."""
        line = self.line_of(addr)
        if self.l1.contains(line):
            return "L1"
        if line in self.mshr.inflight:
            return "MSHR"
        if self.l2.contains(line):
            return "L2"
        if self.llc.contains(line):
            return "LLC"
        return "DRAM"

    # ------------------------------------------------------------------
    # stores

    def store_commit(self, addr, cycle):
        """Write a committed store into the L1 (write-allocate, write-back).

        Returns the cycle at which the store-queue entry can be released.
        """
        self.store_accesses += 1
        # DTLB hit + L1 hit, the case nearly every committed store takes:
        # the dtlb.lookup, l1.lookup and mark_dirty calls below, inlined.
        dtlb = self.dtlb
        page = addr >> PAGE_SHIFT
        tlb_set = dtlb.sets[page & dtlb.set_mask]
        if page in tlb_set:
            l1 = self.l1
            line = addr >> l1.line_shift
            l1_set = l1.sets[line & l1.set_mask]
            if line in l1_set:
                tlb_set.pop(page)
                tlb_set[page] = True
                dtlb.hits += 1
                del l1_set[line]  # LRU touch, then the dirty bit
                l1_set[line] = True
                l1.stats.hits += 1
                return cycle + 1
        _, walk = self.dtlb.lookup(addr, fill=True)
        start = cycle + walk
        line = self.line_of(addr)
        if self.l1.lookup(line):
            self.l1.mark_dirty(line)
            return start + 1
        if self.l2.lookup(line):
            complete = start + self._serve_latency("L2")
        elif self.llc.lookup(line):
            complete = start + self._serve_latency("LLC")
        else:
            complete = self.dram.access(start)
            self.llc.fill(line)
            self.l2.fill(line)
        self.l1.fill(line, dirty=True)
        return complete

    def __repr__(self):
        return "<MemoryHierarchy L1=%dKB L2=%dKB LLC=%dKB>" % (
            self.l1.size_bytes // 1024,
            self.l2.size_bytes // 1024,
            self.llc.size_bytes // 1024,
        )
