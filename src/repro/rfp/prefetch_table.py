"""The RFP Prefetch Table (paper §3.1).

A static-load-PC indexed, set-associative stride table trained at load
retirement.  Per entry (Table 1): tag, confidence (1-bit default, Fig. 17
sweeps widths), 2-bit utility for replacement, stride, 7-bit inflight
counter, and the base address — stored either in full or compressed via the
Page Address Table.

Training protocol (paper, verbatim semantics):

- On retirement, look up by PC.  If the stride repeats, increment the
  confidence *with probability 1/16* and increment the utility.  Once the
  confidence saturates, the PC is RFP-eligible.  If the stride changes,
  confidence and utility reset, so fluctuating PCs decay and get evicted.
- The inflight counter is incremented at load allocation, decremented at
  commit, and decremented for each squashed load on a flush.
- The predicted address for a new dynamic instance is
  ``base + stride * inflight`` (base = last retired address, inflight
  counted *after* this instance's increment).
"""

import random

from repro.rfp.pat import PAGE_MASK, PAGE_SHIFT, PageAddressTable


class PTEntry(object):
    """One Prefetch Table entry."""

    __slots__ = (
        "tag",
        "confidence",
        "utility",
        "stride",
        "inflight",
        "base_addr",
        "pat_pointer",
        "page_offset",
    )

    def __init__(self, tag):
        self.tag = tag
        self.confidence = 0
        self.utility = 0
        self.stride = 0
        self.inflight = 0
        self.base_addr = None   # used when the PAT optimisation is off
        self.pat_pointer = None  # (set, way) into the PAT when it is on
        self.page_offset = 0


class PrefetchTable(object):
    """Set-associative stride prefetch table with utility replacement.

    Args:
        num_entries: total entries (paper default 1024; Fig. 18 sweeps).
        assoc: ways per set (paper: 8).
        confidence_bits: confidence counter width (Fig. 17 sweeps 1..4).
        confidence_increment_prob: probability of a confidence increment on
            a stride repeat (paper: 1/16).
        stride_bits: signed stride field width; larger strides never gain
            confidence.
        inflight_bits: inflight counter width (saturates).
        pat: a :class:`PageAddressTable`, or None to store full addresses.
        seed: RNG seed for the probabilistic confidence increments.
    """

    def __init__(
        self,
        num_entries=1024,
        assoc=8,
        confidence_bits=1,
        confidence_increment_prob=1.0 / 16.0,
        utility_bits=2,
        stride_bits=8,
        inflight_bits=7,
        pat=None,
        seed=0xC0FFEE,
    ):
        if num_entries % assoc:
            raise ValueError("PT entries must divide evenly into ways")
        self.num_entries = num_entries
        self.assoc = assoc
        self.num_sets = num_entries // assoc
        self.confidence_max = (1 << confidence_bits) - 1
        self.confidence_increment_prob = confidence_increment_prob
        self.utility_max = (1 << utility_bits) - 1
        self.stride_limit = 1 << (stride_bits - 1)
        self.inflight_max = (1 << inflight_bits) - 1
        self.pat = pat
        self._rng = random.Random(seed)
        # sets[i]: {tag: PTEntry}, insertion order tracks LRU within ties.
        self.sets = [dict() for _ in range(self.num_sets)]
        self.trainings = 0
        self.allocations = 0
        self.evictions = 0
        self.confidence_saturations = 0

    # ------------------------------------------------------------------
    # lookup / indexing

    def _set_of(self, pc):
        return (pc >> 2) % self.num_sets

    def _tag_of(self, pc):
        return (pc >> 2) & 0xFFFF

    def lookup(self, pc):
        """Return the entry for ``pc`` or None.  Does not touch LRU."""
        return self.sets[self._set_of(pc)].get(self._tag_of(pc))

    # ------------------------------------------------------------------
    # base-address storage (full or PAT-compressed)

    def _read_address(self, entry):
        if self.pat is None:
            return entry.base_addr
        if entry.pat_pointer is None:
            return None
        page = self.pat.dereference(entry.pat_pointer)
        if page is None:
            return None
        return PageAddressTable.join(page, entry.page_offset)

    # ------------------------------------------------------------------
    # training at retirement

    def train(self, pc, addr, commit=False):
        """Train the table with a retiring load's (pc, address).

        ``commit=True`` first applies :meth:`on_commit` for the same load
        on the same set/tag lookup — the retirement protocol of the core
        and the functional warmer, which always run the two back to back.
        Runs once per retiring load, so the lookup and
        :meth:`_read_address` are inlined.
        """
        self.trainings += 1
        # -- lookup ----------------------------------------------------------
        index = pc >> 2
        pt_set = self.sets[index % self.num_sets]
        tag = index & 0xFFFF
        entry = pt_set.get(tag)
        pat = self.pat
        base = None
        if entry is None:
            entry = self._allocate(pt_set, tag)
        else:
            if commit and entry.inflight > 0:
                entry.inflight -= 1
            # -- _read_address -------------------------------------------
            if pat is None:
                base = entry.base_addr
            else:
                pointer = entry.pat_pointer
                if pointer is not None:
                    page = pat.ways[pointer[0]][pointer[1]]
                    if page is not None:
                        base = (page << PAGE_SHIFT) | entry.page_offset
        if base is not None:
            new_stride = addr - base
            limit = self.stride_limit
            if new_stride == entry.stride and -limit <= new_stride < limit:
                if entry.confidence < self.confidence_max:
                    if self._rng.random() < self.confidence_increment_prob:
                        entry.confidence += 1
                        if entry.confidence == self.confidence_max:
                            self.confidence_saturations += 1
                if entry.utility < self.utility_max:
                    entry.utility += 1
            else:
                entry.confidence = 0
                entry.utility = 0
                entry.stride = new_stride if -limit <= new_stride < limit else 0
        # Record the new base: in full, or as a PAT page pointer + offset.
        if pat is None:
            entry.base_addr = addr
        else:
            entry.pat_pointer = pat.insert(addr >> PAGE_SHIFT)
            entry.page_offset = addr & PAGE_MASK
        return entry

    def _allocate(self, pt_set, tag):
        """Allocate a new entry, evicting the lowest-utility way if full."""
        self.allocations += 1
        if len(pt_set) >= self.assoc:
            victim_tag = min(pt_set, key=lambda t: pt_set[t].utility)
            del pt_set[victim_tag]
            self.evictions += 1
        entry = PTEntry(tag)
        pt_set[tag] = entry
        return entry

    # ------------------------------------------------------------------
    # prediction at allocation

    def on_allocate(self, pc):
        """Called when a load allocates into the OOO window.

        Increments the entry's inflight counter and returns
        ``(eligible, predicted_addr)``.  The prediction accounts for every
        outstanding instance: ``base + stride * inflight``.

        The entry is created here (not at first training) so the inflight
        count is exact from the first dynamic instance — creating it at
        retirement would leave a permanent skew of one OOO-window's worth
        of instances that allocated before the entry existed.
        """
        # -- lookup (inlined: runs once per dispatched load) ---------------
        index = pc >> 2
        pt_set = self.sets[index % self.num_sets]
        tag = index & 0xFFFF
        entry = pt_set.get(tag)
        if entry is None:
            entry = self._allocate(pt_set, tag)
        if entry.inflight < self.inflight_max:
            entry.inflight += 1
        if entry.confidence < self.confidence_max:
            return False, None
        base = self._read_address(entry)
        if base is None:
            return False, None
        predicted = base + entry.stride * entry.inflight
        if predicted < 0:
            return False, None
        return True, predicted

    def on_commit(self, pc):
        """Decrement the inflight counter at load commit."""
        entry = self.lookup(pc)
        if entry is not None and entry.inflight > 0:
            entry.inflight -= 1

    def on_squash(self, pc):
        """Decrement the inflight counter for a squashed load."""
        entry = self.lookup(pc)
        if entry is not None and entry.inflight > 0:
            entry.inflight -= 1

    def on_misprediction(self, pc, actual_addr):
        """A prefetch for ``pc`` fetched the wrong address.

        The entry's confidence drops so the PC stops prefetching until
        retirement training re-establishes the base/stride ("RFP will
        relearn the correct address again after a misprediction", §3.5).
        The base itself is *not* repaired here: it must stay synchronised
        with the inflight counter, whose reference point is the last
        retired instance — retirement training fixes both together.  With
        the PAT optimisation this is also how stale page pointers heal.
        """
        entry = self.lookup(pc)
        if entry is None:
            return
        entry.confidence = 0

    def occupancy(self):
        return sum(len(s) for s in self.sets)

    def inflight_total(self):
        """Sum of every entry's inflight counter (diagnostic snapshot)."""
        return sum(e.inflight for s in self.sets for e in s.values())

    def inflight_violations(self):
        """Entries whose inflight counter or tag index is corrupt.

        The counter is incremented at allocate and decremented at
        commit/squash with a saturation floor; anything outside
        ``[0, inflight_max]`` means a hook fired twice or not at all.
        """
        out = []
        for set_index, ways in enumerate(self.sets):
            for tag, entry in ways.items():
                if not 0 <= entry.inflight <= self.inflight_max:
                    out.append(
                        "PT inflight counter out of range: set %d tag %#x "
                        "inflight=%d (max %d)"
                        % (set_index, tag, entry.inflight, self.inflight_max)
                    )
                if entry.tag != tag:
                    out.append(
                        "PT entry misfiled: set %d key %#x holds entry "
                        "tagged %#x" % (set_index, tag, entry.tag)
                    )
        return out

    def __repr__(self):
        return "<PrefetchTable %d entries %d-way conf<=%d>" % (
            self.num_entries,
            self.assoc,
            self.confidence_max,
        )
