"""Batched structure-of-arrays functional warming.

The scalar :class:`~repro.emu.warmup.FunctionalWarmer` pays the full Python
object tax once per instruction: a method call or three into the PT/PAT,
and dict traffic for every cache probe.  This module removes that tax in
two steps:

1. **Structure of arrays.**  The trace is already columnar (a static
   table plus per-instruction id/address/flag arrays, see
   :class:`~repro.isa.trace.Trace`), and the kernels read it directly: the
   architectural pass walks a chunk of the arrays and records the chunk's
   memory-op and load columns (:class:`_Chunk`) for the cache and
   predictor passes; predictor slots that depend only on the PC
   (hit-miss, memory-dependence, PT entry) are per-static tables.  Every
   warm-state structure the warmer mutates — cache and DTLB tag+LRU
   state, hit-miss and memory-dependence counters, the RFP Prefetch Table,
   the Page Address Table and the branch path history — lives in flat
   list/``bytearray`` columns indexed by a global (set, way) slot or a
   dense per-trace entry id instead of nested objects.  LRU order is a
   monotonic stamp column; the scalar dicts' insertion order is recovered
   by sorting a set's valid slots by stamp at materialisation time.

2. **Lockstep lanes with shared cohorts.**  :class:`BatchWarmEngine`
   advances N lanes — N workloads, or N sweep configs sharing one trace —
   in fixed-size chunks per dispatch.  Lanes that share a trace share one
   architectural execution (registers + memory are config-independent), so
   only the lead lane runs the arch kernel.  Lanes whose configs also
   agree on every *cache-relevant* field (``_CACHE_KEY_FIELDS``) form a
   cohort sharing ONE cache/DTLB advance per chunk: functional warming has
   no feedback from predictor state into cache contents, so the cohort's
   cache walk records each load's pre-fill L1 outcome into a shared hit
   buffer and every lane then runs only its private predictor pass
   (hit-miss, MD decay, PT/PAT/context) over the chunk's loads.  An
   8-config timing sweep pays one cache walk, not eight.

The scalar warmer remains the bit-exact oracle: at every requested boundary
a lane *materialises* its columns back into the core's scalar structures
(dicts in true LRU insertion order, counters, the PT's RNG draw count) so that
:func:`repro.sim.checkpoint.capture` emits byte-identical payloads.  The
equivalence harness in ``tests/test_batch_warm.py`` and the CI
``batch-equivalence`` job enforce exactly that.

``run_jobs(batch_warm=True)`` (``--batch-warm`` on the CLI) turns the
batched lane on in ``sim.parallel``; ``width`` caps how many lanes advance
in one lockstep cohort (default :data:`DEFAULT_WIDTH`).
"""

from repro.core.frontend import PATH_MASK
from repro.emu.warmup import note_warm_pass
from repro.isa.trace import TAKEN
from repro.memory.cache import EMPTY_SET
from repro.memory.tlb import PAGE_SHIFT

_GOLDEN = 0x9E3779B1
_PAGE_MASK = (1 << PAGE_SHIFT) - 1

#: Instructions each lane advances per interpreter dispatch.
DEFAULT_CHUNK = 4096

#: Lanes per lockstep cohort.
DEFAULT_WIDTH = 8


class _Chunk(object):
    """The memory-op and load columns of one advanced chunk of a trace.

    Built by :func:`_advance_arch` from the trace arrays: ``mem_addrs`` /
    ``mem_stores`` list every memory op in program order for the cache
    pass; ``load_sids`` / ``load_addrs`` / ``load_paths`` (branch path
    history before the load) list the loads for the predictor passes.
    """

    __slots__ = ("mem_addrs", "mem_stores", "load_sids", "load_addrs",
                 "load_paths")

    def __init__(self):
        self.mem_addrs = []
        self.mem_stores = bytearray()
        self.load_sids = []
        self.load_addrs = []
        self.load_paths = []


# ---------------------------------------------------------------------------
# per-lane SoA state


class _CacheColumns(object):
    """Tag + dirty + LRU-stamp columns for one set-associative structure.

    A flat slot space (``set * assoc + way``) carries per-slot state:
    ``tags[slot]`` the resident line (or ``None``), ``stamp[slot]`` a
    monotonically increasing recency tick, ``dirty[slot]`` the writeback
    bit.  ``map`` is the inverse index line -> slot, making every lookup a
    single dict probe regardless of associativity; ``occ`` counts valid
    ways per set so fills know whether to evict (min-stamp scan, the exact
    equivalent of the scalar dicts' front-of-insertion-order victim).  Dict
    insertion order (the scalar LRU representation) is valid slots in
    ascending stamp order.
    """

    __slots__ = ("nsets", "assoc", "mask", "map", "tags", "dirty", "stamp",
                 "occ", "hits", "misses", "evictions", "fills",
                 "prefetch_fills")

    def __init__(self, nsets, assoc, mask):
        self.nsets = nsets
        self.assoc = assoc
        self.mask = mask
        total = nsets * assoc
        self.map = {}
        self.tags = [None] * total
        self.dirty = bytearray(total)
        self.stamp = [0] * total
        self.occ = [0] * nsets
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.fills = 0
        self.prefetch_fills = 0

    def load_sets(self, sets, tick):
        """Adopt the scalar per-set dicts (LRU = insertion order)."""
        assoc = self.assoc
        for set_index, entries in enumerate(sets):
            base = set_index * assoc
            way = base
            for line, dirty in entries.items():
                self.tags[way] = line
                self.map[line] = way
                self.dirty[way] = 1 if dirty else 0
                self.stamp[way] = tick
                tick += 1
                way += 1
            self.occ[set_index] = way - base
        return tick

    def dump_sets(self):
        """Per-set ``[(line, dirty), ...]`` in scalar insertion order."""
        assoc = self.assoc
        stamp, dirty = self.stamp, self.dirty
        per_set = [[] for _ in range(self.nsets)]
        for line, slot in self.map.items():
            per_set[slot // assoc].append((stamp[slot], line, dirty[slot]))
        out = []
        empty = []
        for ways in per_set:
            if not ways:
                out.append(empty)
                continue
            ways.sort()
            out.append([(line, bool(d)) for _stamp, line, d in ways])
        return out


def _load_cache_columns(cache, tick):
    columns = _CacheColumns(cache.num_sets, cache.assoc, cache.set_mask)
    tick = columns.load_sets(cache.sets, tick)
    stats = cache.stats
    columns.hits = stats.hits
    columns.misses = stats.misses
    columns.evictions = stats.evictions
    columns.fills = stats.fills
    columns.prefetch_fills = stats.prefetch_fills
    return columns, tick


#: Config fields that determine functional cache/DTLB/streamer warm state.
#: Lanes in one trace group whose configs agree on all of these share a
#: single :class:`_CacheState` advance — functional warming has no feedback
#: from the predictors into the caches, so the cache side of warm state is
#: a pure function of (trace, these fields).
_CACHE_KEY_FIELDS = (
    "line_bytes", "l1_size", "l1_assoc", "l2_size", "l2_assoc",
    "llc_size", "llc_assoc", "dtlb_entries", "dtlb_assoc",
    "l2_prefetcher_enabled", "l2_prefetcher_entries",
    "l2_prefetcher_degree", "l1_next_line_prefetch",
)


def _cache_key(config):
    return tuple(getattr(config, field) for field in _CACHE_KEY_FIELDS)


class _CacheState(object):
    """Cache/DTLB/streamer warm state shared by a cohort of lanes.

    One instance advances once per chunk regardless of how many lanes in
    the trace group share its cache geometry; ``hit_buf`` records the
    pre-fill L1 presence outcome of every load of the chunk so each lane's
    predictor pass can train against the exact hit/miss stream the scalar
    warmer would have observed.
    """

    __slots__ = ("dtlb", "l1", "l2", "llc", "line_shift", "next_line",
                 "pf_pages", "pf_entries", "pf_degree", "pf_threshold",
                 "pf_cap", "pf_issued", "pf_trainings", "tick", "hit_buf",
                 "dumps")

    def __init__(self, hierarchy):
        tick = 0
        dtlb = hierarchy.dtlb
        self.dtlb = _CacheColumns(dtlb.num_sets, dtlb.assoc, dtlb.set_mask)
        tick = self.dtlb.load_sets(dtlb.sets, tick)
        self.dtlb.hits = dtlb.hits
        self.dtlb.misses = dtlb.misses
        self.l1, tick = _load_cache_columns(hierarchy.l1, tick)
        self.l2, tick = _load_cache_columns(hierarchy.l2, tick)
        self.llc, tick = _load_cache_columns(hierarchy.llc, tick)
        self.tick = tick
        self.line_shift = hierarchy.l1.line_shift
        self.next_line = hierarchy.l1_next_line
        prefetcher = hierarchy.l2_prefetcher
        if prefetcher is not None:
            self.pf_pages = {
                page: [entry.min_line, entry.max_line,
                       entry.fwd_score, entry.bwd_score]
                for page, entry in prefetcher.pages.items()
            }
            self.pf_entries = prefetcher.num_entries
            self.pf_degree = prefetcher.degree
            self.pf_threshold = prefetcher.threshold
            self.pf_cap = prefetcher.threshold + 2
            self.pf_issued = prefetcher.issued
            self.pf_trainings = prefetcher.trainings
        else:
            self.pf_pages = None
        self.hit_buf = bytearray()
        #: Per-set dicts of the DTLB, L1, L2 and LLC as of the last
        #: advance, built by the first lane that materialises them and
        #: reused by the rest of the cohort (None: not built yet).
        self.dumps = None

    def materialize_into(self, hierarchy):
        """Write the cohort's cache state into one lane's hierarchy."""
        dumps = self.dumps
        if dumps is None:
            dumps = self.dumps = (
                [dict.fromkeys([page for page, _dirty in pairs], True)
                 for pairs in self.dtlb.dump_sets()],
                [dict(pairs) for pairs in self.l1.dump_sets()],
                [dict(pairs) for pairs in self.l2.dump_sets()],
                [dict(pairs) for pairs in self.llc.dump_sets()],
            )
        dtlb = hierarchy.dtlb
        for tlb_set, entries in zip(dtlb.sets, dumps[0]):
            tlb_set.clear()
            tlb_set.update(entries)
        dtlb.hits = self.dtlb.hits
        dtlb.misses = self.dtlb.misses
        for cache, columns, sets in ((hierarchy.l1, self.l1, dumps[1]),
                                     (hierarchy.l2, self.l2, dumps[2]),
                                     (hierarchy.llc, self.llc, dumps[3])):
            # A lane gets its own copy of every filled set; an empty one
            # stays (or becomes again) the shared empty set.
            cache.sets[:] = [entries.copy() if entries else EMPTY_SET
                             for entries in sets]
            stats = cache.stats
            stats.hits = columns.hits
            stats.misses = columns.misses
            stats.evictions = columns.evictions
            stats.fills = columns.fills
            stats.prefetch_fills = columns.prefetch_fills
        prefetcher = hierarchy.l2_prefetcher
        if prefetcher is not None:
            from repro.memory.prefetcher import _PageEntry

            prefetcher.pages.clear()
            for page, fields in self.pf_pages.items():
                entry = _PageEntry(0)
                (entry.min_line, entry.max_line,
                 entry.fwd_score, entry.bwd_score) = fields
                prefetcher.pages[page] = entry
            prefetcher.issued = self.pf_issued
            prefetcher.trainings = self.pf_trainings


class _LaneState(object):
    """One lane's warm-table state in column form.

    Holds references to the lane's throwaway :class:`~repro.core.core.OOOCore`
    (the materialisation target), its per-static predictor slots (indexed
    by static id), and every mutable warm structure as flat columns.
    """

    __slots__ = (
        "core", "config", "workload", "length", "positions", "outcome",
        "missing", "statics", "cache",
        "hm_table", "hm_mispredicts", "hm_index",
        "md_table", "md_decay", "md_tick", "md_index",
        "pt_on", "pt_conf", "pt_util", "pt_stride", "pt_base",
        "pt_patptr", "pt_pageoff", "pt_present", "pt_order",
        "pt_tids", "pt_tid_sets", "pt_tid_tags",
        "pt_assoc", "pt_num_sets", "pt_conf_max", "pt_util_max",
        "pt_stride_limit", "pt_inc_prob", "pt_rng",
        "pt_trainings", "pt_allocations", "pt_evictions", "pt_saturations",
        "pt_draws",
        "pat_on", "pat_pages", "pat_stamp", "pat_nsets", "pat_assoc",
        "pat_insertions", "pat_evictions", "pat_tick",
        "ctx_on", "ctx_table", "ctx_entries", "ctx_history_mask",
        "ctx_conf_max", "ctx_trainings",
    )

    def __init__(self, core, workload, length, positions, outcome,
                 cache_state):
        self.core = core
        self.config = core.config
        self.workload = workload
        self.length = length
        self.positions = positions
        self.outcome = outcome
        self.missing = [p for p in positions if outcome.get(p) != "hit"]
        self.statics = core.trace.statics
        self.cache = cache_state
        self.load_from_core()

    # -- scalar -> columns ----------------------------------------------

    def load_from_core(self):
        """(Re)build the predictor columns from the core's scalar
        structures — a fresh core or one a checkpoint was just restored
        onto.  Cache-side state lives in the shared :class:`_CacheState`."""
        core = self.core
        hit_miss = core.hit_miss
        if hit_miss is not None:
            # The scalar table is already a flat int column; share it.
            self.hm_table = hit_miss.table
            self.hm_mispredicts = hit_miss.mispredicts
            self.hm_index = self._pc_slots(hit_miss.num_entries)
        else:
            self.hm_table = None
        md = core.md
        self.md_table = md.table
        self.md_decay = md.decay_period
        self.md_tick = md._commit_tick
        self.md_index = self._pc_slots(md.num_entries)
        rfp = core.rfp
        self.pt_on = rfp is not None
        self.ctx_on = self.pt_on and rfp.context is not None
        if self.pt_on:
            self._load_pt(rfp.pt)
        if self.ctx_on:
            context = rfp.context
            self.ctx_table = {
                index: [entry.tag, entry.last_addr, entry.stride,
                        entry.confidence]
                for index, entry in context.table.items()
            }
            self.ctx_entries = context.num_entries
            self.ctx_history_mask = context.history_mask
            self.ctx_conf_max = context.confidence_max
            self.ctx_trainings = context.trainings

    def _pc_slots(self, num_entries):
        """``(pc >> 2) % num_entries`` per static id (hit-miss / MD slot)."""
        return [(static.pc >> 2) % num_entries for static in self.statics]

    def _load_pt(self, pt):
        # Dense PT entry ids per static load, plus the (set, tag) of each
        # id.  Two PCs aliasing to the same (set, tag) share an id,
        # mirroring the scalar table exactly.
        num_sets = pt.num_sets
        tid_index = {}
        tid_sets, tid_tags = [], []
        tids = []
        for static in self.statics:
            word = static.pc >> 2
            slot = (word % num_sets, word & 0xFFFF)
            tid = tid_index.get(slot)
            if tid is None and static.is_load:
                tid = len(tid_sets)
                tid_index[slot] = tid
                tid_sets.append(slot[0])
                tid_tags.append(slot[1])
            tids.append(tid)
        self.pt_tids = tids
        self.pt_tid_sets = tid_sets
        self.pt_tid_tags = tid_tags
        ntids = len(tid_sets)
        self.pt_present = bytearray(ntids)
        self.pt_conf = bytearray(ntids)
        self.pt_util = bytearray(ntids)
        self.pt_stride = [0] * ntids
        self.pt_base = [None] * ntids
        self.pt_patptr = [-1] * ntids
        self.pt_pageoff = [0] * ntids
        self.pt_order = [[] for _ in range(pt.num_sets)]
        self.pt_assoc = pt.assoc
        self.pt_num_sets = pt.num_sets
        self.pt_conf_max = pt.confidence_max
        self.pt_util_max = pt.utility_max
        self.pt_stride_limit = pt.stride_limit
        self.pt_inc_prob = pt.confidence_increment_prob
        self.pt_rng = pt._rng
        self.pt_trainings = pt.trainings
        self.pt_allocations = pt.allocations
        self.pt_evictions = pt.evictions
        self.pt_saturations = pt.confidence_saturations
        self.pt_draws = pt.draws
        for set_index, pt_set in enumerate(pt.sets):
            for tag, entry in pt_set.items():
                tid = tid_index.get((set_index, tag))
                if tid is None:  # pragma: no cover - foreign checkpoint
                    raise ValueError(
                        "PT entry (set %d, tag %#x) not derivable from the "
                        "trace — checkpoint/trace mismatch" % (set_index, tag)
                    )
                self.pt_present[tid] = 1
                self.pt_conf[tid] = entry.confidence
                self.pt_util[tid] = entry.utility
                self.pt_stride[tid] = entry.stride
                self.pt_base[tid] = entry.base_addr
                if entry.pat_pointer is not None:
                    self.pt_patptr[tid] = (
                        entry.pat_pointer[0] * self.core.rfp.pat.assoc
                        + entry.pat_pointer[1]
                    )
                self.pt_pageoff[tid] = entry.page_offset
                self.pt_order[set_index].append(tid)
        pat = pt.pat
        self.pat_on = pat is not None
        if self.pat_on:
            self.pat_nsets = pat.num_sets
            self.pat_assoc = pat.assoc
            total = pat.num_sets * pat.assoc
            self.pat_pages = [None] * total
            self.pat_stamp = [0] * total
            for set_index in range(pat.num_sets):
                base = set_index * pat.assoc
                for way in range(pat.assoc):
                    self.pat_pages[base + way] = pat.ways[set_index][way]
                # lru[set] lists ways least-recent first; negative stamps
                # keep untouched ways below every future tick while
                # preserving the recorded order.
                for position, way in enumerate(pat.lru[set_index]):
                    self.pat_stamp[base + way] = position - pat.assoc
            self.pat_insertions = pat.insertions
            self.pat_evictions = pat.evictions
            # PAT recency stamps tick independently of the (shared) cache
            # stamps; only relative order within a set matters.
            self.pat_tick = 0

    # -- columns -> scalar ----------------------------------------------

    def materialize(self):
        """Write the lane's columns back into the core's scalar structures
        so :func:`repro.sim.checkpoint.capture` sees exactly the state a
        scalar warm would have produced."""
        core = self.core
        self.cache.materialize_into(core.hierarchy)
        if self.hm_table is not None:
            core.hit_miss.mispredicts = self.hm_mispredicts
        core.md._commit_tick = self.md_tick
        if self.pt_on:
            self._materialize_pt(core.rfp.pt)

    def _materialize_pt(self, pt):
        from repro.rfp.prefetch_table import PTEntry

        pat_assoc = self.pat_assoc if self.pat_on else 1
        for set_index, pt_set in enumerate(pt.sets):
            pt_set.clear()
            for tid in self.pt_order[set_index]:
                entry = PTEntry(self.pt_tid_tags[tid])
                entry.confidence = self.pt_conf[tid]
                entry.utility = self.pt_util[tid]
                entry.stride = self.pt_stride[tid]
                entry.base_addr = self.pt_base[tid]
                pointer = self.pt_patptr[tid]
                if pointer >= 0:
                    entry.pat_pointer = (pointer // pat_assoc,
                                         pointer % pat_assoc)
                entry.page_offset = self.pt_pageoff[tid]
                pt_set[entry.tag] = entry
        pt.trainings = self.pt_trainings
        pt.allocations = self.pt_allocations
        pt.evictions = self.pt_evictions
        pt.confidence_saturations = self.pt_saturations
        pt.draws = self.pt_draws
        if self.pat_on:
            pat = pt.pat
            nsets, assoc = self.pat_nsets, self.pat_assoc
            for set_index in range(nsets):
                base = set_index * assoc
                ways = self.pat_pages[base: base + assoc]
                pat.ways[set_index][:] = ways
                order = sorted(range(assoc),
                               key=lambda way: self.pat_stamp[base + way])
                pat.lru[set_index][:] = order
            pat.insertions = self.pat_insertions
            pat.evictions = self.pat_evictions
        if self.ctx_on:
            context = self.core.rfp.context
            context.table.clear()
            from repro.rfp.context import _ContextEntry

            for index, fields in self.ctx_table.items():
                entry = _ContextEntry(fields[0], fields[1])
                entry.stride = fields[2]
                entry.confidence = fields[3]
                context.table[index] = entry
            context.trainings = self.ctx_trainings


# ---------------------------------------------------------------------------
# kernels


def _advance_arch(group, start, end):
    """Architectural execution of ``[start, end)`` off the trace arrays.

    Mirrors the scalar warmer's value semantics exactly (same evaluator
    functions, same source-tuple shapes) and its branch path history, and
    returns the chunk's memory-op and load columns (:class:`_Chunk`).
    """
    trace = group.trace
    statics = trace.statics
    regs = group.regs
    memory = group.memory
    memory_get = memory.get
    image_get = group.image.get
    path = group.path
    chunk = _Chunk()
    mem_append = chunk.mem_addrs.append
    store_append = chunk.mem_stores.append
    sid_append = chunk.load_sids.append
    addr_append = chunk.load_addrs.append
    path_append = chunk.load_paths.append
    for sid, addr, flag in zip(trace.sids[start:end], trace.addrs[start:end],
                               trace.flags[start:end]):
        static = statics[sid]
        if static.is_load:
            value = memory_get(addr & ~7)
            if value is None:
                value = image_get(addr & ~7, 0)
            mem_append(addr)
            store_append(0)
            sid_append(sid)
            addr_append(addr)
            path_append(path)
        else:
            s = static.srcs
            n = len(s)
            if n == 2:
                operands = (regs[s[0]], regs[s[1]])
            elif n == 1:
                operands = (regs[s[0]],)
            elif n == 0:
                operands = ()
            else:
                operands = [regs[r] for r in s]
            value = static.evaluator(operands, static.imm)
            if static.is_store:
                memory[addr & ~7] = value
                mem_append(addr)
                store_append(1)
            elif flag:  # a branch
                path = ((path << 1) | (1 if flag & TAKEN else 0)) & PATH_MASK
        d = static.dst
        if d is not None:
            regs[d] = value
    group.path = path
    return chunk


def _advance_caches(cs, chunk):
    """Warm one cache cohort over the memory ops of ``chunk``.

    This is the cache half of the scalar warmer's ``warm_load`` /
    ``warm_store`` — DTLB lookup+fill, L1/L2/LLC probes and inward fills,
    the L2 streamer and the next-line prefetch — fully inlined over the
    chunk's columns, with every LRU touch in scalar order.  The pre-fill
    L1 presence outcome of each load is recorded in ``cs.hit_buf`` for the
    lanes' predictor passes.  Hit counters that increment on every access
    (DTLB/L1) are reconstructed per chunk from the memory-op count
    instead of being incremented per access.
    """
    cs.dumps = None  # the state moves on: the materialised view is stale
    hit_buf = cs.hit_buf = bytearray()
    hit_append = hit_buf.append
    mem_ops = len(chunk.mem_addrs)
    if not mem_ops:
        return
    line_shift = cs.line_shift
    tick = cs.tick

    dtlb = cs.dtlb
    d_map = dtlb.map
    d_map_get = d_map.get
    d_tags, d_stamp, d_occ = dtlb.tags, dtlb.stamp, dtlb.occ
    d_mask, d_assoc = dtlb.mask, dtlb.assoc
    d_misses = dtlb.misses

    l1 = cs.l1
    l1_map = l1.map
    l1_map_get = l1_map.get
    l1_tags, l1_dirty, l1_stamp = l1.tags, l1.dirty, l1.stamp
    l1_occ = l1.occ
    l1_mask, l1_assoc = l1.mask, l1.assoc
    l1_misses = l1.misses
    l1_evict, l1_fills, l1_pref = l1.evictions, l1.fills, l1.prefetch_fills

    l2 = cs.l2
    l2_map = l2.map
    l2_map_get = l2_map.get
    l2_tags, l2_stamp, l2_occ = l2.tags, l2.stamp, l2.occ
    l2_mask, l2_assoc = l2.mask, l2.assoc
    l2_hits, l2_misses = l2.hits, l2.misses
    l2_evict, l2_fills, l2_pref = l2.evictions, l2.fills, l2.prefetch_fills

    llc = cs.llc
    llc_map = llc.map
    llc_map_get = llc_map.get
    llc_tags, llc_stamp, llc_occ = llc.tags, llc.stamp, llc.occ
    llc_mask, llc_assoc = llc.mask, llc.assoc
    llc_hits, llc_misses = llc.hits, llc.misses
    llc_evict, llc_fills, llc_pref = (llc.evictions, llc.fills,
                                      llc.prefetch_fills)

    next_line_on = cs.next_line
    pf_pages = cs.pf_pages
    pf_on = pf_pages is not None
    if pf_on:
        pf_pages_get = pf_pages.get
        pf_entries = cs.pf_entries
        pf_degree = cs.pf_degree
        pf_threshold = cs.pf_threshold
        pf_cap = cs.pf_cap
        pf_issued, pf_trainings = cs.pf_issued, cs.pf_trainings

    for addr, is_store in zip(chunk.mem_addrs, chunk.mem_stores):
        page = addr >> PAGE_SHIFT
        line = addr >> line_shift
        # ---- DTLB lookup with fill (shared by loads and stores) --------
        slot = d_map_get(page)
        if slot is not None:
            d_stamp[slot] = tick
            tick += 1
        else:
            d_misses += 1
            set_index = page & d_mask
            base = set_index * d_assoc
            if d_occ[set_index] >= d_assoc:
                victim = base
                low = d_stamp[base]
                for w in range(base + 1, base + d_assoc):
                    if d_stamp[w] < low:
                        low = d_stamp[w]
                        victim = w
                del d_map[d_tags[victim]]
            else:
                victim = base
                while d_tags[victim] is not None:
                    victim += 1
                d_occ[set_index] += 1
            d_tags[victim] = page
            d_map[page] = victim
            d_stamp[victim] = tick
            tick += 1

        # ---- L1 lookup -------------------------------------------------
        slot = l1_map_get(line)
        if is_store:
            # ======== warm_store ========================================
            if slot is not None:
                l1_dirty[slot] = 1
                l1_stamp[slot] = tick
                tick += 1
                continue
            l1_misses += 1
            # L2 lookup; the LLC is probed only when the L2 misses, and
            # outer fills happen only on a full miss.
            w = l2_map_get(line)
            if w is not None:
                l2_stamp[w] = tick
                tick += 1
                l2_hits += 1
            else:
                l2_misses += 1
                w = llc_map_get(line)
                if w is not None:
                    llc_stamp[w] = tick
                    tick += 1
                    llc_hits += 1
                else:
                    llc_misses += 1
                    # llc.fill(line)
                    llc_set = line & llc_mask
                    llc_base = llc_set * llc_assoc
                    if llc_occ[llc_set] >= llc_assoc:
                        victim = llc_base
                        low = llc_stamp[llc_base]
                        for w in range(llc_base + 1, llc_base + llc_assoc):
                            if llc_stamp[w] < low:
                                low = llc_stamp[w]
                                victim = w
                        del llc_map[llc_tags[victim]]
                        llc_evict += 1
                    else:
                        victim = llc_base
                        while llc_tags[victim] is not None:
                            victim += 1
                        llc_occ[llc_set] += 1
                    llc_tags[victim] = line
                    llc_map[line] = victim
                    llc_stamp[victim] = tick
                    tick += 1
                    llc_fills += 1
                    # l2.fill(line)
                    l2_set = line & l2_mask
                    l2_base = l2_set * l2_assoc
                    if l2_occ[l2_set] >= l2_assoc:
                        victim = l2_base
                        low = l2_stamp[l2_base]
                        for w in range(l2_base + 1, l2_base + l2_assoc):
                            if l2_stamp[w] < low:
                                low = l2_stamp[w]
                                victim = w
                        del l2_map[l2_tags[victim]]
                        l2_evict += 1
                    else:
                        victim = l2_base
                        while l2_tags[victim] is not None:
                            victim += 1
                        l2_occ[l2_set] += 1
                    l2_tags[victim] = line
                    l2_map[line] = victim
                    l2_stamp[victim] = tick
                    tick += 1
                    l2_fills += 1
            # l1.fill(line, dirty=True)
            set_index = line & l1_mask
            base = set_index * l1_assoc
            if l1_occ[set_index] >= l1_assoc:
                victim = base
                low = l1_stamp[base]
                for w in range(base + 1, base + l1_assoc):
                    if l1_stamp[w] < low:
                        low = l1_stamp[w]
                        victim = w
                del l1_map[l1_tags[victim]]
                l1_evict += 1
            else:
                victim = base
                while l1_tags[victim] is not None:
                    victim += 1
                l1_occ[set_index] += 1
            l1_tags[victim] = line
            l1_map[line] = victim
            l1_dirty[victim] = 1
            l1_stamp[victim] = tick
            tick += 1
            l1_fills += 1
            continue

        # ======== warm_load =============================================
        if slot is not None:
            l1_stamp[slot] = tick
            tick += 1
            hit_append(1)
            continue
        hit_append(0)
        l1_misses += 1
        # L2 lookup; the LLC only on an L2 miss; DRAM fills the LLC.
        w = l2_map_get(line)
        if w is not None:
            level_l2 = True
            l2_stamp[w] = tick
            tick += 1
            l2_hits += 1
        else:
            level_l2 = False
            l2_misses += 1
            w = llc_map_get(line)
            if w is not None:
                llc_stamp[w] = tick
                tick += 1
                llc_hits += 1
            else:
                llc_misses += 1
                # llc.fill(line)
                llc_set = line & llc_mask
                llc_base = llc_set * llc_assoc
                if llc_occ[llc_set] >= llc_assoc:
                    victim = llc_base
                    low = llc_stamp[llc_base]
                    for w in range(llc_base + 1, llc_base + llc_assoc):
                        if llc_stamp[w] < low:
                            low = llc_stamp[w]
                            victim = w
                    del llc_map[llc_tags[victim]]
                    llc_evict += 1
                else:
                    victim = llc_base
                    while llc_tags[victim] is not None:
                        victim += 1
                    llc_occ[llc_set] += 1
                llc_tags[victim] = line
                llc_map[line] = victim
                llc_stamp[victim] = tick
                tick += 1
                llc_fills += 1
        if not level_l2:
            # l2.fill(line)
            l2_set = line & l2_mask
            l2_base = l2_set * l2_assoc
            if l2_occ[l2_set] >= l2_assoc:
                victim = l2_base
                low = l2_stamp[l2_base]
                for w in range(l2_base + 1, l2_base + l2_assoc):
                    if l2_stamp[w] < low:
                        low = l2_stamp[w]
                        victim = w
                del l2_map[l2_tags[victim]]
                l2_evict += 1
            else:
                victim = l2_base
                while l2_tags[victim] is not None:
                    victim += 1
                l2_occ[l2_set] += 1
            l2_tags[victim] = line
            l2_map[line] = victim
            l2_stamp[victim] = tick
            tick += 1
            l2_fills += 1
        # l1.fill(line)
        set_index = line & l1_mask
        base = set_index * l1_assoc
        if l1_occ[set_index] >= l1_assoc:
            victim = base
            low = l1_stamp[base]
            for w in range(base + 1, base + l1_assoc):
                if l1_stamp[w] < low:
                    low = l1_stamp[w]
                    victim = w
            del l1_map[l1_tags[victim]]
            l1_evict += 1
        else:
            victim = base
            while l1_tags[victim] is not None:
                victim += 1
            l1_occ[set_index] += 1
        l1_tags[victim] = line
        l1_map[line] = victim
        l1_dirty[victim] = 0
        l1_stamp[victim] = tick
        tick += 1
        l1_fills += 1
        # ---- L2 streamer (trained on every L1 load miss) ---------------
        if pf_on:
            pf_trainings += 1
            pf_page = line >> 6
            entry = pf_pages_get(pf_page)
            prefetch_from = 0
            if entry is None:
                if len(pf_pages) >= pf_entries:
                    del pf_pages[next(iter(pf_pages))]
                pf_pages[pf_page] = [line, line, 0, 0]
            else:
                del pf_pages[pf_page]
                pf_pages[pf_page] = entry
                if line > entry[1]:
                    entry[1] = line
                    score = entry[2] + 1
                    if score > pf_cap:
                        score = pf_cap
                    entry[2] = score
                    if score >= pf_threshold:
                        prefetch_from = 1
                elif line < entry[0]:
                    entry[0] = line
                    score = entry[3] + 1
                    if score > pf_cap:
                        score = pf_cap
                    entry[3] = score
                    if score >= pf_threshold:
                        prefetch_from = -1
            if prefetch_from:
                pf_issued += pf_degree
                for step in range(1, pf_degree + 1):
                    pf_line = line + step * prefetch_from
                    if pf_line < 0:
                        continue
                    # if not l2.contains: l2.fill(pf_line, prefetch)
                    if pf_line not in l2_map:
                        p_set = pf_line & l2_mask
                        p_base = p_set * l2_assoc
                        if l2_occ[p_set] >= l2_assoc:
                            victim = p_base
                            low = l2_stamp[p_base]
                            for w in range(p_base + 1,
                                           p_base + l2_assoc):
                                if l2_stamp[w] < low:
                                    low = l2_stamp[w]
                                    victim = w
                            del l2_map[l2_tags[victim]]
                            l2_evict += 1
                        else:
                            victim = p_base
                            while l2_tags[victim] is not None:
                                victim += 1
                            l2_occ[p_set] += 1
                        l2_tags[victim] = pf_line
                        l2_map[pf_line] = victim
                        l2_stamp[victim] = tick
                        tick += 1
                        l2_fills += 1
                        l2_pref += 1
                    # if not llc.contains: llc.fill(pf_line, prefetch)
                    if pf_line not in llc_map:
                        p_set = pf_line & llc_mask
                        p_base = p_set * llc_assoc
                        if llc_occ[p_set] >= llc_assoc:
                            victim = p_base
                            low = llc_stamp[p_base]
                            for w in range(p_base + 1,
                                           p_base + llc_assoc):
                                if llc_stamp[w] < low:
                                    low = llc_stamp[w]
                                    victim = w
                            del llc_map[llc_tags[victim]]
                            llc_evict += 1
                        else:
                            victim = p_base
                            while llc_tags[victim] is not None:
                                victim += 1
                            llc_occ[p_set] += 1
                        llc_tags[victim] = pf_line
                        llc_map[pf_line] = victim
                        llc_stamp[victim] = tick
                        tick += 1
                        llc_fills += 1
                        llc_pref += 1
        # ---- next-line prefetch into the L1 ----------------------------
        if next_line_on:
            nl = line + 1
            if nl not in l1_map:
                # l1.fill(nl, is_prefetch=True)
                n_set = nl & l1_mask
                n_base = n_set * l1_assoc
                if l1_occ[n_set] >= l1_assoc:
                    victim = n_base
                    low = l1_stamp[n_base]
                    for w in range(n_base + 1, n_base + l1_assoc):
                        if l1_stamp[w] < low:
                            low = l1_stamp[w]
                            victim = w
                    del l1_map[l1_tags[victim]]
                    l1_evict += 1
                else:
                    victim = n_base
                    while l1_tags[victim] is not None:
                        victim += 1
                    l1_occ[n_set] += 1
                l1_tags[victim] = nl
                l1_map[nl] = victim
                l1_dirty[victim] = 0
                l1_stamp[victim] = tick
                tick += 1
                l1_fills += 1
                l1_pref += 1
                # if not l2.contains: l2.fill(nl, is_prefetch=True)
                if nl not in l2_map:
                    p_set = nl & l2_mask
                    p_base = p_set * l2_assoc
                    if l2_occ[p_set] >= l2_assoc:
                        victim = p_base
                        low = l2_stamp[p_base]
                        for w in range(p_base + 1, p_base + l2_assoc):
                            if l2_stamp[w] < low:
                                low = l2_stamp[w]
                                victim = w
                        del l2_map[l2_tags[victim]]
                        l2_evict += 1
                    else:
                        victim = p_base
                        while l2_tags[victim] is not None:
                            victim += 1
                        l2_occ[p_set] += 1
                    l2_tags[victim] = nl
                    l2_map[nl] = victim
                    l2_stamp[victim] = tick
                    tick += 1
                    l2_fills += 1
                    l2_pref += 1

    # ---- write the counters back --------------------------------------
    cs.tick = tick
    # One DTLB lookup per memory op, one L1 lookup per memory op: the hit
    # counters are the lookup counts minus the misses this chunk added.
    dtlb.hits += mem_ops - (d_misses - dtlb.misses)
    dtlb.misses = d_misses
    l1.hits += mem_ops - (l1_misses - l1.misses)
    l1.misses = l1_misses
    l1.evictions, l1.fills, l1.prefetch_fills = l1_evict, l1_fills, l1_pref
    l2.hits, l2.misses = l2_hits, l2_misses
    l2.evictions, l2.fills, l2.prefetch_fills = l2_evict, l2_fills, l2_pref
    llc.hits, llc.misses = llc_hits, llc_misses
    llc.evictions, llc.fills, llc.prefetch_fills = (llc_evict, llc_fills,
                                                    llc_pref)
    if pf_on:
        cs.pf_issued, cs.pf_trainings = pf_issued, pf_trainings


def _advance_predictors(lane, chunk):
    """Train one lane's predictors over the loads of ``chunk``.

    The hit-miss predictor, MD decay, the PT allocate->commit->train
    protocol (with the PAT) and the context prefetcher — the scalar
    warmer's per-load training calls — inlined over the chunk's load
    columns, reading the hit/miss stream the lane's cache cohort
    recorded in ``hit_buf``.  Every counter and RNG draw happens in
    scalar order; per-call counters that tick on every load (PT/context
    ``trainings``, the MD tick) are bulk-added per chunk.
    """
    load_ops = len(chunk.load_sids)
    if not load_ops:
        return
    statics = lane.statics

    hm_table = lane.hm_table
    hm_on = hm_table is not None
    if hm_on:
        hm_index = lane.hm_index
        hm_mispredicts = lane.hm_mispredicts
    md_table = lane.md_table
    md_index = lane.md_index
    md_decay = lane.md_decay
    md_tick = lane.md_tick
    # Count down to the next decay instead of a modulo per load.
    md_left = md_decay - (md_tick % md_decay)

    pt_on = lane.pt_on
    if pt_on:
        pt_tids = lane.pt_tids
        pt_present = lane.pt_present
        pt_conf, pt_util = lane.pt_conf, lane.pt_util
        pt_stride, pt_base = lane.pt_stride, lane.pt_base
        pt_patptr, pt_pageoff = lane.pt_patptr, lane.pt_pageoff
        pt_order = lane.pt_order
        pt_tid_sets = lane.pt_tid_sets
        pt_assoc = lane.pt_assoc
        conf_max, util_max = lane.pt_conf_max, lane.pt_util_max
        stride_limit = lane.pt_stride_limit
        neg_stride_limit = -stride_limit
        inc_prob = lane.pt_inc_prob
        rng_random = lane.pt_rng.random
        pt_allocations = lane.pt_allocations
        pt_evictions = lane.pt_evictions
        pt_saturations = lane.pt_saturations
        pt_draws = lane.pt_draws
        pat_on = lane.pat_on
        if pat_on:
            pat_pages, pat_stamp = lane.pat_pages, lane.pat_stamp
            pat_nsets, pat_assoc = lane.pat_nsets, lane.pat_assoc
            pat_insertions = lane.pat_insertions
            pat_evictions = lane.pat_evictions
            pat_tick = lane.pat_tick
    ctx_on = lane.ctx_on
    if ctx_on:
        ctx_table = lane.ctx_table
        ctx_table_get = ctx_table.get
        ctx_entries = lane.ctx_entries
        ctx_history_mask = lane.ctx_history_mask
        ctx_conf_max = lane.ctx_conf_max

    for sid, addr, path, hit in zip(chunk.load_sids, chunk.load_addrs,
                                    chunk.load_paths, lane.cache.hit_buf):
        # ---- hit-miss predictor training -------------------------------
        if hm_on:
            index = hm_index[sid]
            counter = hm_table[index]
            if (counter >= 2) != hit:
                hm_mispredicts += 1
            if hit:
                if counter < 3:
                    hm_table[index] = counter + 1
            elif counter > 0:
                hm_table[index] = counter - 1

        # ---- MD decay ---------------------------------------------------
        md_left -= 1
        if md_left == 0:
            md_left = md_decay
            index = md_index[sid]
            if md_table[index] > 0:
                md_table[index] -= 1

        # ---- PT allocate -> commit -> train -----------------------------
        if pt_on:
            tid = pt_tids[sid]
            if pt_present[tid]:
                # on_allocate finds the entry (inflight 0->1), the commit
                # step of train() returns it to 0; neither draws from the
                # RNG nor touches the PAT, so both are pure no-ops here.
                # train()'s per-call ``trainings`` increment is bulk-added
                # after the loop (one per load).
                pointer = pt_patptr[tid]
                if pat_on:
                    if pointer >= 0:
                        # A valid pointer always references a filled way:
                        # PAT slots are only ever overwritten with other
                        # pages, never cleared.
                        pat_page = pat_pages[pointer]
                        base_addr = ((pat_page << PAGE_SHIFT)
                                     | pt_pageoff[tid])
                    else:
                        base_addr = None
                else:
                    base_addr = pt_base[tid]
                if base_addr is not None:
                    new_stride = addr - base_addr
                    if (new_stride == pt_stride[tid]
                            and neg_stride_limit <= new_stride
                            < stride_limit):
                        confidence = pt_conf[tid]
                        if confidence < conf_max:
                            pt_draws += 1
                            if rng_random() < inc_prob:
                                confidence += 1
                                pt_conf[tid] = confidence
                                if confidence == conf_max:
                                    pt_saturations += 1
                        if pt_util[tid] < util_max:
                            pt_util[tid] += 1
                    else:
                        pt_conf[tid] = 0
                        pt_util[tid] = 0
                        pt_stride[tid] = (
                            new_stride
                            if neg_stride_limit <= new_stride < stride_limit
                            else 0
                        )
            else:
                # on_allocate._allocate (utility eviction, first-inserted
                # tie-break), then train() records the first address.
                pt_allocations += 1
                order = pt_order[pt_tid_sets[tid]]
                if len(order) >= pt_assoc:
                    victim = order[0]
                    low = pt_util[victim]
                    for candidate in order[1:]:
                        if pt_util[candidate] < low:
                            low = pt_util[candidate]
                            victim = candidate
                    order.remove(victim)
                    pt_present[victim] = 0
                    pt_evictions += 1
                order.append(tid)
                pt_present[tid] = 1
                pt_conf[tid] = 0
                pt_util[tid] = 0
                pt_stride[tid] = 0
                pt_base[tid] = None
                pt_patptr[tid] = -1
                pointer = -1
            # _record_address: PAT insert (find+touch or LRU evict) or the
            # full base address when the PAT optimisation is off.
            if pat_on:
                page = addr >> PAGE_SHIFT
                # ``pat_page`` is bound whenever ``pointer >= 0`` (both the
                # fast path above and the allocate path, which resets the
                # pointer to -1).
                if pointer >= 0 and pat_page == page:
                    pat_stamp[pointer] = pat_tick
                    pat_tick += 1
                else:
                    p_base = (page % pat_nsets) * pat_assoc
                    w = p_base
                    p_limit = p_base + pat_assoc
                    while w < p_limit and pat_pages[w] != page:
                        w += 1
                    if w == p_limit:
                        w = p_base
                        low = pat_stamp[p_base]
                        for candidate in range(p_base + 1, p_limit):
                            if pat_stamp[candidate] < low:
                                low = pat_stamp[candidate]
                                w = candidate
                        if pat_pages[w] is not None:
                            pat_evictions += 1
                        pat_pages[w] = page
                        pat_insertions += 1
                    pat_stamp[w] = pat_tick
                    pat_tick += 1
                    pt_patptr[tid] = w
                pt_pageoff[tid] = addr & _PAGE_MASK
            else:
                pt_base[tid] = addr

        # ---- context prefetcher training --------------------------------
        if ctx_on:
            pc = statics[sid].pc
            index = (((pc >> 2) ^ ((path & ctx_history_mask) * _GOLDEN))
                     % ctx_entries)
            entry = ctx_table_get(index)
            if entry is None or entry[0] != pc:
                ctx_table[index] = [pc, addr, 0, 0]
            else:
                stride = addr - entry[1]
                if stride == entry[2]:
                    if entry[3] < ctx_conf_max:
                        entry[3] += 1
                else:
                    entry[2] = stride
                    entry[3] = 0
                entry[1] = addr

    # ---- write the counters back --------------------------------------
    if hm_on:
        lane.hm_mispredicts = hm_mispredicts
    lane.md_tick = md_tick + load_ops
    if pt_on:
        lane.pt_trainings += load_ops
        lane.pt_allocations = pt_allocations
        lane.pt_evictions = pt_evictions
        lane.pt_saturations = pt_saturations
        lane.pt_draws = pt_draws
        if pat_on:
            lane.pat_insertions = pat_insertions
            lane.pat_evictions = pat_evictions
            lane.pat_tick = pat_tick
    if ctx_on:
        lane.ctx_trainings += load_ops


# ---------------------------------------------------------------------------
# the lockstep driver


class _TraceGroup(object):
    """Lanes sharing one trace, advancing in lockstep.

    The group owns the single architectural execution (registers, memory
    and branch path history, through a :class:`FunctionalWarmer` shim
    shared by every capture) and the sorted union of the lanes' checkpoint
    boundaries.
    """

    def __init__(self, trace, lanes, cache_states, start, warmer):
        self.trace = trace
        self.lanes = lanes
        self.cache_states = cache_states
        self.position = start
        self.warmer = warmer
        self.regs = warmer.registers.values
        self.memory = warmer.memory
        self.image = warmer.core.image
        #: Path history before instruction ``position``: the lead core's
        #: (zero, or restored from the resume checkpoint).
        self.path = lanes[0].core.frontend.path_history
        boundaries = sorted({p for lane in lanes for p in lane.missing
                             if p > start})
        self.boundaries = boundaries
        self.lane_count = len(lanes)

    @property
    def done(self):
        return not self.boundaries

    def advance(self, chunk, store):
        """One lockstep dispatch up to ``chunk`` instructions or the next
        checkpoint boundary: arch once, each cache cohort once, then every
        lane's predictor pass."""
        target = self.boundaries[0]
        end = self.position + chunk
        if end > target:
            end = target
        chunk = _advance_arch(self, self.position, end)
        for cache_state in self.cache_states:
            _advance_caches(cache_state, chunk)
        for lane in self.lanes:
            _advance_predictors(lane, chunk)
        self.position = end
        if end == target:
            self.boundaries.pop(0)
            self.warmer.warmed = end
            path = self.path
            if store is not None:
                from repro.sim import checkpoint as _checkpoint

                for lane in self.lanes:
                    if end in lane.missing:
                        lane.materialize()
                        lane.core.frontend.path_history = path
                        key = store.key(lane.workload, lane.config,
                                        lane.length, end)
                        store.put(key, _checkpoint.capture(lane.core,
                                                           self.warmer))
                        lane.outcome[end] = "warmed"
            else:
                for lane in self.lanes:
                    if end in lane.missing:
                        lane.outcome[end] = "warmed"

    def finish(self):
        """Materialise every lane's final state, leaving each core exactly
        as :meth:`FunctionalWarmer.warm` would: structures written back,
        path history set, rename seeded, fetch cursor at the boundary."""
        position = self.position
        path = self.path
        regs = self.regs
        for lane in self.lanes:
            lane.materialize()
            core = lane.core
            core.frontend.path_history = path
            core.rename.seed_architectural(
                [regs[reg] for reg in range(len(core.rename.rat))]
            )
            core.frontend.cursor.rewind(position)


class BatchWarmEngine(object):
    """Warm a batch of (workload, config) jobs through the SoA kernels.

    Args:
        jobs: iterable of ``(trace_or_None, workload, config, length,
            positions)`` tuples — the same shape
            :func:`repro.sim.checkpoint.ensure_checkpoints` takes.  A
            ``None`` trace is built lazily only if that job needs warming.
        store: a :class:`~repro.sim.checkpoint.CheckpointStore`, or None to
            warm without serializing (cores are left materialised at the
            deepest position — useful for benchmarks and in-place warming).
        width: lanes per lockstep cohort (default :data:`DEFAULT_WIDTH`).
        chunk: instructions per lane per dispatch.
    """

    def __init__(self, jobs, store=None, width=None, chunk=None):
        self.jobs = list(jobs)
        self.store = store
        self.width = width if width and width > 0 else DEFAULT_WIDTH
        self.chunk = chunk if chunk and chunk > 0 else DEFAULT_CHUNK

    def run(self):
        """Warm every job; returns one ``{position: outcome}`` per job."""
        from repro.core.core import OOOCore
        from repro.emu.warmup import FunctionalWarmer
        from repro.sim import checkpoint as _checkpoint
        from repro.workloads.suite import build_workload

        store = self.store
        outcomes = []
        needs_warm = {}  # (name, length) -> [(job_index, wanted, missing)]
        traces = {}
        for index, job in enumerate(self.jobs):
            trace, workload, config, length, positions = job
            name = workload if isinstance(workload, str) else workload.name
            wanted = sorted({int(p) for p in positions if p > 0})
            outcome = {}
            missing = []
            for position in wanted:
                if store is not None and store.contains(
                    store.key(name, config, length, position)
                ):
                    outcome[position] = "hit"
                else:
                    missing.append(position)
            outcomes.append(outcome)
            if not missing:
                continue
            key = (name, length)
            needs_warm.setdefault(key, []).append((index, wanted, missing))
            if trace is not None:
                traces[key] = trace

        groups = []
        for key in sorted(needs_warm):
            name, length = key
            trace = traces.get(key)
            if trace is None:
                trace = build_workload(name, length=length)
            members = needs_warm[key]
            # Resume only when every lane can restore at one common depth;
            # otherwise warm the whole group from instruction zero.
            depths = set()
            for index, wanted, missing in members:
                stored = [p for p in wanted if p < missing[0]
                          and outcomes[index].get(p) == "hit"]
                depths.add(stored[-1] if stored else 0)
            resume_at = depths.pop() if len(depths) == 1 else 0
            states = None
            if resume_at > 0:
                states = []
                for index, wanted, missing in members:
                    state = store.get(store.key(name, self.jobs[index][2],
                                                length, resume_at))
                    if state is None:
                        # Evicted as corrupt between the probe and now:
                        # fall back to a from-scratch warm for the group.
                        resume_at = 0
                        states = None
                        break
                    states.append(state)
            lanes = []
            cache_states = {}
            for position, (index, wanted, missing) in enumerate(members):
                config = self.jobs[index][2]
                core = OOOCore(trace, config)
                if lanes:
                    # One architectural execution: every lane's committed
                    # writes are the lead's.
                    core.memory = lanes[0].core.memory
                if states is not None:
                    _checkpoint.restore(core, states[position])
                # Lanes whose configs agree on every cache-relevant field
                # share one cache advance; the first such lane's (fresh or
                # just-restored) hierarchy seeds the shared state.
                geometry = _cache_key(config)
                cache_state = cache_states.get(geometry)
                if cache_state is None:
                    cache_state = _CacheState(core.hierarchy)
                    cache_states[geometry] = cache_state
                lanes.append(_LaneState(core, name, length,
                                        wanted, outcomes[index],
                                        cache_state))
                note_warm_pass()
            warmer = FunctionalWarmer(lanes[0].core)
            warmer.warmed = resume_at
            if states is not None:
                warmer.registers.values[:] = states[0]["registers"]
            groups.append(_TraceGroup(trace, lanes,
                                      list(cache_states.values()),
                                      resume_at, warmer))

        # Lockstep cohorts: groups are packed until the lane count reaches
        # the batch width, then each cohort round-robins chunk-sized
        # dispatches across its groups until every boundary is written.
        cohort = []
        lane_total = 0
        for group in groups:
            cohort.append(group)
            lane_total += group.lane_count
            if lane_total >= self.width:
                self._run_cohort(cohort)
                cohort, lane_total = [], 0
        if cohort:
            self._run_cohort(cohort)
        return outcomes

    def _run_cohort(self, cohort):
        store = self.store
        chunk = self.chunk
        active = [group for group in cohort if not group.done]
        while active:
            for group in active:
                group.advance(chunk, store)
            active = [group for group in active if not group.done]
        if store is None:
            for group in cohort:
                group.finish()


def warm_batch(jobs, store=None, width=None, chunk=None):
    """Convenience wrapper: run a :class:`BatchWarmEngine` over ``jobs``."""
    return BatchWarmEngine(jobs, store=store, width=width, chunk=chunk).run()
