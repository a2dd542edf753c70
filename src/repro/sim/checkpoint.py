"""Warm-state checkpoints: serialize a functional warm, restore it bit-exact.

A config sweep re-derives identical warm state per cell: the
:class:`~repro.emu.warmup.FunctionalWarmer` touches only structures selected
by a small subset of the config (cache/TLB geometry, prefetcher knobs, the
RFP training tables and their RNG seed), so two cells that differ only in
timing parameters (latencies, widths, queue sizes) share the exact same
warm end-state.  This module captures that end-state once and restores it
everywhere else:

- :func:`capture` serializes everything the warmer mutates — cache/DTLB
  contents *and* counters, the L2 streamer, the hit-miss and
  memory-dependence predictors, the RFP PT/PAT/context tables including the
  probabilistic confidence counter's RNG draw count, branch path history,
  architectural registers, and the committed-memory delta over the trace
  image — into a JSON-friendly dict whose long integer columns are packed
  (:func:`_pack`).
- :func:`restore` applies such a dict onto a freshly constructed
  :class:`~repro.core.core.OOOCore`, leaving it indistinguishable from one
  warmed functionally over the same region (proven bit-exact by the
  determinism tests).
- :class:`CheckpointStore` is the content-addressed on-disk store.  It
  keeps every checkpoint as two parts along the line the warmer already
  respects: a **hierarchy part** (everything but the RFP tables; it
  depends only on :data:`WARM_CONFIG_FIELDS`, see
  :func:`hierarchy_fingerprint`) and, for an RFP config, an **RFP part**
  (the PT/PAT/context tables and the PT's RNG draw count; it depends only on
  :data:`WARM_RFP_FIELDS` plus ``seed``, see :func:`rfp_fingerprint`).
  Every config of a sweep that shares the cache geometry shares one
  hierarchy part per position, and :func:`ensure_checkpoints` writes all
  of them in one warm pass.  The store is an
  :class:`~repro.sim.journal.EnvelopeStore`, like the result cache: a
  corrupt part is evicted with a warning and the workload re-warmed —
  never silently restored.

``REPRO_CHECKPOINT_DIR`` overrides the store location (default
``<repo>/benchmarks/.checkpoints``).  Sweeps always use the store, like the
result cache beside it; only a direct
:func:`~repro.sim.runner.simulate_interval` call can pass
``checkpoint_store=None`` and warm every interval.  Restore is
bit-exact versus a fresh warm, so the store is *not* mixed into
result fingerprints.
"""

import base64
import hashlib
import json
import os
import sys
from array import array
from itertools import chain, compress, count

from repro.emu.warmup import FunctionalWarmer
from repro.memory.cache import EMPTY_SET
from repro.sim import settings
from repro.sim.journal import EnvelopeStore
from repro.sim.runner import SCHEMA_VERSION

#: On-disk checkpoint format version.  Mixed into every fingerprint so a
#: layout or checksum change turns old entries into misses, not wrong warm
#: state or eviction warnings.  2: the checksum hashes the payload bytes.
#: 3: a checkpoint is a hierarchy part plus an RFP part, and the MD table
#: is stored sparsely.  4: caches and the DTLB are flat line lists, the
#: memory delta and streamer pages flat rows, the hit-miss table a digit
#: string and the PT's RNG state base64.  5: those lines, dirty positions,
#: pages, streamer rows and memory delta, and the RNG state, are packed
#: columns (:func:`_pack`), inside the binary, zlib-compressed envelope of
#: :mod:`repro.sim.journal`.  6: a packed column holds byte planes, the
#: memory delta is an address column and a value column, and the PT's RNG
#: state is its draw count (:func:`replay_draws`).
CHECKPOINT_FORMAT = 6

#: CoreConfig fields the functional warmer's behaviour depends on.  Timing
#: parameters (latencies, widths, queue depths) are deliberately absent:
#: the warmer executes architecturally, so a timing sweep shares one warm
#: state per workload — that sharing is the whole point of the store.
WARM_CONFIG_FIELDS = (
    "line_bytes",
    "l1_size", "l1_assoc",
    "l2_size", "l2_assoc",
    "llc_size", "llc_assoc",
    "dtlb_entries", "dtlb_assoc",
    "l2_prefetcher_enabled", "l2_prefetcher_entries", "l2_prefetcher_degree",
    "l1_next_line_prefetch",
    "hit_miss_predictor", "hit_miss_entries",
    "seed",
)

#: RFPConfig fields that shape the warmer's PT/PAT/context training.
WARM_RFP_FIELDS = (
    "enabled",
    "pt_entries", "pt_assoc",
    "confidence_bits", "confidence_increment_prob",
    "utility_bits", "stride_bits", "inflight_bits",
    "use_pat", "pat_entries", "pat_assoc",
    "context_enabled", "context_entries",
)


def _fingerprint(kind, fields):
    payload = {
        "schema": SCHEMA_VERSION,
        "checkpoint_format": CHECKPOINT_FORMAT,
        kind: fields,
    }
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def hierarchy_fingerprint(config):
    """Stable hash of :data:`WARM_CONFIG_FIELDS`: everything a hierarchy
    part depends on.  RFP and timing fields do not enter it."""
    return _fingerprint(
        "config", {name: getattr(config, name) for name in WARM_CONFIG_FIELDS}
    )


def rfp_fingerprint(config):
    """Stable hash of :data:`WARM_RFP_FIELDS` plus ``seed`` (the PT's RNG
    seed): everything an RFP part depends on.  Cache geometry and timing
    fields do not enter it.  None for a config without RFP."""
    if not config.rfp.enabled:
        return None
    fields = {name: getattr(config.rfp, name) for name in WARM_RFP_FIELDS}
    fields["seed"] = config.seed
    return _fingerprint("rfp", fields)


def warm_fingerprint(config):
    """Fingerprint of a config's whole warm state: the hierarchy
    fingerprint, joined by ``+`` to the RFP fingerprint for an RFP config.

    Two configs with equal fingerprints produce byte-identical warm state
    over the same (workload, length, functional count) by construction, so
    they share checkpoints.
    """
    rfp = rfp_fingerprint(config)
    hierarchy = hierarchy_fingerprint(config)
    return hierarchy if rfp is None else hierarchy + "+" + rfp


# ---------------------------------------------------------------------------
# state capture / restore

_SWAP = sys.byteorder == "big"


def _pack(values):
    """A list of non-negative integers as one string: the typecode ``I``
    when every value fits in 32 bits, else ``Q``, then the base64 of the
    values' little-endian bytes as byte planes: every value's first byte,
    then every value's second byte, and so on.  The high planes of a
    column of similar values are long runs of a few bytes, which the
    store's zlib compresses well; interleaved words hide those runs.
    Decoding it (:func:`_unpack`) is one slice assignment per plane, one
    ``frombytes`` and one ``tolist``, faster than parsing the decimal
    list."""
    column = array("I" if max(values, default=0) < 1 << 32 else "Q", values)
    if _SWAP:
        column.byteswap()
    raw = column.tobytes()
    width = column.itemsize
    planes = b"".join(raw[plane::width] for plane in range(width))
    return column.typecode + base64.b64encode(planes).decode("ascii")


def _unpack(packed):
    """The list of integers :func:`_pack` encoded into ``packed``."""
    column = array(packed[0])
    planes = memoryview(base64.b64decode(packed[1:]))
    width = column.itemsize
    size = len(planes) // width
    raw = bytearray(len(planes))
    for plane in range(width):
        raw[plane::width] = planes[plane * size:(plane + 1) * size]
    column.frombytes(raw)
    if _SWAP:
        column.byteswap()
    return column.tolist()


#: Draws replayed per ``getrandbits`` call by :func:`replay_draws`.
_DRAW_CHUNK = 1024


def replay_draws(rng, draws):
    """Advance the :class:`random.Random` ``rng`` exactly as ``draws``
    calls of ``rng.random()`` would.  CPython's ``random()`` takes two
    32-bit Mersenne Twister outputs and ``getrandbits(64 * k)`` takes
    ``2 * k`` in one C call, so the jump costs a fraction of the calls;
    chunks of :data:`_DRAW_CHUNK` draws keep each throw-away integer
    small."""
    while draws > 0:
        chunk = min(draws, _DRAW_CHUNK)
        rng.getrandbits(64 * chunk)
        draws -= chunk


def _cache_dump(cache):
    """The cache's lines set after set, in LRU order within a set (a
    line's set is ``line & set_mask``), the positions of its dirty lines
    in that list, both packed, and the stat counters."""
    stats = cache.stats
    return {
        "lines": _pack(list(chain.from_iterable(cache.sets))),
        "dirty": _pack(list(compress(count(), chain.from_iterable(
            map(dict.values, cache.sets))))),
        "stats": [stats.hits, stats.misses, stats.evictions, stats.fills,
                  stats.prefetch_fills],
    }


def _sets_load(sets, mask, lines, value):
    """Fill a fresh structure's sets from a set-after-set list of
    ``lines``: a cache set is made at its first line, and one no line
    lands in stays the shared :data:`~repro.memory.cache.EMPTY_SET`."""
    for line in lines:
        index = line & mask
        target = sets[index]
        if target is EMPTY_SET:
            target = sets[index] = {}
        target[line] = value


def _cache_load(cache, dump):
    sets, mask, lines = cache.sets, cache.set_mask, _unpack(dump["lines"])
    _sets_load(sets, mask, lines, False)
    for position in _unpack(dump["dirty"]):
        line = lines[position]
        sets[line & mask][line] = True
    stats = cache.stats
    (stats.hits, stats.misses, stats.evictions, stats.fills,
     stats.prefetch_fills) = dump["stats"]


def _pt_dump(pt):
    sets = []
    for pt_set in pt.sets:
        sets.append([
            [tag, [entry.confidence, entry.utility, entry.stride,
                   entry.inflight, entry.base_addr,
                   list(entry.pat_pointer)
                   if entry.pat_pointer is not None else None,
                   entry.page_offset]]
            for tag, entry in pt_set.items()
        ])
    return {
        "sets": sets,
        "counters": [pt.trainings, pt.allocations, pt.evictions,
                     pt.confidence_saturations],
        # With the PT's seed, its RNG's draw count is its whole state.
        "rng": pt.draws,
    }


def _pt_load(pt, dump):
    from repro.rfp.prefetch_table import PTEntry

    for pt_set, pairs in zip(pt.sets, dump["sets"]):
        for tag, fields in pairs:
            entry = PTEntry(tag)
            (entry.confidence, entry.utility, entry.stride, entry.inflight,
             entry.base_addr, pat_pointer, entry.page_offset) = fields
            entry.pat_pointer = (
                tuple(pat_pointer) if pat_pointer is not None else None
            )
            pt_set[tag] = entry
    (pt.trainings, pt.allocations, pt.evictions,
     pt.confidence_saturations) = dump["counters"]
    pt._rng.seed(pt.seed)
    pt.draws = dump["rng"]
    replay_draws(pt._rng, pt.draws)


def _memory_delta(writes, image):
    """``[addresses, values]``, two packed columns, of every committed
    word that differs from the initial ``image``: the image words
    ``writes`` changed, in image order, then the words the image lacks,
    in the order they were first written (``writes`` order)."""
    addrs, values = [], []
    for addr in filter(writes.__contains__, image):
        value = writes[addr]
        if value != image[addr]:
            addrs.append(addr)
            values.append(value)
    for addr, value in writes.items():
        if addr not in image:
            addrs.append(addr)
            values.append(value)
    return [_pack(addrs), _pack(values)]


def capture(core, warmer):
    """Serialize ``core``'s post-warm state into a JSON-friendly dict.

    ``warmer`` is the :class:`FunctionalWarmer` that produced the state;
    its register file and instruction position are part of the snapshot.
    Committed memory is stored as its delta over the trace's initial
    image (:func:`_memory_delta` of the core's writes over
    ``core.image``), never as the image itself.
    """
    trace = core.trace
    hierarchy = core.hierarchy
    dtlb = hierarchy.dtlb
    state = {
        "workload": trace.name,
        "length": len(trace),
        "functional": warmer.warmed,
        "registers": list(warmer.registers.values),
        "memory": _memory_delta(core.memory, core.image),
        "path_history": core.frontend.path_history,
        "hierarchy": {
            "l1": _cache_dump(hierarchy.l1),
            "l2": _cache_dump(hierarchy.l2),
            "llc": _cache_dump(hierarchy.llc),
            "dtlb": {
                # Set after set, in LRU order, like a cache's lines.
                "pages": _pack(list(chain.from_iterable(dtlb.sets))),
                "hits": dtlb.hits,
                "misses": dtlb.misses,
            },
        },
        "md": {
            # Sparse: the functional warmer never trains a violation.
            "table": [[index, counter]
                      for index, counter in enumerate(core.md.table)
                      if counter],
            "commit_tick": core.md._commit_tick,
            "violations": core.md.violations,
        },
    }
    prefetcher = hierarchy.l2_prefetcher
    if prefetcher is not None:
        state["hierarchy"]["l2_prefetcher"] = {
            # [page, min_line, max_line, fwd_score, bwd_score, ...] in LRU
            # order, packed.
            "pages": _pack([
                field for page, entry in prefetcher.pages.items()
                for field in (page, entry.min_line, entry.max_line,
                              entry.fwd_score, entry.bwd_score)
            ]),
            "issued": prefetcher.issued,
            "trainings": prefetcher.trainings,
        }
    if core.hit_miss is not None:
        state["hit_miss"] = {
            # One digit per 2-bit counter.
            "table": "".join(map(str, core.hit_miss.table)),
            "predictions": core.hit_miss.predictions,
            "mispredicts": core.hit_miss.mispredicts,
        }
    if core.rfp is not None:
        state["rfp"] = _rfp_dump(core.rfp)
    return state


def _rfp_dump(rfp):
    """The ``"rfp"`` entry of a :func:`capture` dict: the PT (with its RNG
    draw count), PAT and context tables of one RFP engine."""
    dump = {"pt": _pt_dump(rfp.pt)}
    if rfp.pat is not None:
        dump["pat"] = {
            "ways": [list(ways) for ways in rfp.pat.ways],
            "lru": [list(order) for order in rfp.pat.lru],
            "insertions": rfp.pat.insertions,
            "evictions": rfp.pat.evictions,
        }
    if rfp.context is not None:
        dump["context"] = {
            "table": [
                [index, [entry.tag, entry.last_addr, entry.stride,
                         entry.confidence]]
                for index, entry in rfp.context.table.items()
            ],
            "predictions": rfp.context.predictions,
            "trainings": rfp.context.trainings,
        }
    return dump


def _rfp_load(rfp, dump):
    _pt_load(rfp.pt, dump["pt"])
    if rfp.pat is not None and "pat" in dump:
        pat = rfp.pat
        pat.ways = [list(ways) for ways in dump["pat"]["ways"]]
        pat.lru = [list(order) for order in dump["pat"]["lru"]]
        pat.insertions = dump["pat"]["insertions"]
        pat.evictions = dump["pat"]["evictions"]
    if rfp.context is not None and "context" in dump:
        from repro.rfp.context import _ContextEntry

        context = rfp.context
        for index, fields in dump["context"]["table"]:
            entry = _ContextEntry(fields[0], fields[1])
            entry.stride, entry.confidence = fields[2], fields[3]
            context.table[index] = entry
        context.predictions = dump["context"]["predictions"]
        context.trainings = dump["context"]["trainings"]


def restore(core, state):
    """Apply a :func:`capture` dict onto a freshly constructed core.

    ``core`` must be fresh: its empty committed-writes dict receives the
    memory delta, and the streamer, the MD table and the RFP tables are
    filled, not cleared first, so state left over from an earlier run
    would survive the restore; a cache set is made when its first
    restored line lands, and every other cache set stays the shared
    empty one.  Leaves ``core``
    exactly as a functional warm over the first
    ``state["functional"]`` instructions would: fetch cursor at the
    boundary, rename unit seeded with the warmed register values, every
    warmed structure (contents and counters) restored.  Returns ``core``.
    """
    if state["length"] != len(core.trace):
        raise ValueError(
            "checkpoint for a %d-instruction trace restored onto a "
            "%d-instruction trace" % (state["length"], len(core.trace))
        )
    addrs, values = state["memory"]
    core.memory.update(zip(_unpack(addrs), _unpack(values)))
    hierarchy = core.hierarchy
    dumped = state["hierarchy"]
    _cache_load(hierarchy.l1, dumped["l1"])
    _cache_load(hierarchy.l2, dumped["l2"])
    _cache_load(hierarchy.llc, dumped["llc"])
    dtlb = hierarchy.dtlb
    _sets_load(dtlb.sets, dtlb.set_mask, _unpack(dumped["dtlb"]["pages"]),
               True)
    dtlb.hits = dumped["dtlb"]["hits"]
    dtlb.misses = dumped["dtlb"]["misses"]
    prefetcher = hierarchy.l2_prefetcher
    if prefetcher is not None and "l2_prefetcher" in dumped:
        from repro.memory.prefetcher import _PageEntry

        fields = _unpack(dumped["l2_prefetcher"]["pages"])
        for row in range(0, len(fields), 5):
            entry = _PageEntry(0)
            (entry.min_line, entry.max_line,
             entry.fwd_score, entry.bwd_score) = fields[row + 1:row + 5]
            prefetcher.pages[fields[row]] = entry
        prefetcher.issued = dumped["l2_prefetcher"]["issued"]
        prefetcher.trainings = dumped["l2_prefetcher"]["trainings"]
    if core.hit_miss is not None and "hit_miss" in state:
        core.hit_miss.table[:] = map(int, state["hit_miss"]["table"])
        core.hit_miss.predictions = state["hit_miss"]["predictions"]
        core.hit_miss.mispredicts = state["hit_miss"]["mispredicts"]
    md_table = core.md.table
    for index, counter in state["md"]["table"]:
        md_table[index] = counter
    core.md._commit_tick = state["md"]["commit_tick"]
    core.md.violations = state["md"]["violations"]
    if core.rfp is not None and "rfp" in state:
        _rfp_load(core.rfp, state["rfp"])
    core.frontend.path_history = state["path_history"]
    core.rename.seed_architectural(list(state["registers"]))
    core.frontend.cursor.rewind(state["functional"])
    return core


# ---------------------------------------------------------------------------
# the on-disk store

#: Infix of an RFP part's key, ``<workload>-<length>-<functional>-rfp-<fp>``
#: (a hierarchy part's key is ``<workload>-<length>-<functional>-<fp>``).
RFP_PART = "-rfp-"


class CheckpointStore(EnvelopeStore):
    """Envelope-file-per-part checkpoint store; adds the two-part layout,
    presence probes and LRU pruning to the
    :class:`~repro.sim.journal.EnvelopeStore` it shares with
    :class:`~repro.sim.cache.ResultCache`.

    A key (``<workload>-<length>-<functional>-<warm fingerprint>``) names
    one hierarchy part and, for an RFP config, one RFP part
    (:meth:`parts`).  ``get`` merges the two back into the
    :func:`capture` dict; a missing or corrupt part is a miss.
    """

    SUFFIX = ".ckpt.json"
    DIR_SETTING = "REPRO_CHECKPOINT_DIR"
    KIND = "checkpoint"
    LABEL = "checkpoint"
    CONSEQUENCE = "the workload will be re-warmed functionally"
    FAULT = "corrupt_checkpoint"
    FLIP_FIELD = "functional"

    def key(self, workload, config, length, functional):
        return "%s-%d-%d-%s" % (
            workload, length, functional, warm_fingerprint(config)
        )

    @staticmethod
    def parts(key):
        """``(hierarchy part key, RFP part key or None)`` named by ``key``."""
        hierarchy, _, rfp = key.partition("+")
        if not rfp:
            return hierarchy, None
        return hierarchy, hierarchy.rsplit("-", 1)[0] + RFP_PART + rfp

    def contains(self, key):
        """Presence probe (every part) without reading/validating."""
        return all(os.path.exists(self._path(part))
                   for part in self.parts(key) if part is not None)

    def get(self, key):
        """Return the checkpoint state dict for ``key``, or None."""
        hierarchy_key, rfp_key = self.parts(key)
        state = self._read(hierarchy_key)
        if state is None:
            return None
        if rfp_key is not None:
            part = self._read(rfp_key)
            if part is None:
                return None
            state["rfp"] = part["rfp"]
        # Refresh recency for prune()'s LRU ordering.
        for part_key in (hierarchy_key, rfp_key):
            if part_key is not None:
                try:
                    os.utime(self._path(part_key), None)
                except OSError:
                    pass
        return state

    def put(self, key, state):
        """File ``state`` under ``key``: the RFP part always, the
        hierarchy part only when it is absent (the configs sharing it
        would write the same bytes)."""
        hierarchy_key, rfp_key = self.parts(key)
        if not os.path.exists(self._path(hierarchy_key)):
            self._write(hierarchy_key, {name: value
                                        for name, value in state.items()
                                        if name != "rfp"})
        if rfp_key is not None:
            self._write(rfp_key, {"functional": state["functional"],
                                  "rfp": state["rfp"]})

    def stats(self):
        """:meth:`EnvelopeStore.stats` plus entries and bytes per part
        kind (``hierarchy_*`` and ``rfp_*``)."""
        stats = super().stats()
        for kind in ("hierarchy", "rfp"):
            stats[kind + "_entries"] = stats[kind + "_bytes"] = 0
        for path in self.entry_paths():
            kind = "rfp" if RFP_PART in os.path.basename(path) else "hierarchy"
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            stats[kind + "_entries"] += 1
            stats[kind + "_bytes"] += size
        return stats

    def prune(self, max_bytes):
        """LRU-evict entries until the store fits in ``max_bytes``.

        Recency is file mtime (refreshed on every :meth:`get` hit).
        Returns the number of entries removed.
        """
        entries = []
        total = 0
        for path in self.entry_paths():
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((stat.st_mtime, path, stat.st_size))
            total += stat.st_size
        entries.sort()
        removed = 0
        for _mtime, path, size in entries:
            if total <= max_bytes:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            removed += 1
        return removed


_default_store = None


def default_checkpoint_store():
    """The shared store at ``REPRO_CHECKPOINT_DIR``."""
    global _default_store
    directory = settings.get("REPRO_CHECKPOINT_DIR")
    if _default_store is None or _default_store.directory != directory:
        _default_store = CheckpointStore(directory)
    return _default_store


# ---------------------------------------------------------------------------
# high-level helpers


def warm_or_restore(core, workload, config, length, functional, store):
    """Bring ``core`` to the warm state at ``functional`` instructions.

    Restores from ``store`` when possible, else warms functionally (and
    files the result for next time).  Returns ``"restored"``, ``"warmed"``
    (store miss, checkpoint written) or ``"off"`` (no store).
    """
    if functional <= 0:
        return "off"
    if store is None:
        FunctionalWarmer(core).warm(functional)
        return "off"
    key = store.key(workload, config, length, functional)
    state = store.get(key)
    if state is not None:
        restore(core, state)
        return "restored"
    warmer = FunctionalWarmer(core).warm(functional)
    store.put(key, capture(core, warmer))
    return "warmed"


def ensure_checkpoints(trace, workload, config, length, positions, store):
    """Write every missing checkpoint among ``positions`` in ONE warm pass
    per hierarchy fingerprint.

    ``config`` is one :class:`~repro.core.config.CoreConfig` or a list of
    them; every config gets a checkpoint at every position.  Configs that
    share a :func:`hierarchy_fingerprint` share one
    :class:`FunctionalWarmer` pass: it walks the cache hierarchy once,
    trains each distinct RFP table set in the same loop, and at each
    position captures the hierarchy part once and each RFP part once.

    ``positions`` are functional instruction counts (ascending order not
    required; zeros are skipped).  A pass resumes from the deepest
    position stored for every config below the first gap, so a
    partially-filled store is completed without replaying its prefix, and
    a fully-filled store costs only presence probes — zero functional
    warms.  A resume checkpoint that fails its checksum is evicted and
    re-written by the same pass.

    ``trace`` may be None; it is built lazily only if a warm is needed.
    :func:`ensure_checkpoints_batch` is the batched multi-job form.
    Returns ``{position: "hit" | "warmed"}``; a position is a hit when
    every config's checkpoint there was already stored.
    """
    configs = config if isinstance(config, (list, tuple)) else [config]
    # One config per distinct warm state, grouped by hierarchy part.
    groups = {}
    for each in configs:
        groups.setdefault(hierarchy_fingerprint(each), {}).setdefault(
            warm_fingerprint(each), each)
    wanted = sorted({int(p) for p in positions if p > 0})
    outcome = dict.fromkeys(wanted, "hit")
    for group in groups.values():
        trace = _warm_pass(trace, workload, list(group.values()), length,
                           wanted, store, outcome)
    return outcome


def _warm_pass(trace, workload, configs, length, wanted, store, outcome):
    """One functional pass for ``configs`` (one hierarchy fingerprint):
    write every missing checkpoint among ``wanted`` and mark its position
    ``"warmed"`` in ``outcome``.  Returns the trace (built if needed)."""
    keys = {position: [store.key(workload, each, length, position)
                       for each in configs]
            for position in wanted}
    missing = [position for position in wanted
               if not all(store.contains(key) for key in keys[position])]
    if not missing:
        return trace
    if trace is None:
        from repro.workloads.suite import build_workload

        trace = build_workload(workload, length=length)
    from repro.core.core import OOOCore
    from repro.rfp.engine import RFPEngine

    # The lead core carries the shared hierarchy; each RFP config trains
    # its own tables (they depend on nothing the hierarchy part holds).
    core = OOOCore(trace, configs[0].evolve(rfp={"enabled": False}))
    engines = [RFPEngine(each, core.hierarchy, core.sq, core.md, core.ports)
               if each.rfp.enabled else None for each in configs]
    warmer = FunctionalWarmer(
        core, [engine for engine in engines if engine is not None])
    # Resume from the deepest stored position below the first gap.  One
    # whose part fails its checksum was evicted by get(): re-warm it here.
    for position in reversed([p for p in wanted if p < missing[0]]):
        states = []
        for key in keys[position]:
            state = store.get(key)
            if state is None:
                break
            states.append(state)
        else:
            restore(core, states[0])
            for engine, state in zip(engines, states):
                if engine is not None:
                    _rfp_load(engine, state["rfp"])
            warmer.registers.values[:] = states[0]["registers"]
            warmer.warmed = position
            break
        missing.insert(0, position)
    for position in missing:
        warmer.warm(position)
        hierarchy = capture(core, warmer)
        for key, engine in zip(keys[position], engines):
            if store.contains(key):
                continue
            store.put(key, hierarchy if engine is None
                      else dict(hierarchy, rfp=_rfp_dump(engine)))
        outcome[position] = "warmed"
    return trace


def ensure_checkpoints_batch(jobs, store, width=None, chunk=None):
    """Batched :func:`ensure_checkpoints`: N warm jobs, one SoA engine run.

    ``jobs`` is a list of ``(trace_or_None, workload, config, length,
    positions)`` tuples.  Jobs that share a ``(workload, length)`` trace —
    a config sweep — advance through it in lockstep, and lanes whose
    configs agree on every cache-relevant field additionally share a
    single cache/DTLB advance (functional warming has no feedback from
    predictor state into cache contents, so the split is exact).  Emits
    byte-identical checkpoint payloads to the scalar path; returns one
    ``{position: "hit" | "warmed"}`` dict per job, in job order.
    """
    from repro.emu.batch import warm_batch

    return warm_batch(jobs, store=store, width=width, chunk=chunk)
