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
  probabilistic confidence counter's RNG stream, branch path history,
  architectural registers, and the committed-memory delta over the trace
  image — into a JSON-friendly dict.
- :func:`restore` applies such a dict onto a freshly constructed
  :class:`~repro.core.core.OOOCore`, leaving it indistinguishable from one
  warmed functionally over the same region (proven bit-exact by the
  determinism tests).
- :class:`CheckpointStore` is the content-addressed on-disk store, keyed by
  ``(workload, trace length, functional position, warm-relevant config
  fingerprint)``.  It is an :class:`~repro.sim.journal.EnvelopeStore`, like
  the result cache: a corrupt checkpoint is evicted with a warning and the
  workload re-warmed — never silently restored.

``REPRO_CHECKPOINT_DIR`` overrides the store location (default
``<repo>/benchmarks/.checkpoints``); ``REPRO_CHECKPOINTS=0`` disables the
store entirely (restore is bit-exact versus a fresh warm, so the switch is
*not* mixed into result fingerprints — results are identical either way).
"""

import hashlib
import json
import os

from repro.emu.warmup import FunctionalWarmer
from repro.sim import settings
from repro.sim.journal import EnvelopeStore
from repro.sim.runner import SCHEMA_VERSION

#: On-disk checkpoint format version.  Mixed into every fingerprint so a
#: layout or checksum change turns old entries into misses, not wrong warm
#: state or eviction warnings.  2: the checksum hashes the payload bytes.
CHECKPOINT_FORMAT = 2

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


def warm_fingerprint(config):
    """Stable hash of the warmup-relevant config subset.

    Two configs with equal fingerprints produce byte-identical warm state
    over the same (workload, length, functional count) by construction, so
    they share checkpoints.
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "checkpoint_format": CHECKPOINT_FORMAT,
        "config": {name: getattr(config, name) for name in WARM_CONFIG_FIELDS},
        "rfp": {name: getattr(config.rfp, name) for name in WARM_RFP_FIELDS},
    }
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# state capture / restore


def _cache_dump(cache):
    """Per-set (line, dirty) pairs in LRU order plus the stat counters."""
    stats = cache.stats
    return {
        "sets": [list(map(list, cache_set.items())) for cache_set in cache.sets],
        "stats": [stats.hits, stats.misses, stats.evictions, stats.fills,
                  stats.prefetch_fills],
    }


def _cache_load(cache, dump):
    for cache_set, pairs in zip(cache.sets, dump["sets"]):
        cache_set.clear()
        for line, dirty in pairs:
            cache_set[line] = dirty
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
    version, internal, gauss = pt._rng.getstate()
    return {
        "sets": sets,
        "counters": [pt.trainings, pt.allocations, pt.evictions,
                     pt.confidence_saturations],
        "rng": [version, list(internal), gauss],
    }


def _pt_load(pt, dump):
    from repro.rfp.prefetch_table import PTEntry

    for pt_set, pairs in zip(pt.sets, dump["sets"]):
        pt_set.clear()
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
    version, internal, gauss = dump["rng"]
    pt._rng.setstate((version, tuple(internal), gauss))


def capture(core, warmer):
    """Serialize ``core``'s post-warm state into a JSON-friendly dict.

    ``warmer`` is the :class:`FunctionalWarmer` that produced the state;
    its register file and instruction position are part of the snapshot.
    """
    trace = core.trace
    image_get = trace.memory_image.get
    hierarchy = core.hierarchy
    dtlb = hierarchy.dtlb
    state = {
        "workload": trace.name,
        "length": len(trace),
        "functional": warmer.warmed,
        "registers": list(warmer.registers.values),
        "memory": [
            [addr, value] for addr, value in core.memory.items()
            if image_get(addr) != value
        ],
        "path_history": core.frontend.path_history,
        "hierarchy": {
            "l1": _cache_dump(hierarchy.l1),
            "l2": _cache_dump(hierarchy.l2),
            "llc": _cache_dump(hierarchy.llc),
            "dtlb": {
                "sets": [list(tlb_set.keys()) for tlb_set in dtlb.sets],
                "hits": dtlb.hits,
                "misses": dtlb.misses,
            },
        },
        "md": {
            "table": list(core.md.table),
            "commit_tick": core.md._commit_tick,
            "violations": core.md.violations,
        },
    }
    prefetcher = hierarchy.l2_prefetcher
    if prefetcher is not None:
        state["hierarchy"]["l2_prefetcher"] = {
            "pages": [
                [page, [entry.min_line, entry.max_line,
                        entry.fwd_score, entry.bwd_score]]
                for page, entry in prefetcher.pages.items()
            ],
            "issued": prefetcher.issued,
            "trainings": prefetcher.trainings,
        }
    if core.hit_miss is not None:
        state["hit_miss"] = {
            "table": list(core.hit_miss.table),
            "predictions": core.hit_miss.predictions,
            "mispredicts": core.hit_miss.mispredicts,
        }
    rfp = core.rfp
    if rfp is not None:
        state["rfp"] = {"pt": _pt_dump(rfp.pt)}
        if rfp.pat is not None:
            state["rfp"]["pat"] = {
                "ways": [list(ways) for ways in rfp.pat.ways],
                "lru": [list(order) for order in rfp.pat.lru],
                "insertions": rfp.pat.insertions,
                "evictions": rfp.pat.evictions,
            }
        if rfp.context is not None:
            state["rfp"]["context"] = {
                "table": [
                    [index, [entry.tag, entry.last_addr, entry.stride,
                             entry.confidence]]
                    for index, entry in rfp.context.table.items()
                ],
                "predictions": rfp.context.predictions,
                "trainings": rfp.context.trainings,
            }
    return state


def restore(core, state):
    """Apply a :func:`capture` dict onto a freshly constructed core.

    Leaves ``core`` exactly as a functional warm over the first
    ``state["functional"]`` instructions would: fetch cursor at the
    boundary, rename unit seeded with the warmed register values, every
    warmed structure (contents and counters) restored.  Returns ``core``.
    """
    if state["length"] != len(core.trace):
        raise ValueError(
            "checkpoint for a %d-instruction trace restored onto a "
            "%d-instruction trace" % (state["length"], len(core.trace))
        )
    for addr, value in state["memory"]:
        core.memory[addr] = value
    hierarchy = core.hierarchy
    dumped = state["hierarchy"]
    _cache_load(hierarchy.l1, dumped["l1"])
    _cache_load(hierarchy.l2, dumped["l2"])
    _cache_load(hierarchy.llc, dumped["llc"])
    dtlb = hierarchy.dtlb
    for tlb_set, pages in zip(dtlb.sets, dumped["dtlb"]["sets"]):
        tlb_set.clear()
        for page in pages:
            tlb_set[page] = True
    dtlb.hits = dumped["dtlb"]["hits"]
    dtlb.misses = dumped["dtlb"]["misses"]
    prefetcher = hierarchy.l2_prefetcher
    if prefetcher is not None and "l2_prefetcher" in dumped:
        from repro.memory.prefetcher import _PageEntry

        prefetcher.pages.clear()
        for page, fields in dumped["l2_prefetcher"]["pages"]:
            entry = _PageEntry(0)
            (entry.min_line, entry.max_line,
             entry.fwd_score, entry.bwd_score) = fields
            prefetcher.pages[page] = entry
        prefetcher.issued = dumped["l2_prefetcher"]["issued"]
        prefetcher.trainings = dumped["l2_prefetcher"]["trainings"]
    if core.hit_miss is not None and "hit_miss" in state:
        core.hit_miss.table[:] = state["hit_miss"]["table"]
        core.hit_miss.predictions = state["hit_miss"]["predictions"]
        core.hit_miss.mispredicts = state["hit_miss"]["mispredicts"]
    core.md.table[:] = state["md"]["table"]
    core.md._commit_tick = state["md"]["commit_tick"]
    core.md.violations = state["md"]["violations"]
    if core.rfp is not None and "rfp" in state:
        _pt_load(core.rfp.pt, state["rfp"]["pt"])
        if core.rfp.pat is not None and "pat" in state["rfp"]:
            pat = core.rfp.pat
            pat.ways = [list(ways) for ways in state["rfp"]["pat"]["ways"]]
            pat.lru = [list(order) for order in state["rfp"]["pat"]["lru"]]
            pat.insertions = state["rfp"]["pat"]["insertions"]
            pat.evictions = state["rfp"]["pat"]["evictions"]
        if core.rfp.context is not None and "context" in state["rfp"]:
            from repro.rfp.context import _ContextEntry

            context = core.rfp.context
            context.table.clear()
            for index, fields in state["rfp"]["context"]["table"]:
                entry = _ContextEntry(fields[0], fields[1])
                entry.stride, entry.confidence = fields[2], fields[3]
                context.table[index] = entry
            context.predictions = state["rfp"]["context"]["predictions"]
            context.trainings = state["rfp"]["context"]["trainings"]
    core.frontend.path_history = state["path_history"]
    core.rename.seed_architectural(list(state["registers"]))
    core.frontend.cursor.rewind(state["functional"])
    return core


def resume_warmer(core, state):
    """A :class:`FunctionalWarmer` positioned at a restored checkpoint.

    :func:`restore` is applied to ``core`` first; the returned warmer's
    emulator state (registers, memory, position) matches the end of the
    checkpointed region, so ``warm(count)`` continues from there without
    replaying the prefix.
    """
    restore(core, state)
    warmer = FunctionalWarmer(core)
    warmer.registers.values[:] = state["registers"]
    warmer.warmed = state["functional"]
    return warmer


# ---------------------------------------------------------------------------
# the on-disk store


class CheckpointStore(EnvelopeStore):
    """JSON-file-per-checkpoint store; adds presence probes and LRU
    pruning to the :class:`~repro.sim.journal.EnvelopeStore` it shares
    with :class:`~repro.sim.cache.ResultCache`."""

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

    def contains(self, key):
        """Presence probe without reading/validating the entry."""
        self._recover()
        return os.path.exists(self._path(key))

    def get(self, key):
        """Return the checkpoint state dict for ``key``, or None."""
        state = self._read(key)
        if state is not None:
            # Refresh recency for prune()'s LRU ordering.
            try:
                os.utime(self._path(key), None)
            except OSError:
                pass
        return state

    def put(self, key, state):
        self._write(key, state)

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
    """The shared store, or None when ``REPRO_CHECKPOINTS`` disables it."""
    global _default_store
    if not settings.get("REPRO_CHECKPOINTS"):
        return None
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


def ensure_checkpoints(trace, workload, config, length, positions, store,
                       engine="scalar"):
    """Write every missing checkpoint among ``positions`` in ONE warm pass.

    ``positions`` are functional instruction counts (ascending order not
    required; zeros are skipped).  The pass resumes from the deepest
    already-stored position preceding the first gap, so a partially-filled
    store is completed without replaying its prefix, and a fully-filled
    store costs only presence probes — zero functional warms.

    ``trace`` may be None; it is built lazily only if a warm is needed.
    ``engine`` selects who performs the pass: ``"scalar"`` (the
    :class:`FunctionalWarmer` loop below) or ``"batch"`` (the SoA engine in
    :mod:`repro.emu.batch` — bit-exact with scalar, and the natural entry
    point when several configs share this trace; see
    :func:`ensure_checkpoints_batch` for the multi-job form).
    Returns ``{position: "hit" | "warmed"}``.
    """
    if engine == "batch":
        [outcome] = ensure_checkpoints_batch(
            [(trace, workload, config, length, positions)], store
        )
        return outcome
    if engine != "scalar":
        raise ValueError("unknown warm engine %r" % (engine,))
    from repro.workloads.suite import build_workload

    wanted = sorted({int(p) for p in positions if p > 0})
    outcome = {}
    missing = []
    for position in wanted:
        if store.contains(store.key(workload, config, length, position)):
            outcome[position] = "hit"
        else:
            missing.append(position)
    if not missing:
        return outcome
    if trace is None:
        trace = build_workload(workload, length=length)
    from repro.core.core import OOOCore

    core = OOOCore(trace, config)
    warmer = None
    # Resume from the deepest stored position below the first gap.
    resume_from = [p for p in wanted if p < missing[0]
                   and outcome.get(p) == "hit"]
    if resume_from:
        state = store.get(store.key(workload, config, length,
                                    resume_from[-1]))
        if state is not None:
            warmer = resume_warmer(core, state)
    if warmer is None:
        warmer = FunctionalWarmer(core)
    for position in missing:
        warmer.warm(position)
        store.put(store.key(workload, config, length, position),
                  capture(core, warmer))
        outcome[position] = "warmed"
    return outcome


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
