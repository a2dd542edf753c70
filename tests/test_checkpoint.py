"""Warm-state checkpoints: bit-exact restore, the store, warm-once sweeps.

The contract under test: restoring a checkpoint must leave a fresh core in
*exactly* the state a fresh functional warm produces — per component
(caches with LRU order and dirty bits, DTLB, predictors, the RFP tables
including their RNG stream) and end to end (a restored run's measured
counters equal a freshly warmed run's).  On top of that, the store itself:
checksummed envelopes with classified corruption eviction, LRU pruning,
the storeless path, and the warm-once accounting — a 9-config timing sweep
or the six-config RFP sweep performs one functional warm per workload, a
repeat sweep zero — and the split into one shared hierarchy part and
small RFP-table parts.
"""

import base64
import json
import os
import random
import subprocess
import sys
import warnings

import pytest

from conftest import quiet_config, warm_passes

from repro.__main__ import main
from repro.core.config import RFPConfig, baseline, baseline_2x
from repro.core.core import OOOCore
from repro.emu.warmup import FunctionalWarmer
from repro.memory.cache import EMPTY_SET
from repro.sim.cache import ResultCache
from repro.sim import checkpoint
from repro.sim.checkpoint import (
    RFP_PART,
    _memory_delta,
    _unpack,
    WARM_RFP_FIELDS,
    CheckpointStore,
    capture,
    default_checkpoint_store,
    ensure_checkpoints,
    ensure_checkpoints_batch,
    hierarchy_fingerprint,
    replay_draws,
    restore,
    rfp_fingerprint,
    warm_fingerprint,
    warm_or_restore,
)
from repro.sim.faults import flip_envelope_field
from repro.sim.journal import encode_envelope
from repro.sim.parallel import run_matrix
from repro.sim.runner import SimResult, simulate_interval
from repro.sim.sampling import SamplingPlan, aggregate_intervals
from repro.workloads.suite import build_workload
from test_two_speed import hierarchy_state, pt_state

WORKLOAD = "spec06_mcf"
LENGTH = 4000
WARM = 2000


def storeless(config, spec):
    """The sampled cell of ``config`` with every interval warmed
    functionally (no store): the reference a store-backed run must equal."""
    plan = SamplingPlan(config, LENGTH, WARM, spec)
    return aggregate_intervals([
        simulate_interval(WORKLOAD, config, length=LENGTH,
                          start=plan.starts[i], measure=plan.measure,
                          ramp=plan.ramps[i], index=i,
                          checkpoint_store=None).data
        for i in range(plan.samples)], spec)


def sampled_cell(tmp_path, config, spec, cache_name="cache", max_workers=1):
    """One sampled cell through the sweep, on the store at
    ``REPRO_CHECKPOINT_DIR`` and a result cache of its own; returns the
    cell and the sweep's report."""
    [block], report = run_matrix(
        [config], [WORKLOAD], LENGTH, WARM,
        cache=ResultCache(str(tmp_path / cache_name)),
        max_workers=max_workers, sampling=spec)
    return block[WORKLOAD], report


def rewarm_warnings(run):
    """Call ``run()``; return its result and the "re-warmed" warnings the
    calling process saw (a shard warns in its own process, not here)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run()
    return result, [w for w in caught if "re-warmed" in str(w.message)]


def checkpoint_incidents(report):
    """The failure manifest's checkpoint records, minus their details."""
    return [(r["classification"], r["workload"], r["config"], r["attempts"],
             r["recovered"]) for r in report.failures]


def fresh_and_restored(config, length=LENGTH, warm=WARM, workload=WORKLOAD):
    """A functionally warmed core and a second core restored from its
    checkpoint; bit-exactness means every compared component is equal."""
    trace = build_workload(workload, length=length)
    warmed = OOOCore(trace, config)
    warmer = FunctionalWarmer(warmed).warm(warm)
    state = json.loads(json.dumps(capture(warmed, warmer)))  # disk round-trip
    restored = OOOCore(trace, config)
    restore(restored, state)
    return warmed, restored


# ---------------------------------------------------------------------------
# per-component bit-exactness


class TestRestoreBitExact:
    def test_caches_and_dtlb(self):
        warmed, restored = fresh_and_restored(baseline())
        assert hierarchy_state(restored.hierarchy) == hierarchy_state(
            warmed.hierarchy)
        for level in ("l1", "l2", "llc"):
            fresh_stats = getattr(warmed.hierarchy, level).stats
            rest_stats = getattr(restored.hierarchy, level).stats
            for counter in ("hits", "misses", "evictions", "fills",
                            "prefetch_fills"):
                assert getattr(rest_stats, counter) == getattr(
                    fresh_stats, counter), (level, counter)
        assert restored.hierarchy.dtlb.hits == warmed.hierarchy.dtlb.hits
        assert restored.hierarchy.dtlb.misses == warmed.hierarchy.dtlb.misses

    def test_l2_prefetcher_pages_and_counters(self):
        warmed, restored = fresh_and_restored(baseline())
        fresh_pf, rest_pf = (warmed.hierarchy.l2_prefetcher,
                             restored.hierarchy.l2_prefetcher)
        assert list(rest_pf.pages) == list(fresh_pf.pages)  # LRU order too
        for page, entry in fresh_pf.pages.items():
            other = rest_pf.pages[page]
            assert (other.min_line, other.max_line, other.fwd_score,
                    other.bwd_score) == (entry.min_line, entry.max_line,
                                         entry.fwd_score, entry.bwd_score)
        assert rest_pf.issued == fresh_pf.issued
        assert rest_pf.trainings == fresh_pf.trainings

    def test_hit_miss_and_md_predictors(self):
        warmed, restored = fresh_and_restored(quiet_config())
        assert restored.hit_miss.table == warmed.hit_miss.table
        assert restored.hit_miss.predictions == warmed.hit_miss.predictions
        assert restored.hit_miss.mispredicts == warmed.hit_miss.mispredicts
        assert restored.md.table == warmed.md.table
        assert restored.md._commit_tick == warmed.md._commit_tick

    def test_rfp_pt_pat_and_rng_stream(self):
        config = quiet_config(rfp={"enabled": True})
        warmed, restored = fresh_and_restored(config)
        assert pt_state(restored.rfp.pt) == pt_state(warmed.rfp.pt)
        assert restored.rfp.pt.trainings == warmed.rfp.pt.trainings
        assert restored.rfp.pt.allocations == warmed.rfp.pt.allocations
        # pat_pointer survives the JSON round-trip as a tuple.
        for pt_set in restored.rfp.pt.sets:
            for entry in pt_set.values():
                assert entry.pat_pointer is None or isinstance(
                    entry.pat_pointer, tuple)
        assert restored.rfp.pat.ways == warmed.rfp.pat.ways
        assert restored.rfp.pat.lru == warmed.rfp.pat.lru
        # The probabilistic confidence counter's RNG stream continues
        # exactly where the fresh warm left it.
        assert restored.rfp.pt._rng.getstate() == warmed.rfp.pt._rng.getstate()
        assert [restored.rfp.pt._rng.random() for _ in range(5)] == [
            warmed.rfp.pt._rng.random() for _ in range(5)]

    def test_pt_rng_comes_back_from_its_draw_count(self):
        """A checkpoint stores the PT's RNG as a draw count.  With Fig. 17's
        4-bit confidence counter, a spec06_gcc warm to 20,000 draws
        thousands of times, so the restore's replay spans several chunks
        and must land on the warmed RNG's exact state."""
        config = quiet_config(rfp={"enabled": True, "confidence_bits": 4})
        warmed, restored = fresh_and_restored(
            config, length=40000, warm=20000, workload="spec06_gcc")
        warmed_pt, restored_pt = warmed.rfp.pt, restored.rfp.pt
        assert warmed_pt.draws > 2 * checkpoint._DRAW_CHUNK
        assert restored_pt.draws == warmed_pt.draws
        assert restored_pt._rng.getstate() == warmed_pt._rng.getstate()
        assert [restored_pt._rng.random() for _ in range(1000)] == [
            warmed_pt._rng.random() for _ in range(1000)]

    def test_context_prefetcher(self):
        config = quiet_config(
            rfp={"enabled": True, "context_enabled": True})
        warmed, restored = fresh_and_restored(config)
        fresh_ctx, rest_ctx = warmed.rfp.context, restored.rfp.context
        assert list(rest_ctx.table) == list(fresh_ctx.table)
        for index, entry in fresh_ctx.table.items():
            other = rest_ctx.table[index]
            assert (other.tag, other.last_addr, other.stride,
                    other.confidence) == (entry.tag, entry.last_addr,
                                          entry.stride, entry.confidence)
        assert rest_ctx.trainings == fresh_ctx.trainings

    def test_architectural_state_and_cursor(self):
        warmed, restored = fresh_and_restored(quiet_config())
        # The same committed words (writes over the shared image), though
        # the restored writes hold only the words that differ.
        assert ({**restored.image, **restored.memory}
                == {**warmed.image, **warmed.memory})
        assert restored.rename.architectural_values() == \
            warmed.rename.architectural_values()
        assert restored.frontend.path_history == warmed.frontend.path_history
        assert restored.frontend.cursor.index == WARM

    def test_restore_makes_only_the_restored_sets(self):
        warmed, restored = fresh_and_restored(baseline())
        for level in ("l1", "l2", "llc"):
            made = [cache_set is not EMPTY_SET for cache_set
                    in getattr(restored.hierarchy, level).sets]
            filled = [bool(cache_set) for cache_set
                      in getattr(warmed.hierarchy, level).sets]
            assert made == filled, level
        assert EMPTY_SET in restored.hierarchy.llc.sets

    def test_memory_delta_order(self):
        """Changed image words in image order, then words the image lacks
        in first-write order; a word written back to its image value, or
        never written, is not in the delta."""
        image = {0x100: 1, 0x108: 2, 0x110: 3, 0x118: 4}
        writes = {0x900: 0, 0x110: 30, 0x108: 2, 0x100: 10, 0x800: 5}
        addrs, values = _memory_delta(writes, image)
        assert _unpack(addrs) == [0x100, 0x110, 0x900, 0x800]
        assert _unpack(values) == [10, 30, 0, 5]

    def test_restored_run_equals_fresh_run(self, tmp_path):
        """End to end: a run whose warm state came from the store measures
        byte-identical counters to a freshly warmed run."""
        store = CheckpointStore(str(tmp_path))
        config = quiet_config(rfp={"enabled": True})
        trace = build_workload(WORKLOAD, length=LENGTH)

        def run(expect):
            core = OOOCore(trace, config)
            outcome = warm_or_restore(core, WORKLOAD, config, LENGTH, WARM,
                                      store)
            assert outcome == expect
            core.warmup_instructions = 0
            core.run()
            return core.snapshot_counters()

        assert run("warmed") == run("restored")

    def test_length_mismatch_rejected(self):
        trace = build_workload(WORKLOAD, length=LENGTH)
        core = OOOCore(trace, quiet_config())
        warmer = FunctionalWarmer(core).warm(WARM)
        state = capture(core, warmer)
        other = OOOCore(build_workload(WORKLOAD, length=LENGTH * 2),
                        quiet_config())
        with pytest.raises(ValueError, match="restored onto"):
            restore(other, state)


# ---------------------------------------------------------------------------
# encodings


@pytest.mark.parametrize("draws", [0, 1, 1023, 1024, 1025, 5000])
def test_replayed_draws_equal_random_calls(draws):
    """The CPython behaviour a restore relies on: ``draws`` calls of
    ``random()`` and :func:`replay_draws`'s chunked ``getrandbits`` jump
    leave a Mersenne Twister in the same state."""
    called, replayed = random.Random(0xC0FFEE), random.Random(0xC0FFEE)
    for _ in range(draws):
        called.random()
    replay_draws(replayed, draws)
    assert replayed.getstate() == called.getstate()


class TestPackedColumns:
    @pytest.mark.parametrize("values, typecode", [
        ([], "I"),
        ([0, 1, 0xFFFFFFFF, 0x12345678] * 3, "I"),
        ([0, 1 << 32, 0xFFFFFFFFFFFFFFFF, 0x0123456789ABCDEF, 7], "Q"),
    ])
    @pytest.mark.parametrize("swap", [False, True])
    def test_round_trip(self, monkeypatch, values, typecode, swap):
        """Both typecodes and an empty column round-trip, also through
        the byte swap a big-endian host takes."""
        monkeypatch.setattr(checkpoint, "_SWAP", swap)
        packed = checkpoint._pack(values)
        assert packed[0] == typecode
        assert checkpoint._unpack(packed) == values

    def test_columns_are_little_endian_byte_planes(self):
        """All first bytes, then all second bytes, and so on, on any
        host byte order."""
        planes = bytes([1, 5, 2, 6, 3, 7, 4, 8])
        assert checkpoint._pack([0x04030201, 0x08070605]) == (
            "I" + base64.b64encode(planes).decode("ascii"))


# ---------------------------------------------------------------------------
# fingerprints


class TestWarmFingerprint:
    def test_timing_fields_do_not_change_it(self):
        base = warm_fingerprint(baseline())
        assert warm_fingerprint(baseline(rob_entries=64)) == base
        assert warm_fingerprint(baseline(l1_mshrs=4)) == base
        assert warm_fingerprint(baseline(dram_latency=400)) == base

    def test_warm_relevant_fields_change_it(self):
        base = warm_fingerprint(baseline())
        assert warm_fingerprint(baseline(l1_size=16 * 1024)) != base
        assert warm_fingerprint(baseline(seed=1)) != base
        assert warm_fingerprint(
            baseline(rfp={"enabled": True})) != base
        assert warm_fingerprint(
            baseline(l2_prefetcher_enabled=False)) != base

    def test_hierarchy_fingerprint_ignores_rfp_and_timing(self):
        base = hierarchy_fingerprint(baseline())
        for config in (baseline(rfp={"enabled": True}),
                       baseline(rfp={"enabled": True, "pt_entries": 256,
                                     "use_pat": False,
                                     "context_enabled": True}),
                       baseline(rob_entries=64, dram_latency=400),
                       baseline_2x()):
            assert hierarchy_fingerprint(config) == base
        assert hierarchy_fingerprint(baseline(l1_size=16 * 1024)) != base
        assert hierarchy_fingerprint(baseline(hit_miss_entries=512)) != base
        assert hierarchy_fingerprint(baseline(seed=1)) != base

    def test_rfp_fingerprint_ignores_hierarchy_and_timing(self):
        rfp = {"enabled": True}
        assert rfp_fingerprint(baseline()) is None
        base = rfp_fingerprint(baseline(rfp=rfp))
        for config in (baseline(rfp=rfp, l1_size=16 * 1024,
                                l2_prefetcher_enabled=False,
                                hit_miss_predictor=False),
                       baseline(rfp=dict(rfp, queue_entries=16),
                                rfp_dedicated_ports=2),
                       baseline_2x(rfp=rfp)):
            assert rfp_fingerprint(config) == base
        assert rfp_fingerprint(baseline(seed=1, rfp=rfp)) != base
        for config in RFP_VARIANTS[2:]:
            assert rfp_fingerprint(config) != base, config.name

    def test_key_names_a_shared_hierarchy_part(self):
        store = CheckpointStore()
        plain = store.key(WORKLOAD, baseline(), LENGTH, WARM)
        rfp = store.key(WORKLOAD, baseline(rfp={"enabled": True}), LENGTH,
                        WARM)
        assert store.parts(plain) == (plain, None)
        hierarchy, rfp_part = store.parts(rfp)
        assert hierarchy == plain
        assert rfp_part == "%s-%d-%d%s%s" % (
            WORKLOAD, LENGTH, WARM, RFP_PART,
            rfp_fingerprint(baseline(rfp={"enabled": True})))


#: One config per ``WARM_RFP_FIELDS`` field moved off the RFP default,
#: after RFP off and RFP at its defaults.
RFP_VARIANTS = [quiet_config(name="off"),
                quiet_config(name="rfp", rfp={"enabled": True})] + [
    quiet_config(name=field, rfp=dict(overrides, enabled=True))
    for field, overrides in (
        ("pt_entries", {"pt_entries": 256}),
        ("pt_assoc", {"pt_assoc": 4}),
        ("confidence_bits", {"confidence_bits": 2}),
        ("confidence_increment_prob", {"confidence_increment_prob": 0.5}),
        ("utility_bits", {"utility_bits": 1}),
        ("stride_bits", {"stride_bits": 6}),
        ("inflight_bits", {"inflight_bits": 5}),
        ("use_pat", {"use_pat": False}),
        ("pat_entries", {"pat_entries": 32}),
        ("pat_assoc", {"pat_assoc": 2}),
        ("context_enabled", {"context_enabled": True}),
        ("context_entries", {"context_enabled": True,
                             "context_entries": 256}),
    )
]


def test_rfp_variants_cover_every_warm_rfp_field():
    default = RFPConfig(enabled=True)
    moved = {field for config in RFP_VARIANTS[1:] for field in WARM_RFP_FIELDS
             if getattr(config.rfp, field) != getattr(default, field)}
    assert moved | {"enabled"} == set(WARM_RFP_FIELDS)


# ---------------------------------------------------------------------------
# the store


#: The two EnvelopeStore instances, each with the corruption-reason kind
#: and the eviction-warning consequence its wording must keep.
STORES = pytest.mark.parametrize("store_cls, kind, consequence", [
    pytest.param(ResultCache, "cache", "re-simulated", id="cache"),
    pytest.param(CheckpointStore, "checkpoint", "re-warmed", id="checkpoint"),
])


def put_payload(store, key):
    data = {"functional": WARM, "cycles": 1}
    store.put(key, SimResult(data) if isinstance(store, ResultCache) else data)


def truncate(path):
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(blob[: len(blob) // 2])


class TestCheckpointStore:
    def test_roundtrip_contains_stats_clear(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        key = store.key(WORKLOAD, quiet_config(), LENGTH, WARM)
        assert not store.contains(key)
        assert store.get(key) is None
        store.put(key, {"functional": WARM, "length": LENGTH})
        assert store.contains(key)
        assert store.get(key) == {"functional": WARM, "length": LENGTH}
        stats = store.stats()
        assert stats["entries"] == 1 and stats["bytes"] > 0
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert store.clear() == 1
        assert store.entry_paths() == []

    def test_put_get_roundtrip_restores_like_a_fresh_warm(self, tmp_path):
        """The envelope round trip changes no data: ``get`` returns the
        captured dict (same values, same key order) and a core restored
        from it measures the same SimResult as the freshly warmed one."""
        store = CheckpointStore(str(tmp_path))
        config = quiet_config(rfp={"enabled": True})
        trace = build_workload(WORKLOAD, length=LENGTH)
        warmed = OOOCore(trace, config)
        state = capture(warmed, FunctionalWarmer(warmed).warm(WARM))
        key = store.key(WORKLOAD, config, LENGTH, WARM)
        store.put(key, state)
        loaded = store.get(key)
        assert loaded == state
        assert json.dumps(loaded) == json.dumps(state)
        restored = restore(OOOCore(trace, config), loaded)
        results = []
        for core in (warmed, restored):
            core.warmup_instructions = 0
            core.run()
            results.append(SimResult.from_core(core, WORKLOAD, "test").data)
        assert results[0] == results[1]

    @STORES
    def test_truncation_is_classified_and_evicted(self, tmp_path, store_cls,
                                                  kind, consequence):
        """A truncated entry is evicted by ``get`` and by ``stats``, whose
        totals are post-eviction; ``clear`` also removes stray temps."""
        store = store_cls(str(tmp_path))
        key = store.key(WORKLOAD, quiet_config(), LENGTH, WARM)
        survivor = store.key(WORKLOAD, quiet_config(), LENGTH, WARM + 1)
        path = store._path(key)
        for name in (key, survivor):
            put_payload(store, name)
        truncate(path)
        with pytest.warns(RuntimeWarning, match=consequence):
            assert store.get(key) is None
        assert not os.path.exists(path)
        [incident] = store.pop_evictions()
        assert incident["reason"] == "unreadable (truncated or malformed JSON)"
        put_payload(store, key)
        truncate(path)
        with pytest.warns(RuntimeWarning, match=consequence):
            stats = store.stats()
        assert (stats["entries"], stats["corrupt_evicted"]) == (1, 1)
        assert stats["bytes"] == os.path.getsize(store._path(survivor))
        assert [e["key"] for e in store.pop_evictions()] == [key]
        writer = subprocess.Popen([sys.executable, "-c", "pass"])
        writer.wait()  # a dead writer's temp file
        with open("%s.%d.tmp" % (path, writer.pid), "w") as handle:
            handle.write("half-written")
        assert store.clear() == 2  # the survivor and the stray temp
        assert not [name for name in os.listdir(str(tmp_path))
                    if name.endswith(".tmp") or name.endswith(".json")]

    @STORES
    def test_checksum_mismatch_and_bad_envelope(self, tmp_path, store_cls,
                                                kind, consequence):
        store = store_cls(str(tmp_path))
        key = store.key(WORKLOAD, quiet_config(), LENGTH, WARM)
        put_payload(store, key)
        path = store._path(key)
        flip_envelope_field(path, "functional")
        with pytest.warns(RuntimeWarning, match=consequence):
            assert store.get(key) is None
        [incident] = store.pop_evictions()
        assert incident["reason"] == \
            "checksum mismatch (payload altered on disk)"
        put_payload(store, key)
        with open(path, "w") as handle:
            json.dump({"no": "envelope"}, handle)
        with pytest.warns(RuntimeWarning):
            assert store.get(key) is None
        [incident] = store.pop_evictions()
        assert incident["reason"] == "not a checksummed %s envelope" % kind

    def test_prune_evicts_least_recently_used(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        keys = ["w%d-1000-500-abc" % i for i in range(4)]
        for i, key in enumerate(keys):
            store.put(key, {"functional": 500, "pad": "x" * 100})
            os.utime(store._path(key), (1000.0 + i, 1000.0 + i))
        # Touch the oldest via get(): it becomes most recently used.
        store.get(keys[0])
        total = store.stats()["bytes"]
        per_entry = total // 4
        removed = store.prune(total - per_entry)  # must drop exactly one
        assert removed == 1
        remaining = {os.path.basename(p) for p in store.entry_paths()}
        assert keys[1] + ".ckpt.json" not in remaining  # LRU after the touch
        assert keys[0] + ".ckpt.json" in remaining

    def test_disabled_store_is_bit_exact(self, tmp_path, monkeypatch):
        """A run without a store (``checkpoint_store=None``: every interval
        warms functionally) equals a store-backed run — restore is
        bit-exact versus a fresh warm, so the store is not fingerprinted."""
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        with_store, _ = sampled_cell(tmp_path, quiet_config(), {"samples": 3})
        assert default_checkpoint_store().entry_paths()
        assert with_store.data == storeless(quiet_config(), {"samples": 3})

    def test_sampled_matrix_cell_matches_a_storeless_run(self, tmp_path,
                                                         monkeypatch):
        """A sweep always goes through the store; each sampled cell still
        equals the storeless intervals of the same plan, aggregated."""
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        config = quiet_config(rfp={"enabled": True})
        cell, _ = sampled_cell(tmp_path, config, {"samples": 3})
        assert CheckpointStore(str(tmp_path / "ckpt")).entry_paths()
        assert cell.data == storeless(config, {"samples": 3})


# ---------------------------------------------------------------------------
# warm-once accounting


def sweep6_configs():
    """The benchmark's six paper configs (``benchmarks/perf`` ``sweep6``)."""
    rfp = {"enabled": True}
    return [
        baseline(name="baseline"),
        baseline(name="rfp", rfp=rfp),
        baseline(name="rfp-ded2", rfp=rfp, rfp_dedicated_ports=2),
        baseline(name="rfp-pt256", rfp={"enabled": True, "pt_entries": 256}),
        baseline_2x(name="baseline-2x"),
        baseline_2x(name="baseline-2x-rfp", rfp=rfp),
    ]


class TestWarmOnce:
    def test_ensure_checkpoints_is_one_pass(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        config = quiet_config()
        passes = warm_passes()
        outcome = ensure_checkpoints(None, WORKLOAD, config, LENGTH,
                                     [1000, 2000, 3000], store)
        assert outcome == {1000: "warmed", 2000: "warmed", 3000: "warmed"}
        assert passes() == 1
        # All present: zero warms, pure probes.
        passes = warm_passes()
        outcome = ensure_checkpoints(None, WORKLOAD, config, LENGTH,
                                     [1000, 2000, 3000], store)
        assert outcome == {1000: "hit", 2000: "hit", 3000: "hit"}
        assert passes() == 0

    def test_partial_store_resumes_from_deepest_prefix_hit(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        config = quiet_config()
        ensure_checkpoints(None, WORKLOAD, config, LENGTH,
                           [1000, 2000, 3000], store)
        with open(store._path(store.key(WORKLOAD, config, LENGTH,
                                        3000)), "rb") as handle:
            before = handle.read()
        os.remove(store._path(store.key(WORKLOAD, config, LENGTH, 3000)))
        passes = warm_passes()
        outcome = ensure_checkpoints(None, WORKLOAD, config, LENGTH,
                                     [1000, 2000, 3000], store)
        assert outcome == {1000: "hit", 2000: "hit", 3000: "warmed"}
        assert passes() == 1
        # Resuming from the 2000-checkpoint re-derives the identical bytes.
        with open(store._path(store.key(WORKLOAD, config, LENGTH,
                                        3000)), "rb") as handle:
            assert handle.read() == before

    def test_nine_config_sweep_warms_each_workload_once(self, tmp_path,
                                                        monkeypatch):
        """The acceptance sweep: nine configs differing only in timing
        parameters share warm fingerprints, so the whole matrix costs one
        functional warm per workload — and a repeat sweep zero."""
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        cache = ResultCache(str(tmp_path / "cache"))
        configs = [quiet_config(rob_entries=entries, name="rob%d" % entries)
                   for entries in (64, 96, 128, 160, 192, 224, 256, 288, 320)]
        fingerprints = {warm_fingerprint(config) for config in configs}
        assert len(fingerprints) == 1
        workloads = [WORKLOAD, "tpce"]
        sampling = {"samples": 3}
        passes = warm_passes()
        per_config, _report = run_matrix(
            configs, workloads, LENGTH, WARM, cache=cache, max_workers=1,
            sampling=sampling)
        assert all(len(block) == len(workloads) for block in per_config)
        assert passes() == len(workloads)
        # Repeat sweep: interval results come from the result cache and
        # warm state from the checkpoint store — zero functional warms.
        passes = warm_passes()
        repeat, _report = run_matrix(
            configs, workloads, LENGTH, WARM,
            cache=ResultCache(str(tmp_path / "cache2")), max_workers=1,
            sampling=sampling)
        assert passes() == 0
        for block_a, block_b in zip(per_config, repeat):
            for name in workloads:
                assert block_a[name].data == block_b[name].data

    def test_corrupt_resume_checkpoint_is_rewritten(self, tmp_path):
        """Regression: the deepest stored position below the first gap
        fails its checksum.  The pass evicts it, resumes from the next
        one down, writes it back and reports it warmed — no hole left
        for an interval job to fill with a second warm."""
        store = CheckpointStore(str(tmp_path))
        config = quiet_config()
        positions = [1000, 2000, 3000]
        ensure_checkpoints(None, WORKLOAD, config, LENGTH, positions, store)
        paths = {p: store._path(store.key(WORKLOAD, config, LENGTH, p))
                 for p in positions}
        with open(paths[2000], "rb") as handle:
            before = handle.read()
        os.remove(paths[3000])
        truncate(paths[2000])
        passes = warm_passes()
        with pytest.warns(RuntimeWarning, match="re-warmed"):
            outcome = ensure_checkpoints(None, WORKLOAD, config, LENGTH,
                                         positions, store)
        assert outcome == {1000: "hit", 2000: "warmed", 3000: "warmed"}
        assert passes() == 1
        assert all(store.contains(store.key(WORKLOAD, config, LENGTH, p))
                   for p in positions)
        with open(paths[2000], "rb") as handle:
            assert handle.read() == before

    def test_sweep6_configs_warm_each_workload_once(self, tmp_path,
                                                    monkeypatch):
        """The benchmark's six paper configs differ in RFP tables, ports
        and core width, never in cache geometry: one hierarchy
        fingerprint, so the sampled matrix costs one functional warm per
        workload, with two RFP parts (default and 256-entry PT) beside
        each hierarchy part — and a repeat sweep warms zero times."""
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        configs = sweep6_configs()
        assert len({hierarchy_fingerprint(c) for c in configs}) == 1
        assert len({warm_fingerprint(c) for c in configs}) == 3
        workloads = [WORKLOAD, "tpce"]
        sampling = {"samples": 2}
        passes = warm_passes()
        per_config, _report = run_matrix(
            configs, workloads, LENGTH, WARM,
            cache=ResultCache(str(tmp_path / "cache")), max_workers=1,
            sampling=sampling)
        assert passes() == len(workloads)
        stats = CheckpointStore(str(tmp_path / "ckpt")).stats()
        assert stats["hierarchy_entries"] == 2 * len(workloads)
        assert stats["rfp_entries"] == 2 * stats["hierarchy_entries"]
        passes = warm_passes()
        repeat, _report = run_matrix(
            configs, workloads, LENGTH, WARM,
            cache=ResultCache(str(tmp_path / "cache2")), max_workers=1,
            sampling=sampling)
        assert passes() == 0
        for block_a, block_b in zip(per_config, repeat):
            for name in workloads:
                assert block_a[name].data == block_b[name].data


# ---------------------------------------------------------------------------
# the split store: one hierarchy part, small RFP parts


class TestSplitStore:
    def test_split_restore_equals_a_lone_warm(self, tmp_path):
        """One pass over every ``RFP_VARIANTS`` config; each restored core
        captures the same JSON as a core warmed alone."""
        store = CheckpointStore(str(tmp_path))
        passes = warm_passes()
        ensure_checkpoints(None, WORKLOAD, RFP_VARIANTS, LENGTH, [1000, WARM],
                           store)
        assert passes() == 1
        trace = build_workload(WORKLOAD, length=LENGTH)
        for config in RFP_VARIANTS:
            alone = OOOCore(trace, config)
            expected = capture(alone, FunctionalWarmer(alone).warm(WARM))
            state = store.get(store.key(WORKLOAD, config, LENGTH, WARM))
            restored = restore(OOOCore(trace, config), state)
            warmer = FunctionalWarmer(restored)
            warmer.registers.values[:] = state["registers"]
            warmer.warmed = state["functional"]
            assert json.dumps(capture(restored, warmer)) == \
                json.dumps(expected), config.name
            assert restored.rename.architectural_values() == \
                alone.rename.architectural_values()

    def test_one_hierarchy_file_per_position_and_geometry(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        positions = [1000, 2000, 3000]
        configs = RFP_VARIANTS[:4] + [
            quiet_config(name="small-l1", l1_size=24 * 1024),
            quiet_config(name="small-l1-rfp", l1_size=24 * 1024,
                         rfp={"enabled": True}),
        ]
        passes = warm_passes()
        ensure_checkpoints(None, WORKLOAD, configs, LENGTH, positions, store)
        assert passes() == 2  # one pass per cache geometry
        names = sorted(os.path.basename(path)
                       for path in store.entry_paths())
        hierarchy = [name for name in names if RFP_PART not in name]
        expected = sorted(
            "%s-%d-%d-%s%s" % (WORKLOAD, LENGTH, position,
                               hierarchy_fingerprint(config), store.SUFFIX)
            for position in positions for config in (configs[0], configs[4]))
        assert hierarchy == expected
        # RFP parts: default, pt_entries and pt_assoc tables; the
        # small-L1 RFP config shares the default table's part.
        assert len(names) - len(hierarchy) == 3 * len(positions)

    def test_batch_engine_writes_the_same_parts(self, tmp_path):
        files = {}
        for engine in ("scalar", "batch"):
            store = CheckpointStore(str(tmp_path / engine))
            if engine == "scalar":
                outcomes = [ensure_checkpoints(
                    None, WORKLOAD, RFP_VARIANTS[:4], LENGTH, [1000, WARM],
                    store)]
            else:
                outcomes = ensure_checkpoints_batch(
                    [(None, WORKLOAD, config, LENGTH, [1000, WARM])
                     for config in RFP_VARIANTS[:4]], store)
            for outcome in outcomes:
                assert outcome == {1000: "warmed", WARM: "warmed"}
            files[engine] = {}
            for path in store.entry_paths():
                with open(path, "rb") as handle:
                    files[engine][os.path.basename(path)] = handle.read()
        assert len(files["scalar"]) == 2 * 4  # 1 hierarchy + 3 RFP parts
        assert files["batch"] == files["scalar"]

    def test_identical_fills_write_identical_bytes(self, tmp_path):
        """Writers of one key need no lock because they write the same
        bytes: a state encodes to one byte string (its decoded copy too),
        and two stores filled by identical calls hold identical files."""
        config = RFP_VARIANTS[1]
        core = OOOCore(build_workload(WORKLOAD, length=LENGTH), config)
        state = capture(core, FunctionalWarmer(core).warm(WARM))
        blob = encode_envelope(state)[1]
        assert encode_envelope(state)[1] == blob
        assert encode_envelope(json.loads(json.dumps(state)))[1] == blob
        files = []
        for name in ("one", "two"):
            store = CheckpointStore(str(tmp_path / name))
            ensure_checkpoints(None, WORKLOAD, RFP_VARIANTS[:3], LENGTH,
                               [1000, WARM], store)
            contents = {}
            for path in store.entry_paths():
                with open(path, "rb") as handle:
                    contents[os.path.basename(path)] = handle.read()
            files.append(contents)
        assert len(files[0]) == 2 * 3  # 1 hierarchy + 2 RFP parts each
        assert files[0] == files[1]

    def test_parts_fit_their_size_budget(self, tmp_path):
        """spec06_gcc at 40k/20k under the benchmark's sampling plan (K=4,
        N=800) and six configs: every hierarchy part fits in 9 KB and
        every RFP part in 0.5 KB.  The per-set pair layout of format 3
        wrote parts of up to 122 KB and 9.0 KB, the plain-JSON columns of
        format 4 up to 60.2 KB and 4.65 KB, the packed columns and the
        whole RNG state of format 5 up to 18.4 KB and 2.93 KB."""
        store = CheckpointStore(str(tmp_path))
        configs = sweep6_configs()
        plan = SamplingPlan(configs[0], 40000, 20000,
                            {"samples": 4, "interval_length": 800})
        positions = plan.checkpoint_positions()
        assert positions == [19500, 24500, 29500, 34500]
        ensure_checkpoints(None, "spec06_gcc", configs, 40000, positions,
                           store)
        sizes = {os.path.basename(path): os.path.getsize(path)
                 for path in store.entry_paths()}
        hierarchy = [size for name, size in sizes.items()
                     if RFP_PART not in name]
        rfp = [size for name, size in sizes.items() if RFP_PART in name]
        assert (len(hierarchy), len(rfp)) == (4, 8)
        assert max(hierarchy) <= 9 * 1024, sizes
        assert max(rfp) <= 0.5 * 1024, sizes

    def test_stats_split_by_part_kind(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        store = CheckpointStore(str(tmp_path))
        ensure_checkpoints(None, WORKLOAD, RFP_VARIANTS[:3], LENGTH, [WARM],
                           store)
        stats = store.stats()
        assert (stats["hierarchy_entries"], stats["rfp_entries"]) == (1, 2)
        assert stats["hierarchy_bytes"] + stats["rfp_bytes"] == stats["bytes"]
        assert stats["rfp_bytes"] < stats["hierarchy_bytes"]
        # Each kind's bytes are its own files'.
        for kind in ("hierarchy", "rfp"):
            assert stats[kind + "_bytes"] == sum(
                os.path.getsize(path) for path in store.entry_paths()
                if (RFP_PART in os.path.basename(path)) == (kind == "rfp"))
        assert main(["checkpoint", "stats"]) == 0
        rows = {line.split("|")[0].strip(): line.split("|")[1].strip()
                for line in capsys.readouterr().out.splitlines()
                if "|" in line}
        for kind, label, count in (("hierarchy", "hierarchy", 1),
                                   ("rfp", "RFP", 2)):
            assert rows[label + " parts"] == "%d (%.1f KB)" % (
                count, stats[kind + "_bytes"] / 1024.0)

    def test_corrupt_rfp_part_rewarms_byte_identical(self, tmp_path,
                                                     monkeypatch):
        """A part already corrupt on disk when the sweep starts is met by
        the interval job that restores it: evicted, re-warmed, and
        recorded in the manifest as one recovered incident."""
        self.check_corrupt_rfp_part_rewarms(tmp_path, monkeypatch, 1)

    def test_corrupt_rfp_part_rewarms_byte_identical_sharded(
            self, tmp_path, monkeypatch):
        """As above, with the job in a shard: its eviction reaches the
        parent's manifest through the shard pipe."""
        self.check_corrupt_rfp_part_rewarms(tmp_path, monkeypatch, 2)

    @staticmethod
    def check_corrupt_rfp_part_rewarms(tmp_path, monkeypatch, max_workers):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        config = quiet_config(rfp={"enabled": True})
        clean, _ = sampled_cell(tmp_path, config, {"samples": 3})
        store = CheckpointStore(str(tmp_path / "ckpt"))
        before = {}
        for path in store.entry_paths():
            with open(path, "rb") as handle:
                before[path] = handle.read()
        rfp_path = [path for path in before if RFP_PART in path][-1]
        truncate(rfp_path)
        (again, report), rewarmed = rewarm_warnings(
            lambda: sampled_cell(tmp_path, config, {"samples": 3},
                                 cache_name="cache-again",
                                 max_workers=max_workers))
        assert len(rewarmed) == (1 if max_workers == 1 else 0)
        assert checkpoint_incidents(report) == [
            ("corrupt_checkpoint", WORKLOAD, config.name, 1, True)]
        assert report.jobs_failed == 0
        assert again.data == clean.data
        after = {}
        for path in store.entry_paths():
            with open(path, "rb") as handle:
                after[path] = handle.read()
        assert after == before


# ---------------------------------------------------------------------------
# fault injection


class TestCheckpointFaultInjection:
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_corrupt_checkpoint_fault_recovers_with_identical_result(
            self, tmp_path, monkeypatch, max_workers):
        """The fault corrupts each checkpoint as its interval job reads it:
        one recovered incident per checkpoint, results unchanged."""
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        config = quiet_config()
        clean, _ = sampled_cell(tmp_path, config, {"samples": 3})
        checkpoints = len(CheckpointStore(str(tmp_path / "ckpt")).entry_paths())
        assert checkpoints > 0
        monkeypatch.setenv("REPRO_FAULT",
                           "corrupt_checkpoint:key=%s" % WORKLOAD)
        (injected, report), rewarmed = rewarm_warnings(
            lambda: sampled_cell(tmp_path, config, {"samples": 3},
                                 cache_name="cache-again",
                                 max_workers=max_workers))
        assert len(rewarmed) == (checkpoints if max_workers == 1 else 0)
        assert checkpoint_incidents(report) == checkpoints * [
            ("corrupt_checkpoint", WORKLOAD, config.name, 1, True)]
        assert report.jobs_failed == 0
        assert injected.data == clean.data

    def test_flip_flavour_hits_checksum_classification(self, tmp_path,
                                                       monkeypatch):
        store = CheckpointStore(str(tmp_path))
        config = quiet_config()
        ensure_checkpoints(None, WORKLOAD, config, LENGTH, [WARM], store)
        monkeypatch.setenv(
            "REPRO_FAULT", "corrupt_checkpoint:key=%s:how=flip" % WORKLOAD)
        with pytest.warns(RuntimeWarning):
            assert store.get(store.key(WORKLOAD, config, LENGTH,
                                       WARM)) is None
        [incident] = store.pop_evictions()
        assert incident["reason"] == \
            "checksum mismatch (payload altered on disk)"

    def test_stats_reports_post_eviction_totals(self, tmp_path):
        """Regression: an entry found corrupt *during* ``stats()`` must be
        evicted and reported under ``corrupt_evicted`` only — never also
        counted in the same invocation's ``entries``/``bytes``."""
        store = CheckpointStore(str(tmp_path))
        good_key = "good-1000-500-abc"
        bad_key = "bad-1000-500-abc"
        store.put(good_key, {"functional": 500})
        store.put(bad_key, {"functional": 500})
        with open(store._path(bad_key), "w") as handle:
            handle.write("{ truncated")
        with open(store._path(good_key), "rb") as handle:
            good_bytes = len(handle.read())
        with pytest.warns(RuntimeWarning, match="re-warmed"):
            stats = store.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == good_bytes
        assert stats["corrupt_evicted"] == 1
        assert not os.path.exists(store._path(bad_key))
        [incident] = store.pop_evictions()
        assert incident["key"] == bad_key
        assert incident["reason"] == \
            "unreadable (truncated or malformed JSON)"
        # A second invocation sees a clean store: nothing double-counted.
        stats = store.stats()
        assert stats["entries"] == 1 and stats["corrupt_evicted"] == 0
