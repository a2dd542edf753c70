"""Memory hierarchy composition: level latencies, MSHR merges, oracles."""

import copy

import pytest

from conftest import LOAD, make_trace, quiet_config

from repro.core import dyninstr as D
from repro.core.config import baseline
from repro.core.core import OOOCore
from repro.core.dyninstr import DynInstr
from repro.memory.hierarchy import MemoryHierarchy
from repro.rfp.engine import _Packet
from repro.sim.oracle import ORACLE_MODES, oracle_config


@pytest.fixture
def hierarchy():
    return MemoryHierarchy(baseline(l2_prefetcher_enabled=False))


class TestLoadPath:
    def test_cold_load_goes_to_dram(self, hierarchy):
        # First access to a page also walks the DTLB.
        result = hierarchy.load(0x10000, 0x400, 0)
        walk = hierarchy.dtlb.walk_latency
        assert result.level == "DRAM"
        assert result.complete == walk + hierarchy.dram.latency

    def test_second_load_hits_l1(self, hierarchy):
        hierarchy.load(0x10000, 0x400, 0)
        result = hierarchy.load(0x10000, 0x400, 1000)
        assert result.level == "L1"
        assert result.complete == 1000 + hierarchy.latency["L1"]

    def test_same_line_different_word_hits(self, hierarchy):
        hierarchy.load(0x10000, 0x400, 0)
        result = hierarchy.load(0x10008, 0x400, 1000)
        assert result.level == "L1"

    def test_mshr_merge_while_inflight(self, hierarchy):
        first = hierarchy.load(0x10000, 0x400, 0)
        merged = hierarchy.load(0x10000, 0x400, 5)
        assert merged.level == "MSHR"
        assert merged.complete == first.complete

    def test_l2_hit_after_l1_eviction(self):
        config = baseline(l2_prefetcher_enabled=False)
        hierarchy = MemoryHierarchy(config)
        # Fill one L1 set past its associativity: same set, different tags.
        l1 = hierarchy.l1
        stride = l1.num_sets * l1.line_bytes
        base = 0x100000
        for k in range(l1.assoc + 1):
            hierarchy.load(base + k * stride, 0x400, 10_000 * k)
        # The first line was evicted from L1 but still sits in L2.
        result = hierarchy.load(base, 0x400, 10_000_000)
        assert result.level == "L2"

    def test_distribution_counts(self, hierarchy):
        hierarchy.load(0x10000, 0x400, 0)
        hierarchy.load(0x10000, 0x400, 1000)
        dist = hierarchy.load_distribution()
        assert dist["L1"] == 0.5 and dist["DRAM"] == 0.5

    def test_count_distribution_off(self, hierarchy):
        hierarchy.load(0x10000, 0x400, 0, count_distribution=False)
        assert sum(hierarchy.loads_served.values()) == 0

    def test_probe_level_no_state_change(self, hierarchy):
        assert hierarchy.probe_level(0x10000) == "DRAM"
        hierarchy.load(0x10000, 0x400, 0)
        hits_before = hierarchy.l1.stats.hits
        assert hierarchy.probe_level(0x10000) == "L1"
        assert hierarchy.l1.stats.hits == hits_before


class TestStores:
    def test_store_hit_fast(self, hierarchy):
        hierarchy.load(0x10000, 0x400, 0)
        release = hierarchy.store_commit(0x10000, 1000)
        assert release == 1001

    def test_store_miss_allocates(self, hierarchy):
        release = hierarchy.store_commit(0x20000, 0)
        assert release > hierarchy.latency["L1"]
        assert hierarchy.probe_level(0x20000) == "L1"

    def test_store_marks_dirty(self, hierarchy):
        hierarchy.load(0x10000, 0x400, 0)
        hierarchy.store_commit(0x10000, 10)
        line = hierarchy.line_of(0x10000)
        assert hierarchy.l1.sets[line & hierarchy.l1.set_mask][line] is True


class TestOracles:
    def test_all_modes_build(self):
        for mode in ORACLE_MODES:
            config = oracle_config(baseline(), mode)
            assert MemoryHierarchy(config)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            oracle_config(baseline(), "bogus")

    def test_l1_to_rf_serves_hits_at_one_cycle(self):
        config = oracle_config(baseline(l2_prefetcher_enabled=False), "l1_to_rf")
        hierarchy = MemoryHierarchy(config)
        hierarchy.load(0x10000, 0x400, 0)
        result = hierarchy.load(0x10000, 0x400, 1000)
        assert result.level == "L1"
        assert result.complete == 1001

    def test_mem_to_llc_serves_dram_at_llc_latency(self):
        base = baseline(l2_prefetcher_enabled=False)
        config = oracle_config(base, "mem_to_llc")
        hierarchy = MemoryHierarchy(config)
        result = hierarchy.load(0x10000, 0x400, 0)
        walk = hierarchy.dtlb.walk_latency
        assert result.level == "DRAM"
        assert result.complete == walk + base.llc_latency

    def test_l2_to_l1_override(self):
        base = baseline(l2_prefetcher_enabled=False)
        hierarchy = MemoryHierarchy(oracle_config(base, "l2_to_l1"))
        l1 = hierarchy.l1
        stride = l1.num_sets * l1.line_bytes
        addr = 0x100000
        for k in range(l1.assoc + 1):
            hierarchy.load(addr + k * stride, 0x400, 10_000 * k)
        result = hierarchy.load(addr, 0x400, 10_000_000)
        assert result.level == "L2"
        assert result.complete == 10_000_000 + base.l1_latency

    def test_oracle_names_descriptions(self):
        for mode, description in ORACLE_MODES.items():
            assert isinstance(description, str) and description


class TestL2PrefetcherIntegration:
    def test_streamer_fills_ahead(self):
        hierarchy = MemoryHierarchy(baseline())
        base = 0x40000
        for k in range(6):
            hierarchy.load(base + 64 * k, 0x400, 1000 * k)
        # Lines ahead of the stream should now be in L2.
        ahead = base + 64 * 8
        assert hierarchy.probe_level(ahead) in ("L2", "L1")


def _memory_state(hierarchy):
    """Everything a load or store commit may touch, LRU order included."""
    mshr = hierarchy.mshr
    return {
        "dtlb": [list(s) for s in hierarchy.dtlb.sets],
        "dtlb_counts": (hierarchy.dtlb.hits, hierarchy.dtlb.misses),
        "l1": [list(s.items()) for s in hierarchy.l1.sets],
        "l1_stats": hierarchy.l1.stats.as_dict(),
        "l2_stats": hierarchy.l2.stats.as_dict(),
        "loads_served": dict(hierarchy.loads_served),
        "store_accesses": hierarchy.store_accesses,
        "mshr": (list(mshr.inflight.items()), mshr.next_fill, mshr.mshr_hits,
                 mshr.allocations, mshr.full_stalls),
    }


class TestFastPaths:
    """The DTLB-hit + L1-hit fast cases: ``l1_hit``, which the core's
    demand loads and the RFP pump try before ``load``, must leave exactly
    the state ``load`` leaves, with fills of other lines in flight; and
    ``store_commit``'s inlined hit case the state of the calls it skips."""

    ADDR = 0x10000
    OTHER = 0x10200  # same page (a DTLB hit), another line

    #: case -> (OTHER's miss issue cycle, then the probed cycle), both
    #: relative to the completion of ADDR's own fill.
    CASES = {
        "own_fill_landed": (-10, 5),
        "own_fill_due_now": (-10, 0),
        "own_fill_pending": (-10, -3),  # an MSHR hit, not a fast-path hit
        # ADDR's fill already expired; OTHER's lands on the probed cycle,
        # so the fast path must retire it exactly as load() would.
        "unrelated_fill_due_now": (5, None),
    }

    def _setup(self, instrs, case, **overrides):
        config = quiet_config(hit_miss_predictor=False, **overrides)
        core = OOOCore(make_trace(instrs), config)
        hier = core.hierarchy
        first = hier.load(self.ADDR, 0x400, 0)  # DRAM miss: line + page in
        other_at, probe_at = self.CASES[case]
        other = hier.load(self.OTHER, 0x404, first.complete + other_at)
        assert other.complete > first.complete + 10
        cycle = other.complete if probe_at is None else first.complete + probe_at
        assert hier.mshr.inflight  # some fill is in flight at the probe
        return core, copy.deepcopy(hier), cycle

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_demand_load(self, case):
        core, reference, cycle = self._setup([LOAD(0x40, dst=1, addr=self.ADDR)], case)
        dyn = DynInstr(core.trace.instructions[0], 0, 0)
        assert core._issue_load(dyn, cycle)
        expected = reference.load(self.ADDR, 0x40, cycle)
        assert (dyn.complete_cycle, dyn.served_level) == tuple(expected)
        assert expected.level == ("MSHR" if case == "own_fill_pending" else "L1")
        assert _memory_state(core.hierarchy) == _memory_state(reference)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rfp_pump(self, case):
        """No load distribution is counted and the DTLB is probed without
        a fill: ``load(..., fill_tlb=False, count_distribution=False)``."""
        core, reference, cycle = self._setup(
            [LOAD(0x40, dst=1, addr=self.ADDR)], case, rfp={"enabled": True}
        )
        dyn = DynInstr(core.trace.instructions[0], 0, 0)
        dyn.rfp_state = D.RFP_QUEUED
        core.rfp.queue.append(_Packet(dyn, self.ADDR, 0))
        core.ports.begin_cycle(cycle)
        core.rfp.step(cycle)
        expected = reference.load(
            self.ADDR, 0x40, cycle, fill_tlb=False, count_distribution=False
        )
        assert dyn.rfp_state == D.RFP_INFLIGHT
        assert dyn.rfp_complete_cycle == expected.complete
        assert _memory_state(core.hierarchy) == _memory_state(reference)

    def test_store_commit_hit_matches_the_calls_it_inlines(self):
        """``store_commit``'s DTLB-hit + L1-hit case, against the
        ``dtlb.lookup`` / ``l1.lookup`` / ``mark_dirty`` chain it inlines."""
        core, reference, cycle = self._setup([], "own_fill_landed")
        hier = core.hierarchy
        addr = self.ADDR + 8
        assert hier.store_commit(addr, cycle) == cycle + 1
        reference.store_accesses += 1
        assert reference.dtlb.lookup(addr, fill=True) == (True, 0)
        line = reference.line_of(addr)
        assert reference.l1.lookup(line)
        reference.l1.mark_dirty(line)
        assert _memory_state(hier) == _memory_state(reference)
