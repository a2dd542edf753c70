"""Edge cases: DynInstr helpers, hierarchy corners, oracle interactions,
and cross-cutting statistics coherence on real workloads."""

from conftest import LOAD, dyn_of, make_trace, quiet_config, run_core

from repro.core import dyninstr as D
from repro.core.config import baseline
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.suite import build_workload


class TestDynInstr:
    def test_word_addr_alignment(self):
        dyn = dyn_of(Instruction(0x10, Op.LOAD, dst=1, addr=0x1003), 0, 0)
        assert dyn.word_addr == 0x1000

    def test_word_addr_none_for_alu(self):
        dyn = dyn_of(Instruction(0x10, Op.ADD, dst=1), 0, 0)
        assert dyn.word_addr is None

    def test_initial_state(self):
        dyn = dyn_of(Instruction(0x10, Op.LOAD, dst=1, addr=0x1000), 3, 7)
        assert dyn.state == D.DISPATCHED
        assert dyn.rfp_state == D.RFP_NONE
        assert dyn.seq == 3 and dyn.dispatch_cycle == 7

    def test_kind_properties(self):
        load = dyn_of(Instruction(0x10, Op.LOAD, dst=1, addr=0), 0, 0)
        store = dyn_of(Instruction(0x10, Op.STORE, srcs=(1,), addr=0), 0, 0)
        branch = dyn_of(Instruction(0x10, Op.BRANCH, srcs=(1,)), 0, 0)
        assert load.is_load and store.is_store and branch.is_branch


class TestHierarchyEdges:
    def test_next_line_prefetch_covers_stream(self):
        config = baseline(l2_prefetcher_enabled=False)
        hierarchy = MemoryHierarchy(config)
        base = 0x50000
        # Stream through several lines with realistic spacing.
        cycle = 0
        levels = []
        for k in range(16):
            result = hierarchy.load(base + 64 * k, 0x400, cycle)
            levels.append(result.level)
            cycle = result.complete + 20
        # The next-line prefetch triggers on demand misses only, so a
        # line-granular stream alternates miss/prefetched-hit at worst —
        # at least half of the line touches must be covered.
        assert levels.count("DRAM") <= 9
        assert levels.count("L1") + levels.count("MSHR") >= 7

    def test_next_line_prefetch_disabled(self):
        config = baseline(l2_prefetcher_enabled=False,
                          l1_next_line_prefetch=False)
        hierarchy = MemoryHierarchy(config)
        hierarchy.load(0x50000, 0x400, 0)
        assert hierarchy.probe_level(0x50040) == "DRAM"

    def test_store_to_uncached_line_registers_presence(self):
        hierarchy = MemoryHierarchy(quiet_config())
        hierarchy.store_commit(0x7000, 0)
        assert hierarchy.probe_level(0x7000) == "L1"

    def test_stats_dict_keys(self):
        """A core's counter snapshot (what a result is measured from)
        carries the hierarchy's per-level load counts."""
        core = run_core(make_trace([LOAD(0x10, dst=1, addr=0x1000)]))
        snapshot = core.snapshot_counters()
        for key in ("cycle", "stats", "loads_served"):
            assert key in snapshot
        assert snapshot["loads_served"] == dict(core.hierarchy.loads_served)
        assert sum(snapshot["loads_served"].values()) == 1


class TestStatsCoherence:
    """Cross-cutting invariants on a real workload simulation."""

    def _core(self, **overrides):
        trace = build_workload("spec06_astar", length=4000)
        config = baseline(rfp={"enabled": True}, **overrides)
        return run_core(trace, config)

    def test_every_instruction_commits_once(self):
        core = self._core()
        assert core.stats.instructions == 4000

    def test_load_store_branch_counts_match_trace(self):
        trace = build_workload("spec06_astar", length=4000)
        core = run_core(trace, baseline(rfp={"enabled": True}))
        assert core.stats.loads == trace.load_count
        assert core.stats.stores == sum(1 for i in trace if i.is_store)
        assert core.stats.branches == sum(1 for i in trace if i.is_branch)

    def test_rfp_funnel_ordering(self):
        core = self._core()
        s = core.rfp.stats
        assert s.injected >= s.executed
        assert s.executed >= s.useful + s.wrong_addr + s.md_stale + s.race_lost
        assert s.useful == s.full_hide + s.partial_hide

    def test_queues_drained_after_run(self):
        core = self._core()
        assert len(core.rob) == 0
        assert core.rs.occupancy == 0
        assert len(core.lq.entries) == 0
        assert len(core.sq.entries) == 0

    def test_pt_inflight_drained(self):
        core = self._core()
        for pt_set in core.rfp.pt.sets:
            for entry in pt_set.values():
                assert entry.inflight == 0, "inflight counters must balance"

    def test_prf_fully_accounted_after_run(self):
        core = self._core()
        mapped = set(core.rename.rat)
        free = set(core.rename.free_list)
        assert len(mapped) + len(free) == core.prf.num_entries
        assert not (mapped & free)

    def test_load_latency_counts_match_loads(self):
        core = self._core()
        # Every committed load contributed exactly one latency sample,
        # modulo loads re-executed after flushes (which sample again).
        assert core.stats.load_latency_count >= core.stats.loads
