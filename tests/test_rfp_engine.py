"""RFP engine mechanics: queue, arbitration, store handling, bit timing."""

from bisect import insort

from conftest import dyn_of, quiet_config

from repro.core import dyninstr as D
from repro.core.lsq import MemDepPredictor, StoreQueue
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.ports import LoadPortArbiter
from repro.rfp.engine import RFPEngine
from repro.sim.runner import SimResult
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op


class Harness(object):
    def __init__(self, **config_overrides):
        config_overrides.setdefault("rfp", {"enabled": True,
                                            "confidence_increment_prob": 1.0})
        self.config = quiet_config(**config_overrides)
        self.hierarchy = MemoryHierarchy(self.config)
        self.sq = StoreQueue(self.config.sq_entries)
        self.md = MemDepPredictor()
        self.ports = LoadPortArbiter(self.config.load_ports)
        self.engine = RFPEngine(self.config, self.hierarchy, self.sq,
                                self.md, self.ports)
        self.seq = 0

    def train_confident(self, pc=0x400010, base=0x10000, stride=8, reps=6):
        for k in range(reps):
            self.engine.pt.train(pc, base + stride * k)
        return pc

    def load(self, pc=0x400010, addr=0x10030, dispatch_cycle=0):
        self.seq += 1
        dyn = dyn_of(Instruction(pc, Op.LOAD, dst=1, addr=addr),
                     self.seq, dispatch_cycle)
        dyn.dest_preg = 100 + self.seq
        return dyn

    def store(self, addr, value=0, executed=True):
        self.seq += 1
        dyn = dyn_of(Instruction(0x500, Op.STORE, srcs=(1,), addr=addr),
                     self.seq, 0)
        self.sq.allocate(dyn)
        if executed:
            dyn.state = D.COMPLETED
            dyn.value = value
            self.execute_store(dyn)
        return dyn

    def execute_store(self, dyn):
        """Enter an executed store into the SQ forwarding index, as the
        core's store issue does."""
        insort(self.sq._executed.setdefault(dyn.word_addr, []), (dyn.seq, dyn))

    def new_cycle(self, demand_used=0):
        """Start a cycle in which ``demand_used`` demand loads took a port
        (the core resets the arbiter at the top of each step)."""
        self.ports._demand_used = demand_used
        self.ports._rfp_dedicated_used = 0
        self.ports._rfp_shared_used = 0

    def cycle(self, cycle):
        self.new_cycle()
        self.engine.step(cycle)

    def warm_tlb(self, addr):
        self.hierarchy.dtlb.lookup(addr)


class TestInjection:
    def test_confident_pc_injects(self):
        h = Harness()
        pc = h.train_confident()
        dyn = h.load(pc)
        h.engine.on_load_dispatch(dyn, 0)
        assert dyn.rfp_state == D.RFP_QUEUED
        assert h.engine.stats.injected == 1

    def test_unknown_pc_no_packet(self):
        h = Harness()
        dyn = h.load(pc=0x999000)
        h.engine.on_load_dispatch(dyn, 0)
        assert dyn.rfp_state == D.RFP_NONE

    def test_inject_false_counts_inflight_only(self):
        h = Harness()
        pc = h.train_confident()
        dyn = h.load(pc)
        h.engine.on_load_dispatch(dyn, 0, inject=False)
        assert dyn.rfp_state == D.RFP_NONE
        assert h.engine.pt.lookup(pc).inflight == 1

    def test_queue_full_drops(self):
        h = Harness(rfp={"enabled": True, "confidence_increment_prob": 1.0,
                         "queue_entries": 1})
        pc = h.train_confident()
        h.engine.on_load_dispatch(h.load(pc), 0)
        h.engine.on_load_dispatch(h.load(pc), 0)
        assert h.engine.stats.dropped_queue_full == 1


class TestExecution:
    def test_grant_sets_inflight_and_bit_timing(self):
        h = Harness()
        pc = h.train_confident()
        h.warm_tlb(0x10030)
        h.hierarchy.load(0x10030, pc, 0)  # line resident once the fill lands
        grant = 500  # well past the warming fill
        dyn = h.load(pc)
        h.engine.on_load_dispatch(dyn, grant - 1)
        h.cycle(grant)
        assert dyn.rfp_state == D.RFP_INFLIGHT
        # Bit set 3 cycles before an L1-hit completion (paper Fig. 9).
        assert dyn.rfp_bit_set_cycle == grant + h.config.l1_latency - h.config.sched_latency
        assert dyn.rfp_complete_cycle - dyn.rfp_bit_set_cycle == h.config.sched_latency

    def test_tlb_miss_drops(self):
        h = Harness()
        pc = h.train_confident(base=0x5000000)
        dyn = h.load(pc, addr=0x5000030)
        h.engine.on_load_dispatch(dyn, 0)
        h.cycle(1)
        assert dyn.rfp_state == D.RFP_DROPPED
        assert h.engine.stats.dropped_tlb == 1

    def test_load_issued_first_drops(self):
        h = Harness()
        pc = h.train_confident()
        dyn = h.load(pc)
        h.engine.on_load_dispatch(dyn, 0)
        h.engine.note_load_issued_first(dyn)
        assert dyn.rfp_state == D.RFP_DROPPED
        h.cycle(1)
        assert h.engine.stats.executed == 0

    def test_squash_drops_and_fixes_counter(self):
        h = Harness()
        pc = h.train_confident()
        dyn = h.load(pc)
        h.engine.on_load_dispatch(dyn, 0)
        h.engine.on_load_squash(dyn)
        assert dyn.rfp_state == D.RFP_DROPPED
        assert h.engine.pt.lookup(pc).inflight == 0

    def test_fifo_order(self):
        h = Harness()
        pc = h.train_confident()
        h.warm_tlb(0x10030)
        h.warm_tlb(0x10038)
        first = h.load(pc)
        second = h.load(pc)
        h.engine.on_load_dispatch(first, 0)
        h.engine.on_load_dispatch(second, 0)
        h.cycle(1)
        assert first.rfp_state == D.RFP_INFLIGHT
        assert second.rfp_state == D.RFP_INFLIGHT
        assert first.rfp_complete_cycle <= second.rfp_complete_cycle

    def test_no_port_waits(self):
        h = Harness()
        pc = h.train_confident()
        h.warm_tlb(0x10030)
        dyn = h.load(pc)
        h.engine.on_load_dispatch(dyn, 0)
        h.new_cycle(demand_used=h.config.load_ports)
        h.engine.step(1)
        assert dyn.rfp_state == D.RFP_QUEUED  # waits at lowest priority
        h.cycle(2)
        assert dyn.rfp_state == D.RFP_INFLIGHT


class TestStoreHandling:
    def test_forwards_from_executed_store(self):
        h = Harness()
        pc = h.train_confident()
        store = h.store(0x10030, value=42)
        dyn = h.load(pc)  # predicted addr == 0x10030
        h.engine.on_load_dispatch(dyn, 0)
        h.cycle(1)
        assert dyn.rfp_state == D.RFP_INFLIGHT
        assert dyn.rfp_value_seq == store.seq
        assert h.engine.stats.forwarded == 1
        assert dyn.rfp_complete_cycle == 1 + h.config.store_forward_latency

    def test_blocks_behind_unexecuted_store_when_md_conflicts(self):
        h = Harness()
        pc = h.train_confident()
        h.warm_tlb(0x10030)
        h.md.train_violation(pc)
        store = h.store(0x99999, executed=False)
        dyn = h.load(pc)
        h.engine.on_load_dispatch(dyn, 0)
        h.cycle(1)
        assert dyn.rfp_state == D.RFP_QUEUED
        assert h.engine.stats.blocked_cycles >= 1
        store.state = D.COMPLETED  # store executes
        h.execute_store(store)
        h.cycle(2)
        assert dyn.rfp_state == D.RFP_INFLIGHT

    def test_proceeds_past_unexecuted_store_when_md_clear(self):
        h = Harness()
        pc = h.train_confident()
        h.warm_tlb(0x10030)
        h.store(0x99999, executed=False)
        dyn = h.load(pc)
        h.engine.on_load_dispatch(dyn, 0)
        h.cycle(1)
        assert dyn.rfp_state == D.RFP_INFLIGHT


class TestCriticality:
    def test_filter_restricts_to_marked_pcs(self):
        h = Harness(rfp={"enabled": True, "confidence_increment_prob": 1.0,
                         "criticality_filter": True})
        pc = h.train_confident()
        dyn = h.load(pc)
        h.engine.on_load_dispatch(dyn, 0)
        assert dyn.rfp_state == D.RFP_NONE  # not marked critical
        h.engine.mark_critical(pc)
        dyn2 = h.load(pc)
        h.engine.on_load_dispatch(dyn2, 0)
        assert dyn2.rfp_state == D.RFP_QUEUED


class TestStatsAccounting:
    def test_record_useful_full_vs_partial(self):
        h = Harness()
        a, b = h.load(), h.load()
        h.engine.record_useful(a, fully_hidden=True)
        h.engine.record_useful(b, fully_hidden=False)
        s = h.engine.stats
        assert s.useful == 2 and s.full_hide == 1 and s.partial_hide == 1
        assert a.rfp_full_hide and not b.rfp_full_hide

    def test_record_wrong_repairs_pt(self):
        h = Harness()
        pc = h.train_confident()
        dyn = h.load(pc, addr=0x77770)
        h.engine.record_wrong(dyn)
        assert h.engine.stats.wrong_addr == 1

    def test_coverage_fraction(self):
        """One useful prefetch over four committed loads is 25% coverage,
        the fraction ``SimResult.coverage`` reports."""
        h = Harness()
        h.engine.record_useful(h.load(), True)
        assert h.engine.stats.useful == 1
        result = SimResult({"stats": {"loads": 4},
                            "rfp": h.engine.stats.as_dict()})
        assert result.coverage == 0.25
