"""Reservation-station select discipline and replay-debt accounting."""

from conftest import quiet_config

from repro.core.dyninstr import DynInstr
from repro.core.rename import PhysicalRegisterFile
from repro.core.scheduler import ReservationStation
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op


def make_rs(**overrides):
    config = quiet_config(**overrides)
    prf = PhysicalRegisterFile(config.prf_entries)
    return ReservationStation(config, prf), prf, config


def dyn_of(op, seq, srcs=(), dispatch_cycle=0):
    d = DynInstr(Instruction(0x10 + 4 * seq, op, dst=1, srcs=()), seq, dispatch_cycle)
    d.src_pregs = tuple(srcs)
    return d


class TestSelect:
    def test_min_sched_delay(self):
        """Even a ready instruction waits out the 3-cycle scheduling pipe —
        the window RFP exploits (paper §3)."""
        rs, prf, config = make_rs()
        d = dyn_of(Op.ADD, 0, dispatch_cycle=0)
        rs.allocate(d)
        issued = []
        rs._select_event(config.sched_latency - 1, lambda dyn, cycle: issued.append(dyn) or True)
        assert not issued
        rs._select_event(config.sched_latency, lambda dyn, cycle: issued.append(dyn) or True)
        assert issued == [d]

    def test_not_ready_source_blocks(self):
        rs, prf, config = make_rs()
        prf.mark_pending(7)
        d = dyn_of(Op.ADD, 0, srcs=(7,))
        rs.allocate(d)
        rs._select_event(100, lambda dyn, cycle: True)
        assert rs.occupancy == 1
        prf.write(7, 1, 100)
        rs._select_event(100, lambda dyn, cycle: True)
        assert rs.occupancy == 0

    def test_source_ready_cycle_respected(self):
        rs, prf, config = make_rs()
        prf.write(7, 1, ready_cycle=50)
        d = dyn_of(Op.ADD, 0, srcs=(7,))
        rs.allocate(d)
        rs._select_event(49, lambda dyn, cycle: True)
        assert rs.occupancy == 1
        rs._select_event(50, lambda dyn, cycle: True)
        assert rs.occupancy == 0

    def test_issue_width_cap(self):
        rs, prf, config = make_rs(issue_width=2)
        for k in range(5):
            rs.allocate(dyn_of(Op.ADD, k))
        issued = rs._select_event(100, lambda dyn, cycle: True)
        assert issued == 2
        assert rs.occupancy == 3

    def test_oldest_first(self):
        rs, prf, config = make_rs(issue_width=1)
        young = dyn_of(Op.ADD, 5)
        old = dyn_of(Op.ADD, 1)
        rs.allocate(old)
        rs.allocate(young)
        picked = []
        rs._select_event(100, lambda dyn, cycle: picked.append(dyn.seq) or True)
        assert picked == [1]

    def test_fu_class_budget(self):
        rs, prf, config = make_rs(mul_units=1)
        for k in range(3):
            rs.allocate(dyn_of(Op.MUL, k))
        issued = rs._select_event(100, lambda dyn, cycle: True)
        assert issued == 1

    def test_callback_false_keeps_entry(self):
        rs, prf, config = make_rs()
        rs.allocate(dyn_of(Op.LOAD, 0))
        rs._select_event(100, lambda dyn, cycle: False)
        assert rs.occupancy == 1

    def test_structural_reject_frees_slot_for_others(self):
        rs, prf, config = make_rs(issue_width=2)
        blocked = dyn_of(Op.LOAD, 0)
        ok = dyn_of(Op.ADD, 1)
        rs.allocate(blocked)
        rs.allocate(ok)
        picked = []
        rs._select_event(100, lambda dyn, cycle: (dyn is ok) and (picked.append(dyn.seq) or True))
        assert picked == [1]

    def test_full_and_discard(self):
        rs, prf, config = make_rs(rs_entries=1)
        d = dyn_of(Op.ADD, 0)
        rs.allocate(d)
        assert rs.full
        rs.discard(d)
        assert rs.occupancy == 0
        rs.discard(d)  # idempotent


class TestReplayDebt:
    def test_charge_counts_consumers(self):
        rs, prf, config = make_rs()
        prf.mark_pending(9)
        rs.allocate(dyn_of(Op.ADD, 0, srcs=(9,)))
        rs.allocate(dyn_of(Op.ADD, 1, srcs=(9,)))
        rs.allocate(dyn_of(Op.ADD, 2, srcs=(3,)))
        assert rs.charge_replays(9) == 2
        assert rs.replay_debt == 2

    def test_debt_consumes_issue_slots(self):
        rs, prf, config = make_rs(issue_width=3)
        rs.replay_debt = 2
        for k in range(3):
            rs.allocate(dyn_of(Op.ADD, k))
        issued = rs._select_event(100, lambda dyn, cycle: True)
        assert issued == 3          # 2 replays + 1 real
        assert rs.occupancy == 2    # only one real instruction left
        assert rs.replay_debt == 0

    def test_debt_larger_than_width(self):
        rs, prf, config = make_rs(issue_width=2)
        rs.replay_debt = 5
        rs.allocate(dyn_of(Op.ADD, 0))
        issued = rs._select_event(100, lambda dyn, cycle: True)
        assert issued == 2
        assert rs.replay_debt == 3
        assert rs.occupancy == 1
