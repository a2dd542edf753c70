"""Reservation-station select discipline and replay-debt accounting.

The core's dispatch loop allocates RS entries in place; :func:`allocate`
and :func:`pending` set up the same state here so select, wakeup and
replay can be driven one cycle at a time.
"""

from conftest import dyn_of as encode_dyn, quiet_config

from repro.core.rename import INFINITY, PhysicalRegisterFile
from repro.core.scheduler import ReservationStation
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op


def make_rs(**overrides):
    config = quiet_config(**overrides)
    prf = PhysicalRegisterFile(config.prf_entries)
    return ReservationStation(config, prf), prf, config


def allocate(rs, dyn):
    """Enter ``dyn`` into the window and park it, as dispatch does."""
    dyn.in_rs = True
    rs.entries.append(dyn)
    rs.live += 1
    rs._evaluate(dyn)


def pending(prf, preg):
    """Mark ``preg`` as written by a producer that has not executed yet."""
    prf.ready_cycle[preg] = INFINITY


def dyn_of(op, seq, srcs=(), dispatch_cycle=0):
    d = encode_dyn(Instruction(0x10 + 4 * seq, op, dst=1, srcs=()), seq,
                   dispatch_cycle)
    d.src_pregs = tuple(srcs)
    return d


class TestSelect:
    def test_min_sched_delay(self):
        """Even a ready instruction waits out the 3-cycle scheduling pipe —
        the window RFP exploits (paper §3)."""
        rs, prf, config = make_rs()
        d = dyn_of(Op.ADD, 0, dispatch_cycle=0)
        allocate(rs, d)
        issued = []
        rs._select_event(config.sched_latency - 1, lambda dyn, cycle: issued.append(dyn) or True)
        assert not issued
        rs._select_event(config.sched_latency, lambda dyn, cycle: issued.append(dyn) or True)
        assert issued == [d]

    def test_not_ready_source_blocks(self):
        rs, prf, config = make_rs()
        pending(prf, 7)
        d = dyn_of(Op.ADD, 0, srcs=(7,))
        allocate(rs, d)
        rs._select_event(100, lambda dyn, cycle: True)
        assert rs.occupancy == 1
        prf.write(7, 1, 100)
        rs._select_event(100, lambda dyn, cycle: True)
        assert rs.occupancy == 0

    def test_source_ready_cycle_respected(self):
        rs, prf, config = make_rs()
        prf.write(7, 1, ready_cycle=50)
        d = dyn_of(Op.ADD, 0, srcs=(7,))
        allocate(rs, d)
        rs._select_event(49, lambda dyn, cycle: True)
        assert rs.occupancy == 1
        rs._select_event(50, lambda dyn, cycle: True)
        assert rs.occupancy == 0

    def test_issue_width_cap(self):
        rs, prf, config = make_rs(issue_width=2)
        for k in range(5):
            allocate(rs, dyn_of(Op.ADD, k))
        issued = rs._select_event(100, lambda dyn, cycle: True)
        assert issued == 2
        assert rs.occupancy == 3

    def test_oldest_first(self):
        rs, prf, config = make_rs(issue_width=1)
        young = dyn_of(Op.ADD, 5)
        old = dyn_of(Op.ADD, 1)
        allocate(rs, old)
        allocate(rs, young)
        picked = []
        rs._select_event(100, lambda dyn, cycle: picked.append(dyn.seq) or True)
        assert picked == [1]

    def test_fu_class_budget(self):
        rs, prf, config = make_rs(mul_units=1)
        for k in range(3):
            allocate(rs, dyn_of(Op.MUL, k))
        issued = rs._select_event(100, lambda dyn, cycle: True)
        assert issued == 1

    def test_callback_false_keeps_entry(self):
        rs, prf, config = make_rs()
        allocate(rs, dyn_of(Op.LOAD, 0))
        rs._select_event(100, lambda dyn, cycle: False)
        assert rs.occupancy == 1

    def test_structural_reject_frees_slot_for_others(self):
        rs, prf, config = make_rs(issue_width=2)
        blocked = dyn_of(Op.LOAD, 0)
        ok = dyn_of(Op.ADD, 1)
        allocate(rs, blocked)
        allocate(rs, ok)
        picked = []
        rs._select_event(100, lambda dyn, cycle: (dyn is ok) and (picked.append(dyn.seq) or True))
        assert picked == [1]

    def test_full_and_discard(self):
        rs, prf, config = make_rs(rs_entries=1)
        d = dyn_of(Op.ADD, 0)
        allocate(rs, d)
        assert rs.full
        rs.discard(d)
        assert rs.occupancy == 0
        rs.discard(d)  # idempotent


class TestReplayDebt:
    def test_charge_counts_consumers(self):
        rs, prf, config = make_rs()
        pending(prf, 9)
        allocate(rs, dyn_of(Op.ADD, 0, srcs=(9,)))
        allocate(rs, dyn_of(Op.ADD, 1, srcs=(9,)))
        allocate(rs, dyn_of(Op.ADD, 2, srcs=(3,)))
        assert rs.charge_replays(9) == 2
        assert rs.replay_debt == 2

    def test_debt_consumes_issue_slots(self):
        rs, prf, config = make_rs(issue_width=3)
        rs.replay_debt = 2
        for k in range(3):
            allocate(rs, dyn_of(Op.ADD, k))
        issued = rs._select_event(100, lambda dyn, cycle: True)
        assert issued == 3          # 2 replays + 1 real
        assert rs.occupancy == 2    # only one real instruction left
        assert rs.replay_debt == 0

    def test_debt_larger_than_width(self):
        rs, prf, config = make_rs(issue_width=2)
        rs.replay_debt = 5
        allocate(rs, dyn_of(Op.ADD, 0))
        issued = rs._select_event(100, lambda dyn, cycle: True)
        assert issued == 2
        assert rs.replay_debt == 3
        assert rs.occupancy == 1


def recorder(calls, accept=lambda dyn: True):
    """A ``try_issue`` that logs every (seq, is_load) it is offered."""

    def try_issue(dyn, cycle):
        calls.append((dyn.seq, dyn.is_load))
        return accept(dyn)

    return try_issue


class TestLoadHeap:
    def test_loads_past_budget_leave_alu_slots_free(self):
        """Four ready loads on two load ports: the two oldest issue, the
        younger ALU ops still issue the same cycle, and the two deferred
        loads are never offered to ``try_issue``."""
        rs, prf, config = make_rs(issue_width=6, load_ports=2)
        for k in range(4):
            allocate(rs, dyn_of(Op.LOAD, k))
        allocate(rs, dyn_of(Op.ADD, 4))
        allocate(rs, dyn_of(Op.ADD, 5))
        calls = []
        assert rs._select_event(100, recorder(calls)) == 4
        assert calls == [(0, True), (1, True), (4, False), (5, False)]
        assert len(rs.ready_loads) == 2 and not rs.ready

    def test_deferred_loads_issue_oldest_first_later(self):
        rs, prf, config = make_rs(issue_width=4, load_ports=2)
        for k in range(5):
            allocate(rs, dyn_of(Op.LOAD, k))
        order = []
        for cycle in (100, 101, 102):
            calls = []
            rs._select_event(cycle, recorder(calls))
            # Never offered a load once the cycle's two ports are spent.
            assert len(calls) <= 2
            order.extend(seq for seq, _ in calls)
        assert order == [0, 1, 2, 3, 4]
        assert rs.occupancy == 0

    def test_rejected_load_returns_to_its_heap(self):
        """A load refused by ``try_issue`` (port or memory-dependence gate)
        does not spend budget and competes again next cycle."""
        rs, prf, config = make_rs(issue_width=4, load_ports=2)
        for k in range(3):
            allocate(rs, dyn_of(Op.LOAD, k))
        calls = []
        rs._select_event(100, recorder(calls, accept=lambda d: d.seq != 0))
        assert [seq for seq, _ in calls] == [0, 1, 2]
        assert [item[0] for item in rs.ready_loads] == [0]

    def test_dedicated_rfp_ports_widen_the_budget(self):
        rs, prf, config = make_rs(issue_width=6, load_ports=2, rfp_dedicated_ports=1)
        for k in range(5):
            allocate(rs, dyn_of(Op.LOAD, k))
        allocate(rs, dyn_of(Op.ADD, 5))
        calls = []
        rs._select_event(100, recorder(calls))
        assert [seq for seq, _ in calls] == [0, 1, 2, 5]

    def test_merge_is_oldest_first_across_heaps(self):
        rs, prf, config = make_rs(issue_width=8)
        for k, op in enumerate((Op.ADD, Op.LOAD, Op.ADD, Op.LOAD, Op.ADD)):
            allocate(rs, dyn_of(op, k))
        calls = []
        rs._select_event(100, recorder(calls))
        assert [seq for seq, _ in calls] == [0, 1, 2, 3, 4]


class TestWheelDrain:
    def test_retimed_entry_is_reparked_not_issued(self):
        """A wheel slot drains straight onto the ready heaps; an entry
        whose producer was re-timed after it was parked is stale there,
        and its pop re-parks it at the corrected cycle."""
        rs, prf, config = make_rs()
        prf.write(7, 1, ready_cycle=50)
        d = dyn_of(Op.ADD, 0, srcs=(7,))
        rs._select_event(10, recorder([]))
        allocate(rs, d)
        assert rs.wheel.slots == {50: [d]}
        prf.write(7, 2, ready_cycle=60)  # e.g. a VP validation rewrite
        calls = []
        assert rs._select_event(50, recorder(calls)) == 0
        assert calls == []
        assert rs.wheel.slots == {60: [d]} and not rs.ready
        assert rs._select_event(60, recorder(calls)) == 1
        assert calls == [(0, False)]

    def test_stale_entry_waits_in_ready_heap_until_popped(self):
        """When the cycle's issue width runs out before the stale entry is
        reached, it stays in its ready heap; a later pop re-checks it."""
        rs, prf, config = make_rs(issue_width=1)
        rs._select_event(10, recorder([]))
        prf.write(7, 1, ready_cycle=50)
        old = dyn_of(Op.ADD, 0)
        stale = dyn_of(Op.LOAD, 1, srcs=(7,))
        allocate(rs, old)  # wheel slot 13
        allocate(rs, stale)  # wheel slot 50
        prf.write(7, 2, ready_cycle=70)
        rs._select_event(49, recorder([], accept=lambda d: False))  # old stays ready
        calls = []
        rs._select_event(50, recorder(calls))
        assert calls == [(0, False)]
        assert [item[1] for item in rs.ready_loads] == [stale]
        rs._select_event(51, recorder(calls))
        assert calls == [(0, False)]
        assert rs.wheel.slots == {70: [stale]} and not rs.ready_loads
        rs._select_event(70, recorder(calls))
        assert calls == [(0, False), (1, True)]
