"""Load/store queues, forwarding, and the memory-dependence predictor."""

from bisect import insort

from conftest import LOAD, dyn_of, make_trace, quiet_config

from repro.core import dyninstr as D
from repro.core.core import OOOCore
from repro.core.lsq import LoadQueue, MemDepPredictor, StoreQueue
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op


def store_dyn(seq, addr, value=0, executed=True):
    dyn = dyn_of(Instruction(0x100 + seq, Op.STORE, srcs=(1,), addr=addr), seq, 0)
    if executed:
        dyn.state = D.COMPLETED
        dyn.value = value
    return dyn


def load_dyn(seq, addr, executed=False, forward_src=None):
    dyn = dyn_of(Instruction(0x200 + seq, Op.LOAD, dst=1, addr=addr), seq, 0)
    if executed:
        dyn.state = D.COMPLETED
    dyn.forward_src_seq = forward_src
    return dyn


def executed(queue, dyn):
    """Enter ``dyn`` into ``queue``'s per-word index of executed entries,
    as the core does the cycle a store or load completes."""
    insort(queue._executed.setdefault(dyn.word_addr, []), (dyn.seq, dyn))


def add_store(sq, dyn):
    """Allocate following the core's protocol: an executed store also
    enters the forwarding index."""
    sq.allocate(dyn)
    if dyn.state >= 1:
        executed(sq, dyn)
    return dyn


def add_load(lq, dyn):
    """Allocate as dispatch does; an executed load also enters the
    violation index."""
    dyn.in_lq = True
    lq.entries.append(dyn)
    if dyn.state >= 1:
        executed(lq, dyn)
    return dyn


class TestStoreQueue:
    def test_forward_youngest_older_match(self):
        sq = StoreQueue(8)
        s1 = store_dyn(1, 0x100, value=11)
        s2 = store_dyn(2, 0x100, value=22)
        add_store(sq, s1)
        add_store(sq, s2)
        match = sq.older_executed_match(5, 0x100)
        assert match is s2, "youngest older store wins"

    def test_no_forward_from_younger(self):
        sq = StoreQueue(8)
        add_store(sq, store_dyn(7, 0x100))
        assert sq.older_executed_match(5, 0x100) is None

    def test_no_forward_from_unexecuted(self):
        sq = StoreQueue(8)
        add_store(sq, store_dyn(1, 0x100, executed=False))
        assert sq.older_executed_match(5, 0x100) is None

    def test_different_word_no_match(self):
        sq = StoreQueue(8)
        add_store(sq, store_dyn(1, 0x108))
        assert sq.older_executed_match(5, 0x100) is None

    def test_has_older_unexecuted(self):
        sq = StoreQueue(8)
        add_store(sq, store_dyn(1, 0x100, executed=False))
        assert sq.has_older_unexecuted(5)
        assert not sq.has_older_unexecuted(1)

    def test_executed_store_not_flagged(self):
        sq = StoreQueue(8)
        add_store(sq, store_dyn(1, 0x100, executed=True))
        assert not sq.has_older_unexecuted(5)

    def test_senior_drain(self):
        sq = StoreQueue(2)
        s = store_dyn(1, 0x100)
        sq.allocate(s)
        sq.mark_senior(s, release_cycle=50)
        assert sq.occupancy == 1
        assert sq.full(10) is False
        sq.drain(51)
        assert sq.occupancy == 0

    def test_full_counts_senior(self):
        sq = StoreQueue(1)
        s = store_dyn(1, 0x100)
        sq.allocate(s)
        sq.mark_senior(s, release_cycle=100)
        assert sq.full(10)
        assert not sq.full(200)

    def test_remove(self):
        sq = StoreQueue(4)
        s = store_dyn(1, 0x100)
        sq.allocate(s)
        sq.remove(s)
        assert len(sq) == 0


class TestLoadQueue:
    def test_violation_detected(self):
        lq = LoadQueue(8)
        load = load_dyn(5, 0x100, executed=True)  # read memory (no forward)
        add_load(lq, load)
        store = store_dyn(3, 0x100)
        assert lq.oldest_violation(store) is load

    def test_forward_from_this_store_is_safe(self):
        lq = LoadQueue(8)
        load = load_dyn(5, 0x100, executed=True, forward_src=3)
        add_load(lq, load)
        assert lq.oldest_violation(store_dyn(3, 0x100)) is None

    def test_forward_from_older_store_violates(self):
        lq = LoadQueue(8)
        load = load_dyn(5, 0x100, executed=True, forward_src=1)
        add_load(lq, load)
        assert lq.oldest_violation(store_dyn(3, 0x100)) is load

    def test_unexecuted_load_safe(self):
        lq = LoadQueue(8)
        add_load(lq, load_dyn(5, 0x100, executed=False))
        assert lq.oldest_violation(store_dyn(3, 0x100)) is None

    def test_older_load_safe(self):
        lq = LoadQueue(8)
        add_load(lq, load_dyn(2, 0x100, executed=True))
        assert lq.oldest_violation(store_dyn(3, 0x100)) is None

    def test_oldest_violator_wins(self):
        lq = LoadQueue(8)
        young = load_dyn(9, 0x100, executed=True)
        old = load_dyn(5, 0x100, executed=True)
        add_load(lq, young)
        add_load(lq, old)
        assert lq.oldest_violation(store_dyn(3, 0x100)) is old

    def test_different_word_safe(self):
        lq = LoadQueue(8)
        add_load(lq, load_dyn(5, 0x108, executed=True))
        assert lq.oldest_violation(store_dyn(3, 0x100)) is None


class TestMemDepPredictor:
    def test_default_no_conflict(self):
        md = MemDepPredictor()
        assert not md.predict_conflict(0x400)

    def test_violation_trains_conflict(self):
        md = MemDepPredictor()
        md.train_violation(0x400)
        assert md.predict_conflict(0x400)
        assert md.violations == 1

    def test_decay_expires_prediction(self):
        """The core's commit loop decays a conflict prediction: with a
        decay period of 1, four retiring loads at the PC clear it."""
        trace = make_trace([LOAD(0x400, 1, 0x1000) for _ in range(4)])
        core = OOOCore(trace, quiet_config())
        core.md.decay_period = 1
        core.md.train_violation(0x400)
        core.run()
        assert core.stats.loads == 4
        assert not core.md.predict_conflict(0x400)

    def test_decay_waits_for_the_period(self):
        trace = make_trace([LOAD(0x400, 1, 0x1000) for _ in range(3)])
        core = OOOCore(trace, quiet_config())
        core.md.decay_period = 2
        core.md.train_violation(0x400)
        core.run()
        assert core.md.table[(0x400 >> 2) % core.md.num_entries] == 2
        assert core.md.predict_conflict(0x400)

    def test_distinct_pcs_independent(self):
        md = MemDepPredictor()
        md.train_violation(0x400)
        assert not md.predict_conflict(0x800)
