"""Prefetch Table training, confidence, inflight exactness, and the PAT."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rfp.pat import PAGE_MASK, PAGE_SHIFT, PageAddressTable
from repro.rfp.prefetch_table import PrefetchTable


def make_pt(**kwargs):
    kwargs.setdefault("num_entries", 64)
    kwargs.setdefault("assoc", 4)
    kwargs.setdefault("confidence_increment_prob", 1.0)  # deterministic
    return PrefetchTable(**kwargs)


PC = 0x400010


class TestTraining:
    def test_first_train_creates_entry(self):
        pt = make_pt()
        pt.train(PC, 0x1000)
        assert pt.lookup(PC) is not None

    def test_stride_learned_after_repeats(self):
        pt = make_pt(confidence_bits=1)
        for k in range(4):
            pt.train(PC, 0x1000 + 8 * k)
        entry = pt.lookup(PC)
        assert entry.stride == 8
        assert entry.confidence == 1

    def test_stride_change_resets_confidence(self):
        pt = make_pt()
        for k in range(4):
            pt.train(PC, 0x1000 + 8 * k)
        pt.train(PC, 0x9000)
        entry = pt.lookup(PC)
        assert entry.confidence == 0
        assert entry.utility == 0

    def test_oversized_stride_never_confident(self):
        pt = make_pt(stride_bits=8)
        for k in range(6):
            pt.train(PC, 0x1000 + 4096 * k)  # stride 4096 >> 2^7
        assert pt.lookup(PC).confidence == 0

    def test_probabilistic_confidence(self):
        # With probability 1/16, a handful of repeats rarely saturates.
        pt = PrefetchTable(num_entries=64, assoc=4,
                           confidence_increment_prob=1.0 / 16.0, seed=1)
        for k in range(4):
            pt.train(PC, 0x1000 + 8 * k)
        eligible, _ = pt.on_allocate(PC)
        assert not eligible
        # ...but hundreds of repeats saturate with near certainty.
        for k in range(4, 400):
            pt.train(PC, 0x1000 + 8 * k)
        entry = pt.lookup(PC)
        assert entry.confidence == pt.confidence_max

    def test_zero_stride_is_learnable(self):
        pt = make_pt()
        for _ in range(4):
            pt.train(PC, 0x5000)
        pt.on_allocate(PC)
        eligible, predicted = False, None
        pt2 = make_pt()
        for _ in range(4):
            pt2.train(PC, 0x5000)
        eligible, predicted = pt2.on_allocate(PC)
        assert eligible and predicted == 0x5000


class TestPrediction:
    def _confident_pt(self):
        pt = make_pt()
        for k in range(4):
            pt.train(PC, 0x1000 + 8 * k)
        return pt

    def test_prediction_uses_inflight(self):
        pt = self._confident_pt()  # base = 0x1018, stride 8
        eligible, predicted = pt.on_allocate(PC)
        assert eligible and predicted == 0x1020
        eligible, predicted = pt.on_allocate(PC)
        assert predicted == 0x1028

    def test_commit_decrements(self):
        pt = self._confident_pt()
        pt.on_allocate(PC)
        pt.on_allocate(PC)
        pt.train(PC, 0x1020, commit=True)  # the first instance retires
        assert pt.lookup(PC).inflight == 1

    def test_squash_decrements(self):
        pt = self._confident_pt()
        pt.on_allocate(PC)
        pt.on_squash(PC)
        assert pt.lookup(PC).inflight == 0

    def test_inflight_exact_from_first_instance(self):
        """Entry creation at allocation keeps the counter exact even for
        instances allocated before the first training."""
        pt = make_pt()
        for _ in range(5):
            pt.on_allocate(PC)   # five instances dispatch before any retires
        for _ in range(5):
            pt.train(PC, 0x1000, commit=True)
        assert pt.lookup(PC).inflight == 0

    def test_inflight_saturates(self):
        pt = make_pt(inflight_bits=2)
        for _ in range(10):
            pt.on_allocate(PC)
        assert pt.lookup(PC).inflight == 3

    def test_unknown_pc_not_eligible_but_counted(self):
        pt = make_pt()
        eligible, predicted = pt.on_allocate(PC)
        assert not eligible and predicted is None
        assert pt.lookup(PC).inflight == 1


class TestReplacement:
    def test_eviction_picks_lowest_utility(self):
        pt = PrefetchTable(num_entries=2, assoc=2, confidence_increment_prob=1.0)
        # Two PCs in the same (only) set; give the first high utility.
        pc_a, pc_b, pc_c = 0x400000, 0x400800, 0x401000
        for k in range(6):
            pt.train(pc_a, 0x1000 + 8 * k)
        pt.train(pc_b, 0x2000)
        pt.train(pc_c, 0x3000)  # evicts pc_b (utility 0)
        assert pt.lookup(pc_a) is not None
        assert pt.lookup(pc_b) is None
        assert pt.lookup(pc_c) is not None
        assert pt.evictions == 1


class TestPATIntegration:
    def test_pat_mode_predicts_same_as_full(self):
        pat = PageAddressTable(64, 4)
        pt_pat = make_pt(pat=pat)
        pt_full = make_pt()
        for k in range(6):
            addr = 0x7000 + 8 * k
            pt_pat.train(PC, addr)
            pt_full.train(PC, addr)
        assert pt_pat.on_allocate(PC) == pt_full.on_allocate(PC)

    def test_stale_pointer_mispredicts_then_relearns(self):
        pat = PageAddressTable(4, 2)  # tiny PAT: 2 sets x 2 ways
        pt = make_pt(pat=pat)
        for k in range(6):
            pt.train(PC, 0x10000 + 8 * k)
        # Thrash the PAT set that holds our page with other pages mapping
        # to the same set (pages with the same parity here).
        page = 0x10000 >> 12
        for other in range(20):
            candidate = page + 2 * (other + 1)
            pat.insert(candidate)
        eligible, predicted = pt.on_allocate(PC)
        if eligible:
            assert (predicted >> 12) != page  # stale -> wrong page
        # Misprediction drops confidence; retirement training relearns the
        # page (and re-inserts it into the PAT).
        pt.on_misprediction(PC, 0x10030)
        assert pt.lookup(PC).confidence == 0
        for k in range(6, 10):
            # The first retirement is the instance allocated above.
            pt.train(PC, 0x10000 + 8 * k, commit=k == 6)
        eligible, predicted = pt.on_allocate(PC)
        assert eligible and (predicted >> 12) == page


class TestPAT:
    def test_insert_and_find(self):
        pat = PageAddressTable(8, 2)
        pointer = pat.insert(0x123)
        assert pat.dereference(pointer) == 0x123

    def test_duplicate_insert_same_pointer(self):
        pat = PageAddressTable(8, 2)
        assert pat.insert(0x123) == pat.insert(0x123)
        assert pat.insertions == 1 or pat.insertions == 2

    def test_eviction_lru(self):
        pat = PageAddressTable(2, 2)  # one set, two ways
        p1 = pat.insert(0)
        p2 = pat.insert(1)
        pat.insert(0)           # refresh page 0
        p3 = pat.insert(2)      # evicts page 1
        assert pat.dereference(p2) == 2  # stale pointer sees the new page
        assert not any(1 in ways for ways in pat.ways)
        assert pat.evictions == 1

    def test_split_join_roundtrip(self):
        addr = 0xDEADBEEF
        page, offset = addr >> PAGE_SHIFT, addr & PAGE_MASK
        assert PageAddressTable.join(page, offset) == addr

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            PageAddressTable(7, 2)


@settings(max_examples=30, deadline=None)
@given(stride=st.integers(min_value=-100, max_value=100).filter(lambda s: s != 0),
       base=st.integers(min_value=0x1000, max_value=0xFFFFF))
def test_pt_learns_arbitrary_small_strides(stride, base):
    pt = make_pt(stride_bits=8)
    base &= ~7
    addrs = [base + 2048 * 100 + stride * k for k in range(6)]
    if any(a < 0 for a in addrs):
        return
    for a in addrs:
        pt.train(0x400040, a)
    eligible, predicted = pt.on_allocate(0x400040)
    assert eligible
    assert predicted == addrs[-1] + stride
