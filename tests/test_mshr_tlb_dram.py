"""MSHR merge/backpressure, DTLB, and DRAM bandwidth model."""

from hypothesis import given, settings, strategies as st

from repro.memory.dram import DRAM
from repro.memory.mshr import MSHRFile
from repro.memory.tlb import DTLB, PAGE_SHIFT


class TestMSHR:
    def test_probe_empty(self):
        mshr = MSHRFile(4)
        assert mshr.probe(1, 0) is None
        assert mshr.mshr_hits == 0

    def test_allocate_then_probe_merges(self):
        mshr = MSHRFile(4)
        fill = mshr.allocate(1, 0, 200)
        assert fill == 200
        assert mshr.probe(1, 50) == 200
        assert mshr.mshr_hits == 1

    def test_entries_expire(self):
        mshr = MSHRFile(4)
        mshr.allocate(1, 0, 10)
        assert mshr.probe(1, 11) is None

    def test_duplicate_allocate_returns_existing(self):
        mshr = MSHRFile(4)
        mshr.allocate(1, 0, 100)
        assert mshr.allocate(1, 5, 300) == 100

    def test_full_delays_new_miss(self):
        mshr = MSHRFile(2)
        mshr.allocate(1, 0, 100)
        mshr.allocate(2, 0, 60)
        fill = mshr.allocate(3, 0, 40)
        # Earliest completing entry finishes at 60 -> delay 60 cycles.
        assert fill == 100
        assert mshr.full_stalls == 1

    def test_occupancy_and_reset(self):
        mshr = MSHRFile(4)
        mshr.allocate(1, 0, 100)
        assert mshr.occupancy == 1
        mshr.reset()
        assert mshr.occupancy == 0


    def test_next_fill_tracks_earliest(self):
        mshr = MSHRFile(4)
        assert mshr.next_fill == float("inf")
        mshr.allocate(1, 0, 100)
        mshr.allocate(2, 0, 60)
        assert mshr.next_fill == 60
        mshr.expire(59)
        assert mshr.occupancy == 2
        mshr.expire(60)
        assert mshr.inflight == {1: 100} and mshr.next_fill == 100
        mshr.reset()
        assert mshr.next_fill == float("inf")


class NaiveMSHR(object):
    """The pre-bound MSHR file: every access sweeps every entry."""

    def __init__(self, num_entries):
        self.num_entries = num_entries
        self.inflight = {}
        self.mshr_hits = 0
        self.allocations = 0
        self.full_stalls = 0

    def expire(self, cycle):
        for line in [line for line, t in self.inflight.items() if t <= cycle]:
            del self.inflight[line]

    def probe(self, line, cycle):
        self.expire(cycle)
        fill_time = self.inflight.get(line)
        if fill_time is not None:
            self.mshr_hits += 1
        return fill_time

    def allocate(self, line, cycle, fill_time):
        self.expire(cycle)
        if line in self.inflight:
            return self.inflight[line]
        if len(self.inflight) >= self.num_entries:
            earliest = min(self.inflight.values())
            fill_time += max(0, earliest - cycle)
            self.full_stalls += 1
            for line_key, t in list(self.inflight.items()):
                if t == earliest:
                    del self.inflight[line_key]
                    break
        self.inflight[line] = fill_time
        self.allocations += 1
        return fill_time

    def reset(self):
        self.inflight.clear()


MSHR_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("allocate"),
            st.integers(0, 12),  # line: few enough to merge and to fill up
            st.integers(0, 300),  # cycle: not monotone, like start = cycle + walk
            st.integers(-5, 120),  # fill time minus cycle
        ),
        st.tuples(st.just("probe"), st.integers(0, 12), st.integers(0, 300)),
        st.tuples(st.just("expire"), st.integers(0, 300)),
        st.tuples(st.just("reset")),
    ),
    max_size=60,
)


class TestMSHRBound:
    @settings(max_examples=300, deadline=None)
    @given(num_entries=st.integers(1, 4), ops=MSHR_OPS)
    def test_matches_sweep_every_call(self, num_entries, ops):
        """The earliest-fill bound only skips sweeps that would find
        nothing due: every return value, the entries in insertion order
        (the full-file eviction picks the first earliest one) and every
        counter match a file that sweeps on every call."""
        fast, naive = MSHRFile(num_entries), NaiveMSHR(num_entries)
        for op in ops:
            if op[0] == "allocate":
                _, line, cycle, delta = op
                got = fast.allocate(line, cycle, cycle + delta)
                assert got == naive.allocate(line, cycle, cycle + delta)
            elif op[0] == "probe":
                assert fast.probe(op[1], op[2]) == naive.probe(op[1], op[2])
            elif op[0] == "expire":
                fast.expire(op[1])
                naive.expire(op[1])
            else:
                fast.reset()
                naive.reset()
            assert list(fast.inflight.items()) == list(naive.inflight.items())
            assert fast.next_fill == min(fast.inflight.values(), default=float("inf"))
            assert (fast.mshr_hits, fast.allocations, fast.full_stalls) == (
                naive.mshr_hits, naive.allocations, naive.full_stalls,
            )


class TestDTLB:
    def test_miss_then_hit(self):
        tlb = DTLB(num_entries=8, assoc=2, walk_latency=30)
        hit, extra = tlb.lookup(0x1000)
        assert not hit and extra == 30
        hit, extra = tlb.lookup(0x1008)  # same page
        assert hit and extra == 0

    def test_probe_no_fill_no_stats(self):
        tlb = DTLB(num_entries=8, assoc=2)
        assert not tlb.probe(0x1000)
        assert tlb.hits == 0 and tlb.misses == 0

    def test_lookup_without_fill(self):
        tlb = DTLB(num_entries=8, assoc=2)
        tlb.lookup(0x1000, fill=False)
        assert not tlb.probe(0x1000)

    def test_lru_within_set(self):
        tlb = DTLB(num_entries=2, assoc=2)  # 1 set, 2 ways
        tlb.lookup(0 << PAGE_SHIFT)
        tlb.lookup(1 << PAGE_SHIFT)
        tlb.lookup(0 << PAGE_SHIFT)        # refresh page 0
        tlb.lookup(2 << PAGE_SHIFT)        # evicts page 1
        assert tlb.probe(0 << PAGE_SHIFT)
        assert not tlb.probe(1 << PAGE_SHIFT)

    def test_hit_rate(self):
        tlb = DTLB(num_entries=8, assoc=2)
        tlb.lookup(0x1000)
        tlb.lookup(0x1010)
        assert tlb.hit_rate == 0.5

    def test_bad_geometry(self):
        import pytest
        with pytest.raises(ValueError):
            DTLB(num_entries=7, assoc=2)
        with pytest.raises(ValueError):
            DTLB(num_entries=12, assoc=2)  # 6 sets


class TestDRAM:
    def test_basic_latency(self):
        dram = DRAM(latency=200, max_per_window=4, window=8)
        assert dram.access(0) == 200

    def test_bandwidth_limit_defers(self):
        # Token bucket: 2 fills per 8 cycles = one fill every 4 cycles.
        dram = DRAM(latency=100, max_per_window=2, window=8)
        times = [dram.access(0) for _ in range(4)]
        assert times == [100, 104, 108, 112]
        assert dram.bandwidth_delays == 3

    def test_idle_channel_no_delay(self):
        dram = DRAM(latency=100, max_per_window=1, window=8)
        dram.access(0)
        assert dram.access(8) == 108  # channel free again, no delay

    def test_burst_is_work_conserving(self):
        """A burst delays later arrivals by exactly the backlog — no
        queue jumping across windows."""
        dram = DRAM(latency=100, max_per_window=2, window=8)
        for _ in range(10):
            dram.access(0)
        late = dram.access(1)
        assert late == 10 * 4 + 100

    def test_access_counter(self):
        dram = DRAM()
        dram.access(0)
        dram.access(1)
        assert dram.accesses == 2
