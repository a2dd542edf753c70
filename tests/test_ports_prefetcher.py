"""L1 port arbitration and the L2 page streamer.

Demand loads take their ports inside the core's load issue; the arbiter
tests below set the demand count directly (:func:`arbiter`) and check
what RFP requests may still claim.
"""

from conftest import LOAD, make_trace, quiet_config

from repro.core.core import OOOCore
from repro.memory.ports import LoadPortArbiter
from repro.memory.prefetcher import L2StridePrefetcher


def arbiter(demand_used=0, **kwargs):
    """An arbiter part-way through a cycle in which ``demand_used`` demand
    loads already took a port."""
    ports = LoadPortArbiter(**kwargs)
    ports._demand_used = demand_used
    return ports


class TestLoadPortArbiter:
    def test_demand_limit(self):
        """No cycle grants more demand ports than exist, and a burst of
        independent loads does fill them."""
        trace = make_trace([LOAD(0x400 + 4 * k, 1 + k % 8, 0x1000 + 8 * k)
                            for k in range(12)])
        core = OOOCore(trace, quiet_config(load_ports=2))
        used = []
        while core.stats.instructions < 12:
            core.step()
            used.append(core.ports._demand_used)
        assert max(used) == 2
        assert sum(used) == 12

    def test_rfp_uses_leftovers(self):
        ports = arbiter(demand_used=1, num_ports=2)
        assert ports.claim_rfp()     # one demand port left
        assert not ports.claim_rfp() # now exhausted

    def test_rfp_cannot_displace_demand(self):
        ports = arbiter(num_ports=1)
        assert ports.claim_rfp()
        # In this model order demand claims happen first within a cycle;
        # RFP leftovers are what is left after demand ran.
        assert not ports.claim_rfp()
        assert not arbiter(demand_used=1, num_ports=1).claim_rfp()

    def test_begin_cycle_resets(self):
        """Each core cycle starts with every port free again."""
        core = OOOCore(make_trace([]), quiet_config())
        ports = core.ports
        ports._demand_used = 2
        ports._rfp_dedicated_used = 1
        ports._rfp_shared_used = 1
        core.step()
        assert (ports._demand_used, ports._rfp_dedicated_used,
                ports._rfp_shared_used) == (0, 0, 0)

    def test_dedicated_rfp_ports(self):
        ports = arbiter(demand_used=2, num_ports=2, rfp_dedicated_ports=2,
                        rfp_shares_demand_ports=False)
        assert ports.claim_rfp()
        assert ports.claim_rfp()
        assert not ports.claim_rfp()  # no sharing

    def test_dedicated_first_then_shared(self):
        ports = arbiter(num_ports=2, rfp_dedicated_ports=1)
        assert ports.claim_rfp()  # dedicated
        assert ports.claim_rfp()  # shared leftover
        assert ports.claim_rfp()  # second shared leftover
        assert not ports.claim_rfp()

    def test_free_demand_ports(self):
        """RFP may take exactly the demand ports left free this cycle."""
        for demand_used in range(3):
            ports = arbiter(demand_used=demand_used, num_ports=2)
            grants = 0
            while ports.claim_rfp():
                grants += 1
            assert grants == 2 - demand_used


class TestL2Streamer:
    def test_first_touch_no_prefetch(self):
        pf = L2StridePrefetcher(degree=2, threshold=2)
        assert pf.train(0x10, 100) == []

    def test_ascending_stream_prefetches_forward(self):
        pf = L2StridePrefetcher(degree=2, threshold=2)
        out = []
        for line in range(100, 110):
            out = pf.train(0x10, line)
        assert out == [110, 111]

    def test_descending_stream_prefetches_backward(self):
        pf = L2StridePrefetcher(degree=2, threshold=2)
        out = []
        for line in range(250, 240, -1):  # stays within one 64-line page
            out = pf.train(0x10, line)
        assert out == [240, 239]

    def test_outlier_does_not_kill_stream(self):
        pf = L2StridePrefetcher(degree=2, threshold=2)
        for line in range(100, 106):
            pf.train(0x10, line)
        pf.train(0x10, 100)          # backwards outlier in the same page
        out = pf.train(0x10, 106)
        assert out, "one outlier must not reset an established stream"

    def test_two_interleaved_fronts_same_page(self):
        """RFP + demand fronts interleave; the page streamer must survive."""
        pf = L2StridePrefetcher(degree=2, threshold=2)
        front_a = iter(range(100, 130))
        front_b = iter(range(104, 134))
        fired = 0
        for _ in range(20):
            if pf.train(0x10, next(front_a)):
                fired += 1
            if pf.train(0x20, next(front_b)):
                fired += 1
        assert fired > 10

    def test_table_capacity_lru(self):
        pf = L2StridePrefetcher(num_entries=2)
        pf.train(0x10, 0 << 6)
        pf.train(0x10, 1 << 6)
        pf.train(0x10, 2 << 6)  # three distinct pages -> evicts the first
        assert len(pf.pages) == 2

    def test_no_negative_prefetch_lines(self):
        pf = L2StridePrefetcher(degree=4, threshold=2)
        for line in range(10, 0, -1):
            out = pf.train(0x10, line)
        assert all(p >= 0 for p in out)

    def test_issued_counter(self):
        pf = L2StridePrefetcher(degree=3, threshold=1)
        for line in range(100, 105):
            pf.train(0x10, line)
        assert pf.issued > 0
