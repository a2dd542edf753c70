"""Frontend fetch/stall/rewind behaviour and the hit-miss predictor."""

from conftest import ADD, BR, LOAD, make_trace, quiet_config, run_core

from repro.core.frontend import Frontend
from repro.core.hit_miss import HitMissPredictor


def simple_trace(n=20):
    return make_trace([ADD(0x1000 + 4 * i, dst=1, imm=i) for i in range(n)])


class TestFrontend:
    def test_fetch_width(self, config):
        fe = Frontend(config, simple_trace())
        assert fe.fetch(0) == config.fetch_width

    def test_frontend_latency(self, config):
        """A uop fetched at cycle 0 may dispatch ``frontend_latency`` later."""
        fe = Frontend(config, simple_trace())
        fe.fetch(0)
        assert {ready_at for ready_at, _ in fe.buffer} == {config.frontend_latency}

    def test_pop_in_order(self, config):
        fe = Frontend(config, simple_trace())
        fe.fetch(0)
        fe.fetch(1)
        indexes = [index for _, index in fe.buffer]
        assert indexes == list(range(2 * config.fetch_width))

    def test_buffer_capacity_bounds_runahead(self, config):
        fe = Frontend(config, simple_trace(n=200))
        for cycle in range(30):
            fe.fetch(cycle)
        assert len(fe.buffer) <= fe.buffer_capacity

    def test_mispredicted_branch_blocks_fetch(self, config):
        trace = make_trace([
            ADD(0x1000, dst=1, imm=1),
            BR(0x1004, src=1, mispredicted=True),
            ADD(0x1008, dst=1, imm=2),
        ])
        fe = Frontend(config, trace)
        fe.fetch(0)
        assert fe.blocked_branch_index == 1
        assert fe.fetch(1) == 0

    def test_branch_resolution_resumes_after_penalty(self, config):
        trace = make_trace([
            BR(0x1000, src=0, mispredicted=True),
            ADD(0x1004, dst=1, imm=2),
        ])
        fe = Frontend(config, trace)
        fe.fetch(0)
        fe.branch_resolved(0, cycle=10)
        extra = max(1, config.branch_redirect_penalty - config.frontend_latency)
        assert fe.stall_until == 10 + extra
        assert fe.fetch(fe.stall_until) == 1

    def test_resolution_of_other_branch_ignored(self, config):
        trace = make_trace([BR(0x1000, src=0, mispredicted=True)])
        fe = Frontend(config, trace)
        fe.fetch(0)
        fe.branch_resolved(5, cycle=10)
        assert fe.blocked_branch_index == 0

    def test_flush_rewind(self, config):
        fe = Frontend(config, simple_trace())
        fe.fetch(0)
        fe.flush_rewind(2, resume_cycle=50)
        assert not fe.buffer
        assert fe.fetch(49) == 0
        fe.fetch(50)
        assert fe.buffer[0][1] == 2

    def test_rewind_clears_branch_block(self, config):
        trace = make_trace([
            BR(0x1000, src=0, mispredicted=True),
            ADD(0x1004, dst=1, imm=2),
        ])
        fe = Frontend(config, trace)
        fe.fetch(0)
        fe.flush_rewind(0, resume_cycle=5)
        assert fe.blocked_branch_index is None

    def test_path_history_tracks_taken_bits(self, config):
        trace = make_trace([
            BR(0x1000, src=0, taken=True),
            BR(0x1004, src=0, taken=False),
            BR(0x1008, src=0, taken=True),
        ])
        fe = Frontend(config, trace)
        fe.fetch(0)
        assert fe.path_history & 0b111 == 0b101

    def test_on_fetch_hook_called(self, config):
        seen = []
        fe = Frontend(config, simple_trace(n=3))
        fe.fetch(0, on_fetch=lambda index, cycle, path: seen.append(index))
        assert seen == [0, 1, 2]

    def test_drained(self, config):
        """A finished run leaves the cursor exhausted and the buffer empty."""
        fe = Frontend(config, simple_trace(n=2))
        assert not fe.cursor.exhausted
        frontend = run_core(simple_trace(n=2), config).frontend
        assert frontend.cursor.exhausted and not frontend.buffer


class TestHitMissPredictor:
    def test_initially_predicts_hit(self):
        hm = HitMissPredictor(64)
        assert hm.probe(0x400)

    def test_learns_misses(self):
        hm = HitMissPredictor(64)
        for _ in range(4):
            hm.train(0x400, hit=False)
        assert not hm.probe(0x400)

    def test_relearns_hits(self):
        hm = HitMissPredictor(64)
        for _ in range(4):
            hm.train(0x400, hit=False)
        for _ in range(4):
            hm.train(0x400, hit=True)
        assert hm.probe(0x400)

    def test_mispredict_rate(self):
        """The core's load issue counts the prediction; a cold load is
        predicted to hit and misses."""
        core = run_core(make_trace([LOAD(0x400, 1, 0x8000)]),
                        quiet_config(hit_miss_predictor=True))
        hm = core.hit_miss
        assert hm.predictions == 1
        assert hm.mispredicts == 1
        assert hm.mispredict_rate == 1.0

    def test_distinct_pcs(self):
        hm = HitMissPredictor(64)
        for _ in range(4):
            hm.train(0x400, hit=False)
        assert hm.probe(0x404)
