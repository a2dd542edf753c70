"""End-to-end pipeline behaviour on hand-built micro-traces.

These tests pin the timing contracts the paper's figures rely on:
back-to-back ADD chains (Fig. 7), the 5-cycle load-to-use path (Fig. 8),
branch-redirect stalls, store-to-load forwarding, memory-ordering flushes,
and resource-stall accounting.
"""

import gc
import weakref

import pytest

from conftest import ADD, BR, LOAD, MOV, STORE, make_trace, quiet_config, run_core



class TestBasicExecution:
    def test_empty_trace(self):
        core = run_core(make_trace([]))
        assert core.stats.instructions == 0

    def test_single_add(self):
        core = run_core(make_trace([ADD(0x10, dst=1, imm=5)]))
        assert core.stats.instructions == 1
        assert core.architectural_registers()[1] == 5

    def test_dependent_chain_values(self):
        instrs = [MOV(0x10, dst=1, imm=1)]
        instrs += [ADD(0x14 + 4 * i, dst=1, srcs=(1,), imm=1) for i in range(10)]
        core = run_core(make_trace(instrs))
        assert core.architectural_registers()[1] == 11

    def test_independent_adds_superscalar(self):
        # 100 independent ADDs on a 5-wide core: must sustain well over
        # 1 IPC once the pipeline fills.
        instrs = [ADD(0x10 + 4 * i, dst=1 + (i % 8), imm=i) for i in range(100)]
        core = run_core(make_trace(instrs))
        assert core.stats.instructions / core.cycle > 2.0

    def test_dependent_adds_serialize(self):
        # A serial chain of N single-cycle ADDs takes at least N cycles.
        n = 60
        instrs = [ADD(0x10 + 4 * i, dst=1, srcs=(1,), imm=1) for i in range(n)]
        core = run_core(make_trace(instrs))
        assert core.cycle >= n

    def test_back_to_back_throughput(self):
        # The chain must also run at ~1 ADD/cycle (no bubbles between
        # dependent single-cycle ops) — Fig. 7's contract.
        n = 200
        instrs = [ADD(0x10 + 4 * i, dst=1, srcs=(1,), imm=1) for i in range(n)]
        core = run_core(make_trace(instrs))
        assert core.cycle <= n + 40


class TestLoadTiming:
    def test_load_to_use_is_l1_latency(self, config):
        """Fig. 8: dependents of an L1-hit load wait exactly l1_latency."""
        warm = [LOAD(0x10, dst=1, addr=0x1000)]
        chain = [LOAD(0x20 + 8 * i, dst=1, addr=0x1000, srcs=(1,)) for i in range(40)]
        core = run_core(make_trace(warm + chain, memory={0x1000: 0}), config)
        # Serial dependent loads: each hop costs ~l1_latency cycles.
        assert core.cycle >= 40 * config.l1_latency

    def test_l1_hit_latency_exact(self, config):
        trace = make_trace(
            [LOAD(0x10, dst=1, addr=0x1000), LOAD(0x14, dst=2, addr=0x1000)],
            memory={0x1000: 42},
        )
        core = run_core(trace, config)
        second = [d for d in core.lq.entries] == []  # drained
        assert core.architectural_registers()[1] == 42

    def test_load_value_from_memory_image(self):
        core = run_core(make_trace([LOAD(0x10, dst=3, addr=0x2000)],
                                   memory={0x2000: 1234}))
        assert core.architectural_registers()[3] == 1234

    def test_uninitialised_memory_reads_zero(self):
        core = run_core(make_trace([LOAD(0x10, dst=3, addr=0x9000)]))
        assert core.architectural_registers()[3] == 0

    def test_load_latency_stat(self, config):
        trace = make_trace([LOAD(0x10, dst=1, addr=0x1000),
                            LOAD(0x14, dst=2, addr=0x1000)], memory={0x1000: 1})
        core = run_core(trace, config)
        assert core.stats.load_latency_count == 2


class TestStoreForwarding:
    def test_forwarded_value(self):
        trace = make_trace([
            MOV(0x10, dst=1, imm=77),
            STORE(0x14, data_src=1, addr=0x3000),
            LOAD(0x18, dst=2, addr=0x3000),
        ])
        core = run_core(trace)
        assert core.architectural_registers()[2] == 77

    def test_forward_counted_when_md_waits(self):
        from repro.core.core import OOOCore
        trace = make_trace([
            MOV(0x10, dst=1, imm=77),
            STORE(0x14, data_src=1, addr=0x3000),
            LOAD(0x18, dst=2, addr=0x3000),
        ])
        core = OOOCore(trace, quiet_config())
        # Pre-train the dependence predictor so the load waits for the
        # store and forwards, instead of racing ahead and flushing.
        core.md.train_violation(0x18)
        core.run()
        assert core.stats.load_forwards >= 1
        assert core.stats.md_flushes == 0
        assert core.architectural_registers()[2] == 77

    def test_store_then_load_different_addr_no_forward(self):
        trace = make_trace([
            MOV(0x10, dst=1, imm=77),
            STORE(0x14, data_src=1, addr=0x3000),
            LOAD(0x18, dst=2, addr=0x4000),
        ], memory={0x4000: 5})
        core = run_core(trace)
        assert core.architectural_registers()[2] == 5
        assert core.stats.load_forwards == 0

    def test_committed_store_visible_to_later_load(self):
        # Large gap so the store commits before the load dispatches.
        gap = [ADD(0x100 + 4 * i, dst=3, srcs=(3,), imm=1) for i in range(600)]
        trace = make_trace(
            [MOV(0x10, dst=1, imm=88), STORE(0x14, data_src=1, addr=0x3000)]
            + gap + [LOAD(0x18, dst=2, addr=0x3000)]
        )
        core = run_core(trace)
        assert core.architectural_registers()[2] == 88
        assert core.memory[0x3000] == 88


class TestMemoryOrderingViolation:
    def _aliasing_trace(self):
        """A store whose data is slow (long dependency) followed closely by
        a load to the same address: the load races ahead, the store's
        execution detects the violation, and the pipeline must recover the
        architecturally correct value."""
        slow = [MOV(0x10, dst=1, imm=5)]
        slow += [ADD(0x14 + 4 * i, dst=1, srcs=(1,), imm=1) for i in range(30)]
        return make_trace(
            slow
            + [STORE(0x90, data_src=1, addr=0x3000),
               LOAD(0x94, dst=2, addr=0x3000),
               ADD(0x98, dst=3, srcs=(2,))],
            memory={0x3000: 0},
        )

    def test_violation_flush_recovers_value(self):
        core = run_core(self._aliasing_trace())
        assert core.stats.md_flushes >= 1
        assert core.architectural_registers()[2] == 35
        assert core.architectural_registers()[3] == 35

    def test_md_predictor_trained(self):
        core = run_core(self._aliasing_trace())
        assert core.md.predict_conflict(0x94)

    def test_squash_counted(self):
        core = run_core(self._aliasing_trace())
        assert core.stats.squashed_instructions >= 1


class TestBranches:
    def test_correct_branch_no_stall(self):
        instrs = [ADD(0x10, dst=1, imm=1), BR(0x14, src=1, taken=True)]
        instrs += [ADD(0x18 + 4 * i, dst=2, imm=i) for i in range(10)]
        core = run_core(make_trace(instrs))
        assert core.stats.branch_mispredicts == 0

    def test_mispredict_counted_and_costly(self, config):
        fill = [ADD(0x100 + 4 * i, dst=2, imm=i) for i in range(20)]
        good = make_trace([ADD(0x10, dst=1, imm=1), BR(0x14, src=1)] + fill)
        bad = make_trace(
            [ADD(0x10, dst=1, imm=1), BR(0x14, src=1, mispredicted=True)] + fill
        )
        fast = run_core(good, config)
        slow = run_core(bad, config)
        assert slow.stats.branch_mispredicts == 1
        assert slow.cycle >= fast.cycle + config.branch_redirect_penalty - config.frontend_latency

    def test_multiple_mispredicts(self):
        instrs = []
        for k in range(5):
            instrs.append(ADD(0x10 + 0x20 * k, dst=1, imm=k))
            instrs.append(BR(0x14 + 0x20 * k, src=1, mispredicted=True))
        core = run_core(make_trace(instrs))
        assert core.stats.branch_mispredicts == 5


class TestResourceStalls:
    def test_rob_bounded(self):
        config = quiet_config(rob_entries=8, rs_entries=8, prf_entries=64)
        instrs = [LOAD(0x10 + 4 * i, dst=1 + i % 4, addr=0x100000 * (i + 1))
                  for i in range(30)]
        core = run_core(make_trace(instrs), config)
        assert core.stats.instructions == 30

    def test_issue_width_respected(self):
        config = quiet_config(issue_width=1)
        instrs = [ADD(0x10 + 4 * i, dst=1 + i % 8, imm=i) for i in range(50)]
        core = run_core(make_trace(instrs), config)
        assert core.cycle >= 50

    def test_deadlock_guard_raises(self):
        from repro.core.core import OOOCore
        core = OOOCore(make_trace([ADD(0x10, dst=1, imm=1)]), quiet_config())
        with pytest.raises(RuntimeError):
            core.run(max_cycles=-1)


class TestWarmupSnapshot:
    def test_snapshot_taken(self):
        from repro.core.core import OOOCore
        trace = make_trace([ADD(0x10 + 4 * i, dst=1, imm=i) for i in range(40)])
        core = OOOCore(trace, quiet_config())
        core.warmup_instructions = 10
        core.run()
        assert core.warmup_snapshot is not None
        assert core.warmup_snapshot["stats"]["instructions"] == 10


class TestCoreLifetime:
    @pytest.mark.parametrize(
        "config",
        [
            quiet_config(name="baseline"),
            quiet_config(name="rfp", rfp={"enabled": True}),
            quiet_config(name="vp-composite", vp={"enabled": True, "kind": "composite"}),
        ],
        ids=lambda c: c.name,
    )
    def test_finished_core_is_freed_by_refcount(self, config, monkeypatch):
        """A finished OOOCore, and the trace it holds, must die the moment
        its run returns — without the cyclic collector.  A reference
        cycle through the core (e.g. its own bound methods stored on it)
        keeps every finished core alive until a GC pass and inflates a
        serial sweep's peak memory."""
        from repro.core.core import OOOCore
        from repro.sim import runner

        cores = []

        class Tracked(OOOCore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                cores.append(weakref.ref(self))

        monkeypatch.setattr(runner, "OOOCore", Tracked)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            runner.simulate("spec06_mcf", config, length=2000, warmup=500)
            runner.simulate_interval(
                "spec06_mcf", config, length=2000, start=1000, measure=300,
                ramp=200, checkpoint_store=None,
            )
            assert len(cores) == 2
            assert [ref() is None for ref in cores] == [True, True]
        finally:
            if was_enabled:
                gc.enable()
