"""RFP end-to-end behaviour on purpose-built traces."""

from conftest import ADD, LOAD, MOV, STORE, make_trace, quiet_config, run_core

from repro.core.core import OOOCore
from repro.sim.oracle import oracle_config
from repro.workloads.generator import WorkloadProfile, generate_trace


def rfp_config(**rfp_overrides):
    rfp = {"enabled": True, "confidence_increment_prob": 1.0}
    rfp.update(rfp_overrides)
    return quiet_config(rfp=rfp)


def strided_trace(n=400, base=0x10000, stride=8):
    """A strided loop with a realistic body size.

    The loop body must be several instructions: the PT's 7-bit inflight
    counter saturates if one static load fills half the 352-entry ROB, and
    saturation (correctly) degrades prediction accuracy.
    """
    memory = {(base + stride * k) & ~7: k for k in range(n)}
    instrs = []
    for k in range(n):
        instrs.append(LOAD(0x400, dst=1, addr=base + stride * k))
        instrs.append(ADD(0x404, dst=2, srcs=(2, 1)))
        for j in range(4):
            instrs.append(ADD(0x408 + 4 * j, dst=3 + j, srcs=(3 + j,), imm=1))
    return make_trace(instrs, memory=memory)


def chase_trace(n=300, base=0x20000):
    """Sequentially laid out pointer chain: strided addresses, serial data.

    Filler ALU ops keep the per-PC in-flight count under the PT's 7-bit
    inflight counter, as in any realistic loop body.
    """
    memory = {}
    for k in range(n + 1):
        memory[base + 8 * k] = base + 8 * (k + 1)
    instrs = [MOV(0x500, dst=1, imm=base)]
    for k in range(n):
        instrs.append(LOAD(0x504, dst=1, addr=base + 8 * k, srcs=(1,)))
        for j in range(3):
            instrs.append(ADD(0x508 + 4 * j, dst=3 + j, srcs=(3 + j,), imm=1))
    return make_trace(instrs, memory=memory)


class TestCoverage:
    def test_strided_loads_covered(self):
        core = run_core(strided_trace(), rfp_config())
        stats = core.rfp.stats
        assert stats.useful > 0.5 * core.stats.loads
        assert stats.injected >= stats.executed >= stats.useful

    def test_prefetched_values_correct(self):
        trace = strided_trace()
        core = run_core(trace, rfp_config())
        from repro.emu.emulator import ArchEmulator
        emu = ArchEmulator(trace).run()
        assert core.architectural_registers() == emu.registers.values

    def test_rfp_speeds_up_serial_chain(self):
        trace = chase_trace()
        base_cycles = run_core(trace, quiet_config()).cycle
        rfp_cycles = run_core(trace, rfp_config()).cycle
        assert rfp_cycles < base_cycles * 0.8

    def test_oracle_and_rfp_both_beat_baseline_on_chain(self):
        trace = chase_trace()
        base_cycles = run_core(trace, quiet_config()).cycle
        oracle = oracle_config(quiet_config(), "l1_to_rf")
        oracle_cycles = run_core(trace, oracle).cycle
        rfp_cycles = run_core(trace, rfp_config()).cycle
        assert oracle_cycles < base_cycles
        # On a cold chain RFP can beat the L1->RF oracle: the oracle only
        # shortens L1 *hits*, while RFP's early requests also hide the
        # cold-miss latency (it is a prefetcher, after all).
        assert rfp_cycles < base_cycles

    def test_single_cycle_loads_counted(self):
        core = run_core(chase_trace(), rfp_config())
        assert core.stats.loads_single_cycle > 0
        assert core.rfp.stats.full_hide == core.stats.loads_single_cycle


class TestWrongAddressRecovery:
    def _pattern_break_trace(self):
        """A stride that changes abruptly: the PT keeps predicting the old
        stride right after each break, so some prefetches are wrong."""
        instrs = []
        memory = {}
        addr = 0x30000
        for phase in range(6):
            stride = 8 if phase % 2 == 0 else 24
            for k in range(40):
                memory[addr & ~7] = addr
                instrs.append(LOAD(0x600, dst=1, addr=addr))
                instrs.append(ADD(0x604, dst=2, srcs=(2, 1)))
                addr += stride
        return make_trace(instrs, memory=memory)

    def test_wrong_prefetches_happen_and_recover(self):
        trace = self._pattern_break_trace()
        core = run_core(trace, rfp_config())
        assert core.rfp.stats.wrong_addr > 0
        from repro.emu.emulator import ArchEmulator
        emu = ArchEmulator(trace).run()
        assert core.architectural_registers() == emu.registers.values

    def test_wrong_prefetch_charges_replays(self):
        core = run_core(self._pattern_break_trace(), rfp_config())
        assert core.stats.replay_issues >= 0  # counter wired up
        assert core.rs.replay_issues_total == core.stats.replay_issues


class TestStaleData:
    def test_store_between_prefetch_and_load(self):
        """An older store executing after the prefetch read its data makes
        the prefetch stale; the load must re-access and stay correct."""
        instrs = []
        memory = {}
        base = 0x40000
        # Warm the PT on a same-address (stride-0) load.
        for k in range(8):
            instrs.append(LOAD(0x700, dst=1, addr=base))
        # Slow chain computing the store data.
        instrs.append(MOV(0x710, dst=3, imm=5))
        for k in range(25):
            instrs.append(ADD(0x714, dst=3, srcs=(3,), imm=1))
        instrs.append(STORE(0x718, data_src=3, addr=base))
        instrs.append(LOAD(0x700, dst=1, addr=base))
        instrs.append(ADD(0x71C, dst=4, srcs=(1,)))
        memory[base] = 1
        trace = make_trace(instrs, memory=memory)
        core = run_core(trace, rfp_config())
        assert core.architectural_registers()[4] == 30
        assert core.architectural_registers()[1] == 30


class TestConfigurationVariants:
    def test_dedicated_ports_execute_more(self):
        profile = WorkloadProfile(
            name="busy", category="T", seed=9, length=4000,
            kernel_mix={"stencil": 0.5, "strided_sum": 0.5}, concurrent=4,
        )
        trace = generate_trace(profile)
        shared = run_core(trace, quiet_config(rfp={"enabled": True}))
        dedicated = run_core(trace, quiet_config(
            rfp={"enabled": True}, rfp_dedicated_ports=2))
        assert dedicated.rfp.stats.executed >= shared.rfp.stats.executed

    def test_disabled_rfp_has_no_engine(self):
        core = run_core(strided_trace(80), quiet_config())
        assert core.rfp is None

    def test_context_prefetcher_attached_only_when_enabled(self):
        core = run_core(strided_trace(80), rfp_config())
        assert core.rfp.context is None
        core = run_core(strided_trace(80), rfp_config(context_enabled=True))
        assert core.rfp.context is not None

    def test_critical_pcs_tracked_only_under_the_filter(self):
        """The chase load feeds its own next address, so the criticality
        extension marks it; with the filter off nothing reads the marks,
        and the core keeps neither the marks nor the producer map."""
        on = run_core(chase_trace(60), rfp_config(criticality_filter=True))
        assert 0x504 in on.rfp.critical_pcs
        off = run_core(chase_trace(60), rfp_config())
        assert off.rfp.critical_pcs == {} and off.preg_producer == {}

    def test_drop_on_l1_miss_config(self):
        # Stride of one line: every prefetch is an L1 first-touch miss.
        # Generous MSHRs so the miss-file throttle does not hold packets.
        trace = strided_trace(n=600, base=0x900000, stride=64)
        allowed = run_core(trace, rfp_config(prefetch_on_l1_miss=True))
        dropped = run_core(
            trace,
            quiet_config(l1_mshrs=128,
                         rfp={"enabled": True, "confidence_increment_prob": 1.0,
                              "prefetch_on_l1_miss": False}),
        )
        assert dropped.rfp.stats.dropped_l1_miss > 0
        assert allowed.rfp.stats.dropped_l1_miss == 0


class TestBaseline2x:
    def test_upscaled_core_runs_and_gains(self):
        from repro.core.config import baseline_2x
        trace = chase_trace()
        base = OOOCore(trace, baseline_2x(l2_prefetcher_enabled=False,
                                          l1_next_line_prefetch=False))
        base.run()
        rfp = OOOCore(trace, baseline_2x(l2_prefetcher_enabled=False,
                                         l1_next_line_prefetch=False,
                                         rfp={"enabled": True,
                                              "confidence_increment_prob": 1.0}))
        rfp.run()
        assert rfp.cycle < base.cycle
