"""Value/address predictor family: EVES, DLVP, Composite, EPP."""

import pytest

from conftest import ADD, LOAD, MOV, STORE, make_trace, quiet_config, run_core

from repro.core.core import OOOCore
from repro.vp import build_predictor
from repro.vp.composite import CompositePredictor
from repro.vp.dlvp import DLVPPredictor
from repro.vp.epp import EPPPredictor
from repro.vp.eves import EVESPredictor


def vp_config(kind, **vp_overrides):
    vp = {"enabled": True, "kind": kind,
          "confidence_max": 3, "confidence_increment_prob": 1.0}
    vp.update(vp_overrides)
    return quiet_config(vp=vp)


def constant_load_trace(n=200, addr=0x5000, value=99):
    instrs = []
    for k in range(n):
        instrs.append(LOAD(0x800, dst=1, addr=addr))
        instrs.append(ADD(0x804, dst=2, srcs=(2, 1)))
        for j in range(3):
            instrs.append(ADD(0x808 + 4 * j, dst=3 + j, imm=j))
    return make_trace(instrs, memory={addr: value})


class TestBuildPredictor:
    def test_none_when_disabled(self):
        assert build_predictor(quiet_config()) is None

    @pytest.mark.parametrize("kind,cls", [
        ("eves", EVESPredictor), ("dlvp", DLVPPredictor),
        ("composite", CompositePredictor), ("epp", EPPPredictor),
    ])
    def test_kinds(self, kind, cls):
        assert isinstance(build_predictor(vp_config(kind)), cls)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_predictor(vp_config("bogus"))


class TestEVES:
    def test_predicts_constant_loads(self):
        core = run_core(constant_load_trace(), vp_config("eves"))
        assert core.vp.predictions > 0
        assert core.vp.correct == core.vp.predictions
        assert core.stats.vp_flushes == 0

    def test_predicts_value_strides(self):
        # Loads over an arithmetic array: values stride by 5.  The realistic
        # baseline (hardware prefetchers on) keeps the stream L1-resident so
        # the hit-miss gate lets the value predictor speculate.
        from repro.core.config import baseline as full_baseline
        memory = {0x6000 + 8 * k: 100 + 5 * k for k in range(300)}
        instrs = []
        for k in range(300):
            instrs.append(LOAD(0x900, dst=1, addr=0x6000 + 8 * k))
            instrs.append(ADD(0x904, dst=2, srcs=(2, 1)))
            instrs.append(ADD(0x908, dst=3, imm=k))
            instrs.append(ADD(0x90C, dst=4, imm=k))
        config = full_baseline(vp={"enabled": True, "kind": "eves",
                                   "confidence_max": 3,
                                   "confidence_increment_prob": 1.0})
        core = run_core(make_trace(instrs, memory=memory), config)
        stats = core.vp.stats_dict()
        assert stats["stride_predictions"] > 0
        assert core.vp.correct > 0.5 * core.vp.predictions

    def test_misprediction_flushes_and_recovers(self):
        # Value pattern breaks: constant then different constant.  The
        # stream must be long enough for confidence to saturate *while
        # later instances still dispatch* (training happens at commit).
        instrs = []
        memory = {0x5000: 7}
        for k in range(300):
            instrs.append(LOAD(0xA00, dst=1, addr=0x5000))
            instrs.append(ADD(0xA04, dst=2, srcs=(2, 1)))
            instrs.append(ADD(0xA08, dst=3, imm=1))
        # A store changes the polled value mid-stream.
        instrs.insert(600, MOV(0xA10, dst=4, imm=1234))
        instrs.insert(601, STORE(0xA14, data_src=4, addr=0x5000))
        trace = make_trace(instrs, memory=memory)
        core = run_core(trace, vp_config("eves"))
        from repro.emu.emulator import ArchEmulator
        emu = ArchEmulator(trace).run()
        assert core.architectural_registers() == emu.registers.values
        assert core.stats.vp_flushes >= 1

    def test_speedup_on_serial_constant_chain(self):
        # Loads feeding a serial chain: VP breaks the dependence.
        instrs = []
        memory = {0x5000: 3}
        instrs.append(MOV(0xB00, dst=1, imm=0))
        for k in range(200):
            instrs.append(LOAD(0xB04, dst=1, addr=0x5000, srcs=(1,)))
            instrs.append(ADD(0xB08, dst=2, srcs=(1, 2)))
        trace = make_trace(instrs, memory=memory)
        base = run_core(trace, quiet_config())
        vp = run_core(trace, vp_config("eves"))
        assert vp.cycle < base.cycle


class TestDLVPWaterfall:
    def _run(self, **overrides):
        core = run_core(constant_load_trace(n=400), vp_config("dlvp", **overrides))
        return core.vp

    def test_waterfall_monotonic(self):
        wf = self._run().waterfall()
        order = ["AP", "APHC", "APHC+noFWD", "Probed (port)", "ProbeSuccess"]
        values = [wf[k] for k in order]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_probes_untimely_without_backpressure(self):
        """The paper's point: with a bubble-free uop-cache frontend
        (fetch-to-alloc 4 cycles) a 5-cycle L1 probe can never return in
        time.  Probes only become timely when dispatch backpressure opens
        the window — a short trace has none."""
        short = constant_load_trace(n=30)
        core = run_core(short, vp_config("dlvp"))
        wf = core.vp.waterfall()
        assert wf["ProbeSuccess"] == 0.0

    def test_blacklist_suppresses_repeat_flushes(self):
        vp = DLVPPredictor(vp_config("dlvp"))
        class FakeDyn:
            pc = 0x123
            vp_value = 1
        vp.blacklist.clear()
        assert not vp.validate(FakeDyn(), 2)
        assert vp.blacklist[0x123] > 0

    def test_probe_reads_committed_memory(self):
        """The fetch probe reads a committed store over an image word,
        and the image's value of a word nothing wrote."""
        written, untouched = 0x5000, 0x5008
        trace = make_trace([LOAD(0x800, dst=1, addr=written),
                            LOAD(0x804, dst=2, addr=untouched)],
                           memory={written: 5, untouched: 7})
        core = OOOCore(trace, vp_config("dlvp"))
        core.memory[written] = 99  # a committed store
        vp = core.vp
        for index, addr in enumerate((written, untouched)):
            entry = vp._entry(trace[index].pc, 0, create=True)
            entry.valid, entry.last_addr, entry.stride = True, addr, 0
            while not entry.confidence.saturated:
                entry.confidence.strengthen()
            core._fetch_hook(index, 0, 0)
        assert vp.probed == 2
        assert vp.pending_probes[0].value == 99
        assert vp.pending_probes[1].value == 7
        assert core.image[written] == 5  # the shared image is untouched

    def test_nofwd_filter(self):
        vp = DLVPPredictor(vp_config("dlvp"))
        vp.note_forwarded(0x800)
        assert (0x800 >> 2) % vp.nofwd_entries in vp.nofwd


class TestComposite:
    def test_eves_priority(self):
        core = run_core(constant_load_trace(), vp_config("composite"))
        stats = core.vp.stats_dict()
        assert stats["eves_used"] >= stats["dlvp_used"]

    def test_architectural_correctness(self):
        trace = constant_load_trace()
        core = OOOCore(trace, vp_config("composite"), record_commits=True)
        core.run()
        from repro.emu.emulator import ArchEmulator
        emu = ArchEmulator(trace).run()
        assert core.architectural_registers() == emu.registers.values


class TestEPP:
    def test_skips_validation_access(self):
        core = run_core(constant_load_trace(n=400), vp_config("epp"))
        assert core.vp.validation_accesses_saved > 0

    def test_ssbf_false_positives_reexecute(self):
        config = vp_config("epp", epp_ssbf_false_positive_rate=0.5)
        core = run_core(constant_load_trace(n=400), config)
        assert core.vp.ssbf_false_positives > 0
        assert core.stats.retire_reexecutions == core.vp.ssbf_false_positives

    def test_zero_fp_rate_never_reexecutes(self):
        config = vp_config("epp", epp_ssbf_false_positive_rate=0.0)
        core = run_core(constant_load_trace(n=400), config)
        assert core.stats.retire_reexecutions == 0


class TestVPPlusRFP:
    def test_fusion_skips_rfp_for_predicted_loads(self):
        config = quiet_config(
            rfp={"enabled": True, "confidence_increment_prob": 1.0},
            vp={"enabled": True, "kind": "eves",
                "confidence_max": 3, "confidence_increment_prob": 1.0},
        )
        core = run_core(constant_load_trace(n=400), config)
        # Once EVES covers the constant load, RFP injection should taper.
        assert core.vp.correct > 0
        combined = core.vp.correct + core.rfp.stats.useful
        assert combined > 0.5 * core.stats.loads
