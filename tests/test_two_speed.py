"""Two-speed simulation: functional fast-forward, idle skipping, guards.

The contract under test: a fast-forwarded run must (a) leave the
timing-relevant structures — caches, DTLB, hit-miss predictor, RFP
PT/PAT — in the state a detailed run over the same region produces,
(b) leave the architectural state (memory, registers, load values)
exactly matching the in-order reference emulator, and (c) measure the
same instructions a full-detail run measures.  Idle-cycle skipping must
be invisible in every measured statistic.  The error guards added with
the two-speed engine (empty measurement window, enriched deadlock
message) are covered at the bottom.
"""

import json

import pytest

from conftest import LOAD, make_trace, quiet_config

from repro.core.core import OOOCore
from repro.emu.emulator import ArchEmulator
from repro.emu.warmup import FunctionalWarmer
from repro.sim.cache import config_fingerprint
from repro.sim import settings
from repro.sim.runner import SimResult, simulate
from repro.sim.sampling import FF_DETAIL_RAMP, SamplingPlan
from repro.workloads.suite import build_workload

WORKLOAD = "spec06_mcf"


# ---------------------------------------------------------------------------
# helpers

def chase_trace(n, seed=7, num_pcs=8):
    """A serial pointer-chase: every load's address generation depends on
    the previous load's destination, so the detailed core issues them in
    program order — the order the functional warmer uses — making the
    warmed-structure comparison exact.  Addresses are a deterministic
    pseudo-random walk, so no stable stride ever forms (keeps the RFP
    confidence at zero: training state is exercised, injection is not).
    """
    instrs = []
    state = seed
    for i in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        addr = 0x10000 + (state % 0x8000) * 8
        instrs.append(LOAD(0x400 + (i % num_pcs) * 4, 1, addr, srcs=(1,)))
    return make_trace(instrs, name="chase")


def cache_state(cache):
    """Per-set (line, dirty) pairs in LRU order — the full presence state."""
    return [list(cache_set.items()) for cache_set in cache.sets]


def tlb_state(tlb):
    return [list(tlb_set.keys()) for tlb_set in tlb.sets]


def hierarchy_state(hierarchy):
    return {
        "l1": cache_state(hierarchy.l1),
        "l2": cache_state(hierarchy.l2),
        "llc": cache_state(hierarchy.llc),
        "dtlb": tlb_state(hierarchy.dtlb),
    }


def pt_state(pt):
    out = []
    for pt_set in pt.sets:
        out.append({
            tag: (e.stride, e.confidence, e.utility, e.inflight,
                  e.base_addr, e.pat_pointer, e.page_offset)
            for tag, e in pt_set.items()
        })
    return out


def detailed_and_warmed(trace, n, config):
    """Run the first ``n`` instructions detailed (as their own trace) and
    functionally warmed (on the full trace), returning both cores."""
    prefix = make_trace(list(trace)[:n], memory=trace.initial_memory(),
                        name="prefix")
    detailed = OOOCore(prefix, config)
    detailed.run()
    warmed_core = OOOCore(trace, config)
    FunctionalWarmer(warmed_core).warm(n)
    return detailed, warmed_core


# ---------------------------------------------------------------------------
# functional-warmup equivalence

class TestWarmEquivalence:
    def test_caches_and_tlb_match_detailed_quiet(self):
        """With background prefetchers off, warmed L1/L2/LLC/DTLB contents
        (including LRU order and dirty bits) equal a detailed run's."""
        trace = chase_trace(400)
        detailed, warmed = detailed_and_warmed(trace, 400, quiet_config())
        assert hierarchy_state(warmed.hierarchy) == hierarchy_state(
            detailed.hierarchy)

    def test_caches_match_detailed_with_prefetchers(self):
        """The warmer mirrors the L2 stride prefetcher and the L1 next-line
        prefetch, so contents match under the full baseline fill policy."""
        from repro.core.config import baseline
        trace = chase_trace(400)
        detailed, warmed = detailed_and_warmed(trace, 400, baseline())
        assert hierarchy_state(warmed.hierarchy) == hierarchy_state(
            detailed.hierarchy)

    def test_hit_miss_predictor_matches_detailed(self):
        trace = chase_trace(400)
        detailed, warmed = detailed_and_warmed(trace, 400, quiet_config())
        assert warmed.hit_miss.table == detailed.hit_miss.table

    def test_md_predictor_matches_detailed(self):
        trace = chase_trace(400)
        detailed, warmed = detailed_and_warmed(trace, 400, quiet_config())
        assert warmed.md.table == detailed.md.table
        assert warmed.md._commit_tick == detailed.md._commit_tick

    def test_rfp_pt_and_pat_match_detailed(self):
        trace = chase_trace(400)
        config = quiet_config(rfp={"enabled": True})
        detailed, warmed = detailed_and_warmed(trace, 400, config)
        assert pt_state(warmed.rfp.pt) == pt_state(detailed.rfp.pt)
        pat_w, pat_d = warmed.rfp.pt.pat, detailed.rfp.pt.pat
        if pat_w is not None:
            assert pat_w.ways == pat_d.ways
            assert pat_w.lru == pat_d.lru

    def test_architectural_state_matches_emulator(self):
        """Warm in lockstep with the oracle, one instruction at a time:
        the registers match after every instruction (every load writes a
        destination register, so this checks each load value), and the
        core's writes over the shared image match the oracle's memory
        after every store."""
        trace = build_workload(WORKLOAD, length=3000)
        n = 2000
        core = OOOCore(trace, quiet_config())
        warmer = FunctionalWarmer(core)
        emu = ArchEmulator(trace)
        loads = stores = 0
        for i, (sid, addr) in enumerate(zip(trace.sids[:n], trace.addrs[:n])):
            static = trace.statics[sid]
            emu.step(static, addr)
            warmer.warm(i + 1)
            assert warmer.registers.values == emu.registers.values, i
            if static.is_load:
                assert static.dst is not None, i
                loads += 1
            if static.is_store:
                assert {**core.image, **core.memory} == emu.memory, i
                stores += 1
        assert loads and stores
        # The fetch cursor sits at the warmup boundary.
        assert core.frontend.cursor.index == n


# ---------------------------------------------------------------------------
# the split

def split(config, length, warmup):
    """``(functional, detailed warmup)`` of the one-sample plan — the
    split a plain :func:`simulate` runs."""
    plan = SamplingPlan(config, length, warmup, {"samples": 1})
    assert plan.starts == [plan.warmup_effective]
    assert plan.measure == length - plan.warmup_effective
    return plan.functionals[0], plan.ramps[0]


class TestFastForwardSplit:
    def test_default_split(self):
        config = quiet_config()
        functional, detailed = split(config, 40000, 20000)
        assert (functional, detailed) == (20000 - FF_DETAIL_RAMP,
                                          FF_DETAIL_RAMP)

    def test_warmup_clamped_to_half_the_trace(self):
        config = quiet_config()
        functional, detailed = split(config, 4000, 3000)
        assert functional + detailed == 2000

    def test_short_warmup_stays_detailed(self):
        config = quiet_config()
        assert split(config, 4000, 300) == (0, 300)

    def test_disabled_by_config(self):
        config = quiet_config(fast_forward=False)
        assert split(config, 40000, 20000) == (0, 20000)

    def test_disabled_for_value_predictor_configs(self):
        config = quiet_config(vp={"enabled": True, "kind": "eves"})
        assert split(config, 40000, 20000) == (0, 20000)

    def test_env_kill_switch(self, monkeypatch):
        """``REPRO_FF`` is the default of ``fast_forward`` for configs
        built while it is set."""
        for value in ("0", "off", "false"):
            monkeypatch.setenv("REPRO_FF", value)
            assert not settings.get("REPRO_FF")
            assert split(quiet_config(), 40000, 20000) == (0, 20000)
        monkeypatch.setenv("REPRO_FF", "1")
        assert settings.get("REPRO_FF")
        monkeypatch.delenv("REPRO_FF")
        assert settings.get("REPRO_FF")

    def test_kill_switch_changes_cache_fingerprint(self, monkeypatch):
        """A config built under ``REPRO_FF=0`` runs in full detail under
        its own cache key; one built earlier keeps its value, and so do
        its copies — the split reads the config, not the environment."""
        monkeypatch.delenv("REPRO_FF", raising=False)
        earlier = quiet_config()
        key = config_fingerprint(earlier)
        monkeypatch.setenv("REPRO_FF", "0")
        built = quiet_config()
        assert built.fast_forward is False
        assert config_fingerprint(built) != key
        assert split(built, 40000, 20000) == (0, 20000)
        assert earlier.fast_forward is True
        assert config_fingerprint(earlier) == key
        assert split(earlier, 40000, 20000) == (20000 - FF_DETAIL_RAMP,
                                                FF_DETAIL_RAMP)
        assert earlier.evolve(rfp={"enabled": True}).fast_forward is True


# ---------------------------------------------------------------------------
# end-to-end metadata and measured-region identity

class TestTwoSpeedRuns:
    def test_metadata_and_measured_region(self):
        config = quiet_config()
        result = simulate(WORKLOAD, config, length=4000, warmup=2000)
        ff = result.data["fast_forward"]
        assert ff["enabled"]
        assert ff["functional_instructions"] == 2000 - FF_DETAIL_RAMP
        assert ff["detailed_warmup"] == FF_DETAIL_RAMP
        assert result.data["instructions"] == 2000
        full = simulate(WORKLOAD, quiet_config(fast_forward=False),
                        length=4000, warmup=2000)
        assert not full.data["fast_forward"]["enabled"]
        # Same instructions measured either way.
        assert result.data["instructions"] == full.data["instructions"]

    def test_env_kill_switch_forces_full_detail(self, monkeypatch):
        monkeypatch.setenv("REPRO_FF", "0")
        result = simulate(WORKLOAD, quiet_config(), length=4000, warmup=2000)
        assert not result.data["fast_forward"]["enabled"]
        assert result.data["fast_forward"]["functional_instructions"] == 0
        # The default config simulate() builds itself reads it too.
        default = simulate(WORKLOAD, length=4000, warmup=2000)
        assert not default.data["fast_forward"]["enabled"]

    def test_suite_no_ff_measures_both_sides_in_full_detail(
            self, tmp_path, monkeypatch, capsys):
        """``repro suite --no-ff`` gives the baseline the feature config's
        ``fast_forward``: a speedup is a ratio of two runs measured the
        same way."""
        from repro.__main__ import main
        monkeypatch.delenv("REPRO_FF", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        out = tmp_path / "suite.json"
        assert main(["suite", "-n", "1", "--rfp", "--no-ff", "--length",
                     "2000", "--warmup", "1000", "--jobs", "1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        for side in ("baseline", "feature"):
            [cell] = payload[side].values()
            assert cell["fast_forward"] == {
                "enabled": False, "functional_instructions": 0,
                "detailed_warmup": 1000}

    @pytest.mark.parametrize("sample", [[], ["--sample", "2"]],
                             ids=["full", "sampled"])
    def test_suite_vp_measures_both_sides_in_full_detail(
            self, tmp_path, monkeypatch, capsys, sample):
        """A VP feature config runs its whole window in detail (sampling
        refuses it), so ``repro suite --vp`` measures the baseline that
        way too: no fast-forward and no sampling on either side."""
        from repro.__main__ import main
        monkeypatch.delenv("REPRO_FF", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        out = tmp_path / "suite.json"
        assert main(["suite", "-n", "2", "--vp", "eves", "--length", "4000",
                     "--warmup", "2000", "--jobs", "1", "--out", str(out)]
                    + sample) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        cells = [cell for side in ("baseline", "feature")
                 for cell in payload[side].values()]
        assert len(cells) == 4
        assert {cell["fast_forward"]["enabled"] for cell in cells} == {False}
        assert not any("ipc_ci" in cell for cell in cells)

    def test_cli_flags_plumb_through(self):
        from repro.__main__ import _config_from_args, build_parser
        parser = build_parser()
        off = parser.parse_args(["run", WORKLOAD, "--no-ff"])
        assert _config_from_args(off).fast_forward is False
        on = parser.parse_args(["run", WORKLOAD, "--ff"])
        assert _config_from_args(on).fast_forward is True
        default = parser.parse_args(["run", WORKLOAD])
        assert _config_from_args(default).fast_forward is True


# ---------------------------------------------------------------------------
# idle-cycle skipping

class TestIdleSkip:
    def assert_identical_modulo_mode(self, on, off):
        on_data, off_data = dict(on.data), dict(off.data)
        assert on_data.pop("idle_skipped_cycles") > 0
        assert off_data.pop("idle_skipped_cycles") == 0
        on_data.pop("fast_forward")
        off_data.pop("fast_forward")
        assert on_data == off_data

    def test_stats_identical_with_and_without_skip(self):
        on = simulate(WORKLOAD, quiet_config(fast_forward=False),
                      length=3000, warmup=0)
        off = simulate(WORKLOAD,
                       quiet_config(fast_forward=False, idle_skip=False),
                       length=3000, warmup=0)
        self.assert_identical_modulo_mode(on, off)

    def test_stats_identical_with_rfp(self):
        on = simulate(WORKLOAD,
                      quiet_config(rfp={"enabled": True}, fast_forward=False),
                      length=3000, warmup=0)
        off = simulate(WORKLOAD,
                       quiet_config(rfp={"enabled": True}, fast_forward=False,
                                    idle_skip=False),
                       length=3000, warmup=0)
        self.assert_identical_modulo_mode(on, off)

    def test_skip_composes_with_fast_forward(self):
        on = simulate(WORKLOAD, quiet_config(), length=4000, warmup=2000)
        off = simulate(WORKLOAD, quiet_config(idle_skip=False),
                       length=4000, warmup=2000)
        self.assert_identical_modulo_mode(on, off)


# ---------------------------------------------------------------------------
# guards

class TestZeroWindowGuard:
    def test_warmup_never_reached_raises(self):
        trace = chase_trace(100)
        core = OOOCore(trace, quiet_config())
        core.warmup_instructions = 200   # beyond the trace: snapshot never taken
        core.run()
        with pytest.raises(RuntimeError, match="empty measurement window"):
            SimResult.from_core(core, "chase", "T")

    def test_zero_instruction_window_raises(self):
        trace = chase_trace(100)
        core = OOOCore(trace, quiet_config())
        core.warmup_instructions = 100   # snapshot at the very last commit
        core.run()
        with pytest.raises(RuntimeError, match="empty measurement window"):
            SimResult.from_core(core, "chase", "T")

    def test_simulate_clamps_warmup_into_a_valid_window(self):
        result = simulate(WORKLOAD, quiet_config(), length=2000, warmup=99999)
        assert result.data["instructions"] == 1000


class TestDeadlockMessage:
    def test_cycle_limit_error_is_diagnosable(self):
        with pytest.raises(RuntimeError) as excinfo:
            simulate(WORKLOAD, quiet_config(), length=2000, warmup=0,
                     max_cycles=40)
        message = str(excinfo.value)
        assert WORKLOAD in message
        assert quiet_config().name in message
        assert "ROB head seq" in message
        assert "40" in message
