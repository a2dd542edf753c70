"""The microarchitectural invariant net (repro.core.invariants).

Two directions: (1) healthy runs pass a per-cycle sweep and produce
byte-identical results with checking on or off; (2) each invariant class
actually fires when its structure is corrupted, with a located diagnostic.
"""

import heapq

import pytest

from conftest import quiet_config

from repro.core import invariants
from repro.core.core import OOOCore
from repro.sim import settings
from repro.sim.runner import simulate
from repro.workloads.suite import build_workload

WORKLOAD = "spec06_mcf"
LENGTH = 2000
WARMUP = 400


def stepped_core(config=None, cycles=80, length=400):
    """A core advanced mid-flight, with instructions in every structure."""
    core = OOOCore(build_workload(WORKLOAD, length=length), config or quiet_config())
    for _ in range(cycles):
        core.step()
    return core


class TestIntervalKnob:
    def test_unset_means_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        assert settings.get("REPRO_CHECK_INVARIANTS") == 0

    @pytest.mark.parametrize("value", ["", "0", "off", "false"])
    def test_disabling_values(self, value):
        assert settings.get("REPRO_CHECK_INVARIANTS", {"REPRO_CHECK_INVARIANTS": value}) == 0

    def test_integer_interval(self):
        assert settings.get("REPRO_CHECK_INVARIANTS", {"REPRO_CHECK_INVARIANTS": "64"}) == 64
        assert settings.get("REPRO_CHECK_INVARIANTS", {"REPRO_CHECK_INVARIANTS": "1"}) == 1

    def test_garbage_raises(self):
        with pytest.raises(ValueError, match="REPRO_CHECK_INVARIANTS"):
            settings.get("REPRO_CHECK_INVARIANTS", {"REPRO_CHECK_INVARIANTS": "always"})

    def test_core_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "16")
        core = OOOCore(build_workload(WORKLOAD, length=200), quiet_config())
        assert core.invariant_interval == 16
        # Explicit argument wins over the environment.
        core = OOOCore(build_workload(WORKLOAD, length=200), quiet_config(),
                       check_invariants=0)
        assert core.invariant_interval == 0


class TestHealthyRuns:
    def test_checked_run_is_byte_identical(self):
        plain = simulate(WORKLOAD, quiet_config(), length=LENGTH, warmup=WARMUP)
        checked = simulate(WORKLOAD, quiet_config(), length=LENGTH,
                           warmup=WARMUP, check_invariants=1)
        assert plain.data == checked.data

    def test_rfp_config_passes_every_cycle(self):
        config = quiet_config(rfp={"enabled": True})
        result = simulate(WORKLOAD, config, length=LENGTH, warmup=WARMUP,
                          check_invariants=1)
        assert result.data["instructions"] > 0

    def test_clean_mid_flight_core_has_no_violations(self):
        core = stepped_core(quiet_config(rfp={"enabled": True}))
        assert invariants.violations(core) == []


class TestViolationDetection:
    def test_rob_order(self):
        core = stepped_core()
        entries = core.rob.entries
        assert len(entries) >= 2, "need a busy window for this test"
        entries[0], entries[1] = entries[1], entries[0]
        assert any("ROB seq order" in v for v in invariants.violations(core))

    def test_prf_leak(self):
        core = stepped_core()
        core.rename.free_list.pop()
        assert any("PRF conservation" in v for v in invariants.violations(core))

    def test_prf_double_mapping(self):
        core = stepped_core()
        free = core.rename.free_list
        free[-1] = free[0]  # same register free twice; count still balances
        assert any("mapped twice" in v for v in invariants.violations(core))

    def test_lq_index_mismatch(self):
        core = stepped_core()
        for word, lst in core.lq._executed.items():
            if lst:
                seq, dyn = lst[0]
                lst[0] = (seq + 1000, dyn)
                break
        else:
            pytest.skip("no executed load in flight at the probed cycle")
        assert any("LQ executed-index" in v for v in invariants.violations(core))

    def test_lq_departed_entry(self):
        core = stepped_core()
        for word, lst in core.lq._executed.items():
            if lst:
                lst[0][1].in_lq = False
                break
        else:
            pytest.skip("no executed load in flight at the probed cycle")
        assert any("departed" in v for v in invariants.violations(core))
        lst[0][1].in_lq = True  # restore for teardown sanity

    def test_rs_live_counter_drift(self):
        core = stepped_core()
        core.rs.live += 1
        assert any("RS live counter" in v for v in invariants.violations(core))

    @pytest.mark.parametrize("heap", ["ready", "ready_loads"])
    def test_ready_heap_holds_the_wrong_class(self, heap):
        """Loads wait in ``ready_loads``, everything else in ``ready``; an
        entry in the wrong heap would escape the load-budget cut-off."""
        core = stepped_core()
        wrong = next(
            dyn for dyn in core.rob.entries if dyn.is_load == (heap == "ready")
        )
        heapq.heappush(getattr(core.rs, heap), (wrong.seq, wrong))
        found = invariants.violations(core)
        assert any("RS %s heap holds a" % heap in v for v in found)

    def test_ready_heap_key_mismatch(self):
        core = stepped_core()
        load = next(dyn for dyn in core.rob.entries if dyn.is_load)
        core.rs.ready_loads.append((load.seq + 1000, load))
        assert any("heap key mismatch" in v for v in invariants.violations(core))

    def test_wheel_event_in_the_past(self):
        core = stepped_core()
        core.events.schedule(core.cycle - 10, ("branch", None))
        assert any("in the past" in v for v in invariants.violations(core))

    def test_pt_inflight_out_of_range(self):
        core = stepped_core(quiet_config(rfp={"enabled": True}), cycles=200)
        pt = core.rfp.pt
        entry = None
        for ways in pt.sets:
            if ways:
                entry = next(iter(ways.values()))
                break
        assert entry is not None, "PT never allocated in 200 cycles"
        entry.inflight = -1
        assert any("PT inflight" in v for v in invariants.violations(core))

    def test_check_core_raises_with_report(self):
        core = stepped_core()
        core.rename.free_list.pop()
        with pytest.raises(invariants.InvariantViolation) as excinfo:
            invariants.check_core(core)
        message = str(excinfo.value)
        assert "PRF conservation" in message
        assert "invariant-net snapshot" in message
        assert WORKLOAD in message

    def test_run_loop_catches_corruption(self):
        """The hook in OOOCore.run() sweeps and raises mid-simulation."""
        core = OOOCore(build_workload(WORKLOAD, length=400), quiet_config(),
                       check_invariants=8)
        for _ in range(40):
            core.step()
        core.rename.free_list.append(core.rename.free_list[0])
        with pytest.raises(invariants.InvariantViolation):
            core.run()


class TestDeadlockDiagnostic:
    def test_deadlock_error_includes_snapshot(self):
        core = OOOCore(build_workload(WORKLOAD, length=300), quiet_config())
        with pytest.raises(RuntimeError) as excinfo:
            core.run(max_cycles=3)  # far too few cycles: trips the detector
        message = str(excinfo.value)
        assert "likely deadlock" in message
        assert "invariant-net snapshot" in message
        # The satellite contract: ROB head, wheel next-event, and RS/LQ/SQ
        # occupancies are all readable from the one message.
        assert "ROB:" in message and "head" in message
        assert "RS:" in message and "LQ:" in message and "SQ:" in message
        assert "timing wheel" in message


class TestReport:
    def test_format_report_fields(self):
        core = stepped_core(quiet_config(rfp={"enabled": True}), cycles=200)
        text = invariants.format_report(core)
        assert "ROB:" in text
        assert "RS:" in text
        assert "ready heaps %d + %d loads" % (
            len(core.rs.ready), len(core.rs.ready_loads)
        ) in text
        assert "PRF:" in text
        assert "RFP: queue" in text
        assert "@ cycle %d" % core.cycle in text
