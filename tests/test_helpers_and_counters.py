"""Helpers: experiment env knobs, confidence counters, stats records."""

import random


from conftest import quiet_config

from repro.core.config import baseline
from repro.rfp.engine import RFPStats
from repro.sim import experiments, settings
from repro.sim.oracle import oracle_config
from repro.sim.runner import SimResult
from repro.stats.counters import SIM_STAT_FIELDS, SimStats
from repro.vp.base import ConfidenceCounter, ValuePredictor
from repro.workloads.suite import workload_names


class TestExperimentKnobs:
    def test_default_workloads_all(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKLOADS", raising=False)
        assert len(workload_names()[:settings.get("REPRO_WORKLOADS")]) == 65
        monkeypatch.setenv("REPRO_WORKLOADS", "all")
        assert settings.get("REPRO_WORKLOADS") is None

    def test_default_workloads_limited(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOADS", "5")
        assert len(workload_names()[:settings.get("REPRO_WORKLOADS")]) == 5

    def test_default_length_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LENGTH", "4242")
        assert settings.get("REPRO_LENGTH") == 4242

    def test_default_warmup_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARMUP", "7")
        assert settings.get("REPRO_WARMUP") == 7

    def test_mean_fraction_empty(self):
        assert experiments.mean_fraction({}, "useful") == 0.0


class TestConfidenceCounter:
    def test_deterministic_saturation(self):
        counter = ConfidenceCounter(3, 1.0, random.Random(1))
        for _ in range(3):
            counter.strengthen()
        assert counter.saturated
        counter.strengthen()  # saturating, not wrapping
        assert counter.value == 3

    def test_probabilistic_is_slow(self):
        counter = ConfidenceCounter(3, 0.01, random.Random(1))
        for _ in range(5):
            counter.strengthen()
        assert not counter.saturated

    def test_reset(self):
        counter = ConfidenceCounter(3, 1.0, random.Random(1))
        counter.strengthen()
        counter.reset()
        assert counter.value == 0


class TestValuePredictorBase:
    def test_validate_blacklists(self):
        vp = ValuePredictor(quiet_config(vp={"enabled": True}))
        class Dyn:
            pc = 0x40
            vp_value = 5
        assert vp.validate(Dyn(), 5)
        assert not vp.is_blacklisted(0x40)
        assert not vp.validate(Dyn(), 6)
        assert vp.is_blacklisted(0x40)

    def test_blacklist_decays(self):
        vp = ValuePredictor(quiet_config(vp={"enabled": True}))
        vp.blacklist[0x40] = 2
        vp.decay_blacklist(0x40)
        assert vp.is_blacklisted(0x40)
        vp.decay_blacklist(0x40)
        assert not vp.is_blacklisted(0x40)

    def test_default_hooks_are_noops(self):
        vp = ValuePredictor(quiet_config(vp={"enabled": True}))
        assert vp.on_load_dispatch(None, 0, 0) == (False, 0)
        assert vp.wants_validation_access(None)
        assert vp.retire_reexecute_penalty(None) == 0


class TestSimStats:
    def test_ipc_zero_cycles(self):
        assert SimStats().ipc == 0.0

    def test_avg_load_latency(self):
        """The load-latency sum and count reach the counter snapshot a
        result's average load latency is computed from."""
        stats = SimStats()
        stats.load_latency_sum = 50
        stats.load_latency_count = 10
        counters = stats.counters()
        assert counters["load_latency_sum"] / counters["load_latency_count"] \
            == 5.0

    def test_as_dict_has_derived_fields(self):
        """The snapshot holds every raw counter and no derived metric."""
        data = SimStats().counters()
        assert set(data) == set(SIM_STAT_FIELDS)
        assert "ipc" not in data


class TestRFPStats:
    def test_coverage(self):
        stats = RFPStats()
        stats.useful = 5
        rfp = stats.as_dict()
        assert SimResult({"stats": {"loads": 10}, "rfp": rfp}).coverage == 0.5
        assert SimResult({"stats": {"loads": 10}}).coverage == 0.0
        empty = RFPStats().as_dict()
        assert SimResult({"stats": {"loads": 0}, "rfp": empty}).coverage == 0.0

    def test_as_dict_roundtrip(self):
        stats = RFPStats()
        stats.injected = 3
        assert stats.as_dict()["injected"] == 3


class TestOracleConfigIsolation:
    def test_oracle_does_not_mutate_base(self):
        base = baseline()
        oracle = oracle_config(base, "l1_to_rf")
        assert base.oracle_overrides == {}
        assert oracle.oracle_overrides == {"L1": 1}

    def test_each_mode_distinct_name(self):
        base = baseline()
        names = {oracle_config(base, m).name
                 for m in ("l1_to_rf", "l2_to_l1", "llc_to_l2", "mem_to_llc")}
        assert len(names) == 4
