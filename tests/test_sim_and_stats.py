"""Runner, result cache, oracle configs, reporting, storage arithmetic."""

import math

import pytest

from conftest import quiet_config

from repro.core.config import RFPConfig, baseline, baseline_2x
from repro.rfp.storage import pt_entry_bits, storage_report
from repro.sim.cache import ResultCache, config_fingerprint
from repro.sim.experiments import suite_speedup
from repro.sim.parallel import run_jobs
from repro.sim.runner import SimResult, simulate
from repro.stats.report import format_table, geomean, percent, speedup


class TestConfig:
    def test_baseline_validates(self):
        baseline().validate()
        baseline_2x().validate()

    def test_evolve_nested_rfp(self):
        config = baseline(rfp={"enabled": True, "pt_entries": 2048})
        assert config.rfp.enabled and config.rfp.pt_entries == 2048
        assert baseline().rfp.enabled is False  # no aliasing

    def test_evolve_does_not_share_nested(self):
        a = baseline()
        b = a.evolve(rfp={"enabled": True})
        assert a.rfp is not b.rfp
        assert not a.rfp.enabled

    def test_validate_rejects_bad_latency(self):
        with pytest.raises(ValueError):
            baseline(l1_latency=2, sched_latency=3)

    def test_validate_rejects_zero_width(self):
        with pytest.raises(ValueError):
            baseline(fetch_width=0)

    def test_2x_doubles_resources(self):
        b, b2 = baseline(), baseline_2x()
        assert b2.fetch_width == 2 * b.fetch_width
        assert b2.rob_entries == 2 * b.rob_entries
        assert b2.load_ports == 2 * b.load_ports

    def test_table2_rows(self):
        rows = baseline().table2_rows()
        assert any("L1D" in name for name, _ in rows)
        assert len(rows) >= 10


class TestRunner:
    def test_simulate_by_name(self):
        result = simulate("spec06_bzip2", quiet_config(), length=1500, warmup=300)
        assert result.workload == "spec06_bzip2"
        assert result.category == "ISPEC06"
        assert result.ipc > 0

    def test_warmup_window_excluded(self):
        result = simulate("spec06_bzip2", quiet_config(), length=1500, warmup=300)
        assert result.data["instructions"] == result.data["total_instructions"] - 300

    def test_rfp_fractions(self):
        config = quiet_config(rfp={"enabled": True,
                                   "confidence_increment_prob": 1.0})
        result = simulate("spec06_hmmer", config, length=2500, warmup=300)
        assert 0 <= result.coverage <= 1
        assert result.rfp_fraction("injected") >= result.rfp_fraction("executed")

    def test_load_distribution_sums_to_one(self):
        result = simulate("spec06_bzip2", quiet_config(), length=1500, warmup=0)
        assert abs(sum(result.load_distribution().values()) - 1.0) < 1e-9

    def test_as_dict_roundtrip(self):
        result = simulate("spec06_bzip2", quiet_config(), length=1200, warmup=0)
        clone = SimResult(result.as_dict())
        assert clone.ipc == result.ipc


class TestResultCache:
    def test_fingerprint_changes_with_config(self):
        assert config_fingerprint(baseline()) != config_fingerprint(
            baseline(rfp={"enabled": True}))

    def test_fingerprint_stable(self):
        assert config_fingerprint(baseline()) == config_fingerprint(baseline())

    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        jobs = [("spec06_bzip2", quiet_config(), 1200, 100)]
        [first], _ = run_jobs(jobs, cache=cache, max_workers=1)
        [second], report = run_jobs(jobs, cache=cache, max_workers=1)
        assert cache.hits == 1 and cache.misses == 1
        assert report.cache_hits == 1 and report.jobs_simulated == 0
        assert first.data == second.data

    def test_distinct_configs_distinct_keys(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        k1 = cache.key("w", baseline(), 100, 10)
        k2 = cache.key("w", baseline(rfp={"enabled": True}), 100, 10)
        assert k1 != k2


class TestReport:
    def test_geomean(self):
        assert abs(geomean([2.0, 8.0]) - 4.0) < 1e-12
        assert geomean([]) == 0.0

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_speedup(self):
        assert speedup(2.0, 1.0) == 2.0
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)

    def test_percent(self):
        assert percent(1.031) == "+3.10%"

    @staticmethod
    def results(ipcs, categories):
        return {name: SimResult({"ipc": ipc, "category": categories[name]})
                for name, ipc in ipcs.items()}

    def test_suite_speedup(self):
        categories = {"a": "X", "b": "X", "c": "Y"}
        per_workload, per_cat, overall = suite_speedup(
            self.results({"a": 1.1, "b": 1.2, "c": 2.0}, categories),
            self.results({"a": 1.0, "b": 1.0, "c": 1.0}, categories),
        )
        assert per_workload == {"a": 1.1, "b": 1.2, "c": 2.0}
        assert list(per_cat) == ["X", "Y"]
        assert abs(per_cat["X"] - math.sqrt(1.1 * 1.2)) < 1e-12
        assert per_cat["Y"] == 2.0
        assert abs(overall - (1.1 * 1.2 * 2.0) ** (1 / 3)) < 1e-12

    def test_suite_speedup_skips_one_sided_workloads(self):
        """A workload on only one side (a keep-going run dropped the other
        cell) is left out of every figure, whichever side it is on."""
        categories = {"a": "X", "b": "X", "c": "Y", "d": "Y"}
        per_workload, per_cat, overall = suite_speedup(
            self.results({"a": 1.1, "b": 1.2, "c": 2.0}, categories),
            self.results({"a": 1.0, "b": 1.0, "d": 1.0}, categories),
        )
        assert per_workload == {"a": 1.1, "b": 1.2}
        assert list(per_cat) == ["X"]
        assert abs(overall - math.sqrt(1.1 * 1.2)) < 1e-12

    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "333" in text


class TestStorage:
    def test_paper_table1_pt_sizes(self):
        """1K entries -> ~6.5KB, 2K -> ~12-13KB (paper Table 1)."""
        report_1k = storage_report(RFPConfig(pt_entries=1024))
        assert 6.0 <= report_1k["pt_kilobytes"] <= 7.0
        report_2k = storage_report(RFPConfig(pt_entries=2048))
        assert 12.0 <= report_2k["pt_kilobytes"] <= 14.0

    def test_pat_saves_about_half(self):
        report = storage_report(RFPConfig())
        assert 0.4 <= report["savings_vs_full_vaddr"] <= 0.6

    def test_pat_bits(self):
        report = storage_report(RFPConfig(pat_entries=64))
        assert report["pat_bits"] == 64 * 44

    def test_full_vaddr_entry_larger(self):
        config = RFPConfig()
        assert pt_entry_bits(config, use_pat=False) > pt_entry_bits(config, use_pat=True)

    def test_rows_structure(self):
        rows = storage_report(RFPConfig())["rows"]
        assert len(rows) == 4
        for name, fields, bits in rows:
            assert isinstance(bits, int) and bits >= 0
