"""Interval sampling: CI math, plan geometry, degeneracy, determinism.

The contract under test: the scipy-free Student-t arithmetic matches the
printed tables, the sampling plan degenerates to today's two-speed single
window at ``--sample 1`` (measured counters *exactly* equal to
``simulate``), a sampled suite is byte-identical between ``--jobs 1`` and
``--jobs 4`` even with the RFP tables' RNG streams in play, and a sampled
``repro run`` is a one-cell sweep.
"""

import json
import math
import re

import pytest

from conftest import quiet_config

from repro.core.config import baseline
from repro.sim.cache import ResultCache
from repro.sim.parallel import run_jobs, run_matrix
from repro.sim.runner import simulate, simulate_interval
from repro.sim.sampling import (
    FF_DETAIL_RAMP,
    SamplingPlan,
    aggregate_intervals,
    mean_ci,
    normalize_spec,
    sampling_applies,
    sampling_suffix,
    t_critical,
)
from repro.stats.report import format_ipc_ci

WORKLOAD = "spec06_mcf"
LENGTH = 4000
WARM = 2000


# ---------------------------------------------------------------------------
# Student-t arithmetic against printed-table reference values


class TestTCritical:
    def test_table_values(self):
        assert t_critical(1, 0.95) == 12.706
        assert t_critical(5, 0.95) == 2.571
        assert t_critical(10, 0.95) == 2.228
        assert t_critical(30, 0.95) == 2.042
        assert t_critical(40, 0.95) == 2.021
        assert t_critical(120, 0.95) == 1.980
        assert t_critical(5, 0.90) == 2.015
        assert t_critical(5, 0.99) == 4.032

    def test_untabulated_df_rounds_down_conservatively(self):
        assert t_critical(35, 0.95) == t_critical(30, 0.95)
        assert t_critical(119, 0.95) == t_critical(100, 0.95)
        assert t_critical(10_000, 0.95) == 1.960
        assert t_critical(10_000, 0.99) == 2.576

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="df >= 1"):
            t_critical(0, 0.95)
        with pytest.raises(ValueError, match="confidence"):
            t_critical(5, 0.80)


class TestMeanCI:
    def test_reference_value(self):
        # mean 3, s^2 = 2.5, half = t(4) * sqrt(2.5/5) = 2.776 * 0.70711
        mean, half = mean_ci([1.0, 2.0, 3.0, 4.0, 5.0])
        assert mean == 3.0
        assert half == pytest.approx(2.776 * math.sqrt(0.5), rel=1e-12)

    def test_constant_sample_has_zero_width(self):
        mean, half = mean_ci([2.0, 2.0, 2.0, 2.0])
        assert (mean, half) == (2.0, 0.0)

    def test_single_value_has_no_width(self):
        assert mean_ci([1.5]) == (1.5, None)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci([])


class TestSpec:
    def test_defaults(self):
        spec = normalize_spec({"samples": 8})
        assert spec == {"samples": 8, "interval_length": None,
                        "confidence": 0.95}

    def test_validation(self):
        with pytest.raises(ValueError, match="samples"):
            normalize_spec({"samples": 0})
        with pytest.raises(ValueError, match="interval_length"):
            normalize_spec({"samples": 2, "interval_length": 0})
        with pytest.raises(ValueError, match="confidence"):
            normalize_spec({"samples": 2, "confidence": 0.85})

    @pytest.mark.parametrize("stale", ["target", "sample"])
    def test_unknown_key_is_refused(self, stale):
        """A field the spec no longer has fails loudly, not silently."""
        with pytest.raises(ValueError, match="unknown sampling spec key"):
            normalize_spec({"samples": 2, stale: 1})

    def test_suffix_is_distinct_and_filesystem_safe(self):
        a = sampling_suffix({"samples": 8})
        b = sampling_suffix({"samples": 8, "interval_length": 600})
        c = sampling_suffix({"samples": 8, "confidence": 0.99})
        assert len({a, b, c}) == 3
        for suffix in (a, b, c):
            assert "/" not in suffix and " " not in suffix


# ---------------------------------------------------------------------------
# plan geometry


class TestSamplingPlan:
    def test_systematic_placement(self):
        config = quiet_config()
        plan = SamplingPlan(config, 40000, 20000, {"samples": 4})
        assert plan.stride == 5000
        assert plan.starts == [20000, 25000, 30000, 35000]
        assert plan.ramps == [FF_DETAIL_RAMP] * 4
        assert plan.functionals == [19500, 24500, 29500, 34500]
        assert plan.measure == 5000
        assert plan.checkpoint_positions() == [19500, 24500, 29500, 34500]

    def test_interval_length_clamped_to_stride(self):
        plan = SamplingPlan(quiet_config(), 40000, 20000,
                            {"samples": 4, "interval_length": 99999})
        assert plan.measure == plan.stride

    def test_vp_config_falls_back_to_full_detail(self):
        config = quiet_config(vp={"enabled": True, "kind": "eves"})
        plan = SamplingPlan(config, LENGTH, WARM, {"samples": 2})
        assert plan.functionals == [0, 0]
        assert plan.ramps == plan.starts
        assert plan.checkpoint_positions() == []

    def test_sampling_applies(self):
        assert sampling_applies(quiet_config())
        assert not sampling_applies(
            quiet_config(vp={"enabled": True, "kind": "eves"}))

    def test_env_kill_switch_forces_full_detail(self, monkeypatch):
        monkeypatch.delenv("REPRO_FF", raising=False)
        earlier = quiet_config()
        monkeypatch.setenv("REPRO_FF", "0")
        plan = SamplingPlan(quiet_config(), LENGTH, WARM, {"samples": 2})
        assert plan.functionals == [0, 0]
        # The plan reads the config, built before the setting was set.
        plan = SamplingPlan(earlier, LENGTH, WARM, {"samples": 2})
        assert plan.ramps == [FF_DETAIL_RAMP] * 2

    def test_too_many_intervals_rejected(self):
        with pytest.raises(ValueError, match="cannot place"):
            SamplingPlan(quiet_config(), LENGTH, WARM, {"samples": 5000})


# ---------------------------------------------------------------------------
# aggregation


def interval_data(index, ipc, cycles=1000):
    instructions = int(round(ipc * cycles))
    return {
        "workload": "w", "category": "T", "config": "baseline",
        "cycles": cycles, "instructions": instructions, "ipc": ipc,
        "stats": {"instructions": instructions, "loads": 100},
        "loads_served": {"L1": 80, "DRAM": 20},
        "total_cycles": 2 * cycles, "total_instructions": 2 * instructions,
        "fast_forward": {"enabled": True, "functional_instructions": 1500,
                         "detailed_warmup": 500},
        "idle_skipped_cycles": 3,
        "interval": {"index": index, "start": 2000 + 500 * index,
                     "measure": 500, "ramp": 500},
    }


class TestAggregateIntervals:
    def test_sums_and_mean(self):
        datas = [interval_data(i, ipc) for i, ipc in
                 enumerate([1.0, 2.0, 3.0])]
        out = aggregate_intervals(datas, {"samples": 3})
        assert out["ipc"] == 2.0
        assert out["cycles"] == 3000
        assert out["stats"]["loads"] == 300
        assert out["loads_served"] == {"L1": 240, "DRAM": 60}
        assert out["ipc_ci"]["intervals_used"] == 3
        assert out["ipc_ci"]["half_width"] == pytest.approx(
            4.303 * 1.0 / math.sqrt(3))
        assert [iv["index"] for iv in out["intervals"]] == [0, 1, 2]

    def test_single_interval_has_no_ci_width(self):
        out = aggregate_intervals([interval_data(0, 1.5)], {"samples": 1})
        assert out["ipc_ci"]["half_width"] is None
        assert format_ipc_ci(out) == "1.500"

    def test_format_ipc_ci_renders_interval(self):
        datas = [interval_data(i, ipc) for i, ipc in
                 enumerate([1.0, 2.0, 3.0])]
        out = aggregate_intervals(datas, {"samples": 3})
        assert format_ipc_ci(out) == "2.000 ± 2.484 (95% CI, n=3)"
        plain = {"ipc": 1.234}
        assert format_ipc_ci(plain) == "1.234"


# ---------------------------------------------------------------------------
# end-to-end degeneracy and determinism


class TestSampledRuns:
    def test_sample_one_degenerates_to_simulate(self, tmp_path, monkeypatch):
        """--sample 1 must reproduce today's single-window result exactly:
        same measured cycles, instructions, per-counter stats."""
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        config = quiet_config(rfp={"enabled": True})
        full = simulate(WORKLOAD, config, length=LENGTH, warmup=WARM)
        [sampled], _ = run_jobs(
            [(WORKLOAD, config, LENGTH, WARM, {"samples": 1})],
            cache=ResultCache(str(tmp_path / "cache")), max_workers=1)
        for key in ("ipc", "cycles", "instructions", "stats",
                    "loads_served", "rfp", "fast_forward"):
            assert sampled.data[key] == full.data[key], key
        assert sampled.data["ipc_ci"]["half_width"] is None

    @pytest.mark.parametrize("overrides", [
        {}, {"rfp": {"enabled": True}},
        {"vp": {"enabled": True, "kind": "composite"}},
        {"fast_forward": False},
    ], ids=["baseline", "rfp", "vp-composite", "no-ff"])
    def test_simulate_is_its_one_sample_interval(self, overrides):
        """simulate runs the one-sample plan through the same window tail
        as simulate_interval: equal data but for the interval field."""
        config = quiet_config(**overrides)
        plan = SamplingPlan(config, LENGTH, WARM, {"samples": 1})
        interval = simulate_interval(
            WORKLOAD, config, length=LENGTH, start=plan.starts[0],
            measure=plan.measure, ramp=plan.ramps[0], checkpoint_store=None)
        assert interval.data.pop("interval")["checkpoint"] == "off"
        full = simulate(WORKLOAD, config, length=LENGTH, warmup=WARM)
        assert interval.data == full.data

    def test_serial_and_parallel_runs_byte_identical(self, tmp_path,
                                                     monkeypatch):
        """Seeded harness: with the RFP RNG streams in play, a sampled
        suite is byte-identical between 1 and 4 workers."""
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        config = quiet_config(rfp={"enabled": True})
        spec = {"samples": 4, "interval_length": 300}
        (serial,), _ = run_matrix(
            [config], [WORKLOAD, "tpce"], LENGTH, WARM,
            cache=ResultCache(str(tmp_path / "c1")), max_workers=1,
            sampling=spec)
        (parallel,), _ = run_matrix(
            [config], [WORKLOAD, "tpce"], LENGTH, WARM,
            cache=ResultCache(str(tmp_path / "c2")), max_workers=4,
            sampling=spec)
        for name in (WORKLOAD, "tpce"):
            assert json.dumps(serial[name].data, sort_keys=True) == \
                json.dumps(parallel[name].data, sort_keys=True)

    def test_cache_keys_carry_sampling_suffix(self, tmp_path, monkeypatch):
        """Sampled and full-detail results for the same cell never collide:
        the cell key carries the spec suffix.  The cache holds the two
        cells and nothing else: intervals are never cached."""
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        cache = ResultCache(str(tmp_path / "cache"))
        config = quiet_config()
        jobs = [(WORKLOAD, config, LENGTH, WARM, {"samples": 2}),
                (WORKLOAD, config, LENGTH, WARM)]
        (sampled, plain), report = run_jobs(jobs, cache=cache, max_workers=1)
        assert "ipc_ci" in sampled.data and "ipc_ci" not in plain.data
        assert report.jobs_simulated == 3  # two intervals, one full window
        names = [p.split("/")[-1] for p in cache.entry_paths()]
        assert len(names) == 2
        assert not [n for n in names if re.search(r"-i\d{3}", n)]
        assert len([n for n in names if "-sK2-" in n]) == 1

    def test_vp_config_silently_runs_full_detail(self, tmp_path):
        config = quiet_config(vp={"enabled": True, "kind": "eves"})
        (results,), _report = run_matrix(
            [config], [WORKLOAD], LENGTH, WARM,
            cache=ResultCache(str(tmp_path / "cache")), max_workers=1,
            sampling={"samples": 4})
        data = results[WORKLOAD].data
        assert "ipc_ci" not in data
        assert data == simulate(WORKLOAD, config, length=LENGTH,
                                warmup=WARM).data


class TestRefusedSampling:
    """A sampled request that ``sampling_applies`` refuses (a VP config)
    runs the full window: the sweep cell equals a plain :func:`simulate`
    of it byte for byte."""

    VP = {"enabled": True, "kind": "eves"}

    def test_vp_request_is_the_full_window_on_every_path(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        config = baseline(vp=self.VP)
        [swept], _ = run_jobs(
            [(WORKLOAD, config, LENGTH, WARM, {"samples": 4})],
            cache=ResultCache(str(tmp_path / "cache")), max_workers=1)
        full = simulate(WORKLOAD, config, length=LENGTH, warmup=WARM)
        assert "ipc_ci" not in full.data
        assert json.dumps(swept.data) == json.dumps(full.data)


# ---------------------------------------------------------------------------
# CLI plumbing


class TestCLI:
    def test_flags_parse_into_a_spec(self):
        from repro.__main__ import _sampling_from_args, build_parser
        parser = build_parser()
        args = parser.parse_args(
            ["run", WORKLOAD, "--sample", "8", "--interval-length", "600",
             "--confidence", "0.99"])
        assert _sampling_from_args(args) == {
            "samples": 8, "interval_length": 600, "confidence": 0.99}
        bare = parser.parse_args(["run", WORKLOAD])
        assert _sampling_from_args(bare) is None
        suite = parser.parse_args(["suite", "--sample", "4"])
        assert _sampling_from_args(suite) == {"samples": 4}

    def test_run_command_prints_ci(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.__main__ import main
        code = main(["run", WORKLOAD, "--length", str(LENGTH),
                     "--warmup", str(WARM), "--sample", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "±" in out and "95% CI, n=3" in out

    def test_sampled_run_is_a_sweep_cell(self, tmp_path, monkeypatch, capsys):
        """``repro run --sample`` is a one-cell :func:`run_matrix` sweep: it
        prints the sweep's IPC ± CI, and a repeat is a result-cache hit."""
        from repro.__main__ import main
        from repro.sim import parallel
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        argv = ["run", WORKLOAD, "--length", str(LENGTH),
                "--warmup", str(WARM), "--sample", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        (swept,), _ = run_matrix(
            [baseline()], [WORKLOAD], LENGTH, WARM,
            cache=ResultCache(str(tmp_path / "sweep-cache")), max_workers=1,
            sampling={"samples": 3})
        [ipc_row] = [line for line in first.splitlines()
                     if line.split("|")[0].strip() == "IPC"]
        assert ipc_row.split("|")[1].strip() == format_ipc_ci(
            swept[WORKLOAD].data)

        def no_simulation(_item):
            raise AssertionError("a cached cell was simulated again")

        monkeypatch.setattr(parallel, "_run_job", no_simulation)
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        with pytest.raises(ValueError, match="unknown sampling spec key"):
            run_matrix([baseline()], [WORKLOAD], LENGTH, WARM,
                       cache=ResultCache(str(tmp_path / "sweep-cache")),
                       max_workers=1, sampling={"samples": 3, "target": 0.2})
