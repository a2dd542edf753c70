"""Interval sampling: CI math, plan geometry, degeneracy, determinism.

The contract under test: the scipy-free Student-t arithmetic matches the
printed tables, the sampling plan degenerates to today's two-speed single
window at ``--sample 1`` (measured counters *exactly* equal to
``simulate``), adaptive early stop is a deterministic function of the
interval IPC sequence (serial early-stopped == parallel run-them-all), and
a sampled suite is byte-identical between ``--jobs 1`` and ``--jobs 4``
even with the RFP tables' RNG streams in play.
"""

import json
import math

import pytest

from conftest import quiet_config

from repro.core.config import baseline
from repro.sim.cache import ResultCache
from repro.sim.parallel import run_jobs, run_matrix
from repro.sim.runner import simulate, simulate_interval, simulate_sampled
from repro.sim.sampling import (
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
                        "ci_target": None, "confidence": 0.95,
                        "min_samples": 3}

    def test_validation(self):
        with pytest.raises(ValueError, match="samples"):
            normalize_spec({"samples": 0})
        with pytest.raises(ValueError, match="interval_length"):
            normalize_spec({"samples": 2, "interval_length": 0})
        with pytest.raises(ValueError, match="ci_target"):
            normalize_spec({"samples": 2, "ci_target": 1.5})
        with pytest.raises(ValueError, match="confidence"):
            normalize_spec({"samples": 2, "confidence": 0.85})

    def test_suffix_is_distinct_and_filesystem_safe(self):
        a = sampling_suffix({"samples": 8})
        b = sampling_suffix({"samples": 8, "interval_length": 600})
        c = sampling_suffix({"samples": 8, "ci_target": 0.01})
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
        assert plan.ramps == [config.ff_detail_ramp] * 4
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
        assert sampling_applies(quiet_config(), traced=False)
        assert not sampling_applies(quiet_config(), traced=True)
        assert not sampling_applies(
            quiet_config(vp={"enabled": True, "kind": "eves"}), traced=False)

    def test_env_kill_switch_forces_full_detail(self, monkeypatch):
        monkeypatch.setenv("REPRO_FF", "0")
        plan = SamplingPlan(quiet_config(), LENGTH, WARM, {"samples": 2})
        assert plan.functionals == [0, 0]

    def test_too_many_intervals_rejected(self):
        with pytest.raises(ValueError, match="cannot place"):
            SamplingPlan(quiet_config(), LENGTH, WARM, {"samples": 5000})


# ---------------------------------------------------------------------------
# aggregation and the adaptive stop


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

    def test_adaptive_stop_is_prefix_deterministic(self):
        """The rule consumes intervals in index order: aggregating the full
        list and aggregating only the surviving prefix give the identical
        result — which is why parallel run-everything and serial
        early-stopped runs agree."""
        ipcs = [1.0, 1.01, 0.99, 5.0, 0.1]
        spec = {"samples": 5, "ci_target": 0.05}
        datas = [interval_data(i, ipc) for i, ipc in enumerate(ipcs)]
        full = aggregate_intervals(datas, spec)
        assert full["ipc_ci"]["intervals_used"] == 3  # stopped before 5.0
        assert full["ipc"] == pytest.approx(1.0, abs=0.01)
        prefix = aggregate_intervals(datas[:3], spec)
        assert full == prefix

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
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        config = quiet_config(rfp={"enabled": True})
        full = simulate(WORKLOAD, config, length=LENGTH, warmup=WARM)
        sampled = simulate_sampled(WORKLOAD, config, length=LENGTH,
                                   warmup=WARM, samples=1)
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

    @pytest.mark.parametrize("ci_target, intervals_used", [
        (0.2, 4),    # met after 4 of the 6 planned intervals
        (0.01, 6),   # never met: every planned interval is used
    ])
    def test_adaptive_early_stop_is_deterministic(self, tmp_path,
                                                  monkeypatch, ci_target,
                                                  intervals_used):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        config = quiet_config()
        spec = dict(samples=6, interval_length=400, ci_target=ci_target)
        once = simulate_sampled(WORKLOAD, config, length=LENGTH, warmup=WARM,
                                **spec)
        again = simulate_sampled(WORKLOAD, config, length=LENGTH, warmup=WARM,
                                 **spec)
        assert once.data == again.data
        assert once.data["ipc_ci"]["intervals_used"] == intervals_used
        # The parallel engine simulates every interval but aggregates with
        # the same deterministic truncation rule.
        (results,), _report = run_matrix(
            [config], [WORKLOAD], LENGTH, WARM,
            cache=ResultCache(str(tmp_path / "cache")), max_workers=2,
            sampling=spec)
        assert results[WORKLOAD].data == once.data

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
        the cell key carries the spec suffix and intervals are cached
        individually under ``-iNNN`` keys."""
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        cache = ResultCache(str(tmp_path / "cache"))
        config = quiet_config()
        jobs = [(WORKLOAD, config, LENGTH, WARM, {"samples": 2}),
                (WORKLOAD, config, LENGTH, WARM)]
        (sampled, plain), report = run_jobs(jobs, cache=cache, max_workers=1)
        assert "ipc_ci" in sampled.data and "ipc_ci" not in plain.data
        names = [p.split("/")[-1] for p in cache.entry_paths()]
        assert any("-sK2-" in n and "-i000" in n for n in names)
        assert any("-sK2-" in n and "-i001" in n for n in names)
        assert any("-sK2-" in n and "-i" not in n.split("-sK2-")[1]
                   for n in names)  # the aggregated cell entry

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
    """A sampled request that ``sampling_applies`` refuses (a VP config, or
    ``REPRO_TRACE`` set) runs the full window on every path: a sampled
    ``repro run`` and a sampled ``repro suite`` cell agree byte for byte."""

    VP = {"enabled": True, "kind": "eves"}

    def test_vp_request_is_the_full_window_on_every_path(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        config = baseline(vp=self.VP)
        sampled = simulate_sampled(WORKLOAD, config, length=LENGTH,
                                   warmup=WARM, samples=4)
        [swept], _ = run_jobs(
            [(WORKLOAD, config, LENGTH, WARM, {"samples": 4})],
            cache=ResultCache(str(tmp_path / "cache")), max_workers=1)
        full = simulate(WORKLOAD, config, length=LENGTH, warmup=WARM)
        assert "ipc_ci" not in full.data
        assert json.dumps(sampled.data) == json.dumps(full.data)
        assert json.dumps(swept.data) == json.dumps(full.data)

    @pytest.mark.parametrize("vp", [False, True], ids=["baseline", "vp"])
    def test_traced_request_writes_the_run_jobs_event_log(
            self, tmp_path, monkeypatch, vp):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        config = baseline(vp=self.VP) if vp else baseline()
        length, warmup = 2000, 1000
        logs, datas = {}, {}
        for path in ("sampled", "swept"):
            logs[path] = tmp_path / (path + ".jsonl")
            monkeypatch.setenv("REPRO_TRACE", str(logs[path]))
            if path == "sampled":
                result = simulate_sampled(WORKLOAD, config, length=length,
                                          warmup=warmup, samples=4)
            else:
                [result], _ = run_jobs(
                    [(WORKLOAD, config, length, warmup, {"samples": 4})],
                    cache=ResultCache(str(tmp_path / "cache")),
                    max_workers=1)
            assert "ipc_ci" not in result.data and "obs" in result.data
            datas[path] = json.dumps(result.data)
        assert datas["sampled"] == datas["swept"]
        assert logs["sampled"].stat().st_size > 0
        assert logs["sampled"].read_bytes() == logs["swept"].read_bytes()


# ---------------------------------------------------------------------------
# CLI plumbing


class TestCLI:
    def test_flags_parse_into_a_spec(self):
        from repro.__main__ import _sampling_from_args, build_parser
        parser = build_parser()
        args = parser.parse_args(
            ["run", WORKLOAD, "--sample", "8", "--interval-length", "600",
             "--ci-target", "0.01", "--confidence", "0.99"])
        assert _sampling_from_args(args) == {
            "samples": 8, "interval_length": 600, "ci_target": 0.01,
            "confidence": 0.99}
        bare = parser.parse_args(["run", WORKLOAD])
        assert _sampling_from_args(bare) is None
        suite = parser.parse_args(["suite", "--sample", "4"])
        assert _sampling_from_args(suite) == {"samples": 4}

    def test_run_command_prints_ci(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        from repro.__main__ import main
        code = main(["run", WORKLOAD, "--length", str(LENGTH),
                     "--warmup", str(WARM), "--sample", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "±" in out and "95% CI, n=3" in out
        assert "3 of 3 planned" in out
