"""The observability layer: tracer, metrics, exporters, trace CLI.

Covers the contracts the layer advertises: per-instruction events arrive in
pipeline order under the exporter's sort, the disabled path (tracer=None)
changes nothing about simulation results, JSONL round-trips losslessly,
histogram percentiles are exact nearest-rank, and the ``trace`` subcommand's
cycle-range / load filters behave.
"""

import json

import pytest

from conftest import quiet_config

from repro.obs.events import (
    COMMIT,
    DISPATCH,
    EVENT_TYPES,
    FETCH,
    STAGE_RANK,
    WRITEBACK,
)
from repro.obs.export import (
    dump_jsonl,
    pipeline_view,
    sort_events,
    window_events,
    write_jsonl,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracer import Tracer, parse_cycle_range
from repro.sim.runner import simulate

WORKLOAD = "spec06_mcf"
LENGTH = 3000


def rfp_config():
    return quiet_config(rfp={"enabled": True})


def read_events(path):
    """Parse a JSONL event file, one event per non-blank line."""
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def traced_run(config=None, **tracer_kwargs):
    tracer = Tracer(**tracer_kwargs)
    result = simulate(WORKLOAD, config or rfp_config(), length=LENGTH,
                      warmup=0, tracer=tracer)
    return tracer, result


class TestEventOrdering:
    def test_per_seq_events_follow_pipeline_order(self):
        tracer, _ = traced_run()
        events = sort_events(tracer.events)
        assert events
        by_seq = {}
        for event in events:
            if event["seq"] >= 0:
                by_seq.setdefault(event["seq"], []).append(event)
        stage_events = (FETCH, "rename", DISPATCH, "issue", "execute",
                        WRITEBACK, COMMIT)
        for seq, seq_events in by_seq.items():
            stages = [e["ev"] for e in seq_events if e["ev"] in stage_events]
            ranks = [STAGE_RANK[s] for s in stages]
            assert ranks == sorted(ranks), "seq %d out of order: %s" % (seq, stages)

    def test_sort_is_total_and_stable(self):
        tracer, _ = traced_run()
        once = sort_events(tracer.events)
        twice = sort_events(list(reversed(once)))
        assert once == twice

    def test_every_committed_instruction_has_a_commit_event(self):
        tracer, result = traced_run()
        commits = [e for e in tracer.events if e["ev"] == COMMIT]
        assert len(commits) == result.data["instructions"]

    def test_event_types_cover_stage_rank(self):
        assert set(STAGE_RANK) == set(EVENT_TYPES)


class TestDisabledPath:
    def test_results_identical_with_and_without_tracer(self):
        plain = simulate(WORKLOAD, rfp_config(), length=LENGTH, warmup=0)
        tracer, traced = traced_run()
        data = dict(traced.data)
        assert data.pop("obs", None) is not None
        # Tracing forces full-detail execution (no fast-forward, no
        # idle-cycle skipping) so the event log is complete; strip the
        # execution-mode metadata and require every *measured* field —
        # stats, cycles, IPC — to be identical.
        plain_data = dict(plain.data)
        assert plain_data.pop("idle_skipped_cycles") >= 0
        assert data.pop("idle_skipped_cycles") == 0
        assert plain_data.pop("fast_forward")["enabled"] is False
        assert data.pop("fast_forward")["enabled"] is False
        assert plain_data == data
        assert "obs" not in plain.data


class TestFilters:
    def test_cycle_window_bounds_events(self):
        tracer, _ = traced_run()
        windowed = window_events(sort_events(tracer.events), (240, 400))
        assert windowed
        assert all(240 <= e["cycle"] <= 400 for e in windowed)
        assert window_events(tracer.events, None) is tracer.events

    def test_loads_only_keeps_load_pipeline_events(self):
        tracer, _ = traced_run(loads_only=True)
        renames = [e for e in tracer.events if e["ev"] == "rename"]
        assert renames
        assert all(e["op"] == "load" for e in renames)

    def test_metrics_count_filtered_events(self):
        """The cycle window filters the rendered log, not the counters:
        the tracer counts every event it records."""
        tracer, _ = traced_run()
        commits = [e for e in tracer.events if e["ev"] == COMMIT]
        assert tracer.metrics.counters["events.commit"] == len(commits)
        assert len(window_events(tracer.events, (0, 10))) < len(tracer.events)

    def test_parse_cycle_range(self):
        assert parse_cycle_range("") is None
        assert parse_cycle_range("100:200") == (100, 200)
        assert parse_cycle_range(":200") == (0, 200)
        assert parse_cycle_range("100:") == (100, None)
        with pytest.raises(ValueError):
            parse_cycle_range("100")
        with pytest.raises(ValueError):
            parse_cycle_range("200:100")


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tracer, _ = traced_run()
        events = sort_events(tracer.events)
        path = str(tmp_path / "events.jsonl")
        write_jsonl(events, path)
        assert read_events(path) == events

    def test_dump_is_deterministic_and_key_sorted(self):
        tracer, _ = traced_run()
        text = dump_jsonl(sort_events(tracer.events))
        assert text == dump_jsonl(sort_events(list(reversed(tracer.events))))
        first = json.loads(text.splitlines()[0])
        assert list(first) == sorted(first)


class TestHistograms:
    def test_nearest_rank_percentiles(self):
        hist = Histogram("h")
        for value in range(1, 101):   # 1..100, one each
            hist.record(value)
        assert hist.percentile(50) == 50
        assert hist.percentile(90) == 90
        assert hist.percentile(99) == 99
        assert hist.percentile(100) == 100
        assert hist.mean == pytest.approx(50.5)

    def test_skewed_distribution(self):
        hist = Histogram("h")
        for _ in range(99):
            hist.record(1)
        hist.record(1000)
        assert hist.percentile(50) == 1
        assert hist.percentile(99) == 1
        assert hist.percentile(100) == 1000

    def test_empty_histogram_snapshot(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0

    def test_registry_snapshot_sorted(self):
        registry = MetricsRegistry()
        registry.inc("b")
        registry.inc("a", 2)
        registry.histogram("z").record(5)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["counters"]["a"] == 2
        assert snap["histograms"]["z"]["count"] == 1

    def test_simulation_populates_histograms(self):
        tracer, result = traced_run()
        obs = result.data["obs"]
        assert obs["histograms"]["load_to_use_latency"]["count"] > 0
        assert obs["histograms"]["rob_occupancy"]["count"] > 0
        assert obs["counters"]["events.commit"] > 0


class TestTraceCli:
    def run_cli(self, capsys, *extra):
        from repro.__main__ import main
        code = main(["trace", WORKLOAD, "--length", str(LENGTH),
                     "--warmup", "0", "--rfp"] + list(extra))
        captured = capsys.readouterr()
        return code, captured.out

    def test_pipeline_view_default(self, capsys):
        code, out = self.run_cli(capsys)
        assert code == 0
        assert "cycles" in out and "seq" in out

    def test_cycle_range_windows_jsonl(self, capsys):
        code, out = self.run_cli(capsys, "--format", "jsonl",
                                 "--cycles", "240:400")
        assert code == 0
        cycles = [json.loads(line)["cycle"]
                  for line in out.splitlines() if line.strip()]
        assert cycles
        assert all(240 <= c <= 400 for c in cycles)

    def test_load_filter(self, capsys):
        code, out = self.run_cli(capsys, "--format", "jsonl",
                                 "--filter", "loads")
        assert code == 0
        ops = [json.loads(line).get("op")
               for line in out.splitlines() if line.strip()]
        assert set(op for op in ops if op is not None) == {"load"}

    def test_bad_cycle_range_is_an_error(self, capsys):
        code, _ = self.run_cli(capsys, "--cycles", "nope")
        assert code == 2

    def test_out_file(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        code, out = self.run_cli(capsys, "--format", "jsonl", "-o", path)
        assert code == 0
        assert path in out
        assert read_events(path)


class TestPipelineView:
    def test_renders_stage_letters(self):
        tracer, _ = traced_run()
        view = pipeline_view(sort_events(tracer.events), cycle_range=(0, 120))
        assert "seq" in view
        assert "F" in view or "C" in view

    def test_empty_events(self):
        assert pipeline_view([]) == "(no events)"

    def test_width_cap(self):
        tracer, _ = traced_run()
        view = pipeline_view(sort_events(tracer.events), max_width=80)
        assert "(truncated)" in view
