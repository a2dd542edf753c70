"""Checks on the benchmark itself (not part of the tier-1 suite).

Run with ``python -m pytest benchmarks/perf -q`` from the repository root.
The shape tests run a reduced session (2 workloads, trace length 4000)
through the same sweep processes as the real benchmark, ~15 s.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare
import run
import spans

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def reduced():
    return run.session(runs=1, names=("spec06_gcc", "memcached"), length=4000, warmup=2000)


def test_declared_metric_names_are_valid_and_unique():
    end_to_end, per_layer = run.declared()
    names = [d["name"] for d in end_to_end + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in end_to_end


def test_reduced_session_passes_every_check(reduced):
    assert reduced["errors"] == []
    digests = {w: entry["digest"] for w, entry in reduced["workloads"].items()}
    assert digests["sweep-sampled-cold"] == digests["sweep-sampled-warm-j2"]
    assert digests["fig10-full"] != digests["sweep-sampled-cold"]
    for entry in reduced["workloads"].values():
        assert entry["attempted"] > 0 and entry["failed"] == 0


def test_every_emitted_metric_is_declared(reduced):
    end_to_end, per_layer = run.declared()
    for entry in reduced["workloads"].values():
        assert set(entry["e2e"]) == {d["name"] for d in end_to_end}
        assert set(entry["layers"]) == {d["name"] for d in per_layer}
        assert entry["missing"] == []


def test_two_worker_span_merge_matches_serial(reduced):
    cold = reduced["workloads"]["sweep-sampled-cold"]["layers"]
    warm = reduced["workloads"]["sweep-sampled-warm-j2"]["layers"]
    assert warm["parallel.workers"] == 2 and cold["parallel.workers"] == 1
    assert warm["core.cycles_stepped"] == cold["core.cycles_stepped"] > 0
    assert warm["parallel.jobs"] == cold["parallel.jobs"] == 2 * 6 * 4
    # The warm run restores every interval and never warms functionally.
    assert warm["emu.warm_passes"] == 0 and warm["checkpoint.hit_ratio"] == 1.0
    assert cold["emu.warm_passes"] > 0 and cold["checkpoint.puts"] > 0


def test_missing_span_target_warns_and_reads_zero(monkeypatch):
    monkeypatch.setattr(
        spans,
        "TARGETS",
        (("json", "no_such_function", "x.y", None), ("no_such_module", "f", "x.z", None)),
    )
    recorder = spans.SpanRecorder()
    with pytest.warns(RuntimeWarning, match="missing"):
        missing = recorder.install()
    assert missing == ["json.no_such_function", "no_such_module.f"]
    assert spans.layer_metrics(recorder, 1.0, 1)["core.run_s"] == 0.0


def test_history_record_is_normalised(reduced):
    record = run.history_record(reduced)
    for entry in record["workloads"].values():
        assert entry["sweep_per_calib"] > 0
    json.dumps(record)


@pytest.mark.parametrize(
    "base, new, better, bound, expected",
    [
        ([10.0, 10.1, 9.9, 10.0, 10.05], [9.0, 9.1, 8.9, 9.0, 9.05], "lower", 0.1, "improved"),
        ([10.0, 10.1, 9.9, 10.0, 10.05], [12.0, 12.1, 11.9, 12.0, 12.05], "lower", 0.1, "worse"),
        ([10.0, 13.0, 7.0, 11.0, 9.0], [10.5, 7.5, 12.5, 9.5, 10.0], "lower", 0.1, "unresolved"),
        ([10.0, 10.1, 9.9, 10.0, 10.05], [10.02, 10, 10.1, 9.95, 10], "lower", 0.1, "unchanged"),
        ([1.5, 1.5], [1.5, 1.5], "lower", 0.01, "unchanged"),
        ([2.0, 2.0, 2.0], [1.0, 1.0, 1.0], "higher", 0.1, "worse"),
    ],
)
def test_compare_verdicts(base, new, better, bound, expected):
    assert compare.verdict(base, new, better, bound) == expected


def test_compare_exits_nonzero_on_worse(tmp_path):
    end_to_end, _ = run.declared()

    def session(scale):
        e2e = {d["name"]: [scale * v for v in (1.0, 1.01, 0.99)] for d in end_to_end}
        return {"workloads": {"fig10-full": {"e2e": e2e, "digest": "x"}}}

    paths = []
    for name, scale in (("base", 1.0), ("new", 2.0)):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(session(scale)))
        paths.append(str(path))
    assert compare.main(["compare.py", paths[0], paths[0]]) == 0
    assert compare.main(["compare.py", paths[0], paths[1]]) == 1


def test_fails_without_simulator_sources(tmp_path):
    root = run.ROOT
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "perf")
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "fig10-full", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
