"""The parallel suite execution engine and cache robustness.

Covers the guarantees the engine makes: parallel results byte-identical to
serial, in-flight deduplication, parent-only cache fills, corrupted cache
entries treated as misses and safely rewritten, and schema-versioned cache
keys.
"""

import collections
import gc
import json
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

from conftest import quiet_config

from repro.core.config import baseline
from repro.sim import cache as cache_mod
from repro.sim.cache import ResultCache, config_fingerprint
from repro.sim.faults import flip_envelope_field
from repro.sim.journal import HEADER_LEN, encode_envelope, read_envelope
from repro.sim import parallel, settings
from repro.sim.parallel import TimingReport, WorkerError, run_jobs, run_matrix
from repro.sim.runner import SimResult
from repro.sim.sampling import SamplingPlan
from repro.workloads import suite

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

WORKLOADS = ["spec06_bzip2", "spec06_mcf", "spec06_perlbench"]
LENGTH = 1200
WARMUP = 200


def small_jobs(config=None):
    config = config or quiet_config()
    return [(name, config, LENGTH, WARMUP) for name in WORKLOADS]


def run_first(config, cache=None):
    """The first workload's result through the one cached path (``cache``
    None = the shared cache over ``REPRO_CACHE_DIR``)."""
    [result], _ = run_jobs(small_jobs(config)[:1], cache=cache, max_workers=1)
    return result


class TestDeterminism:
    def test_parallel_matches_serial(self, tmp_path):
        """run_matrix on the shard pool and in-process: identical data."""
        (serial,), _ = run_matrix(
            [quiet_config()], WORKLOADS, LENGTH, WARMUP, max_workers=1,
            cache=ResultCache(str(tmp_path / "serial")))
        (parallel,), _ = run_matrix(
            [quiet_config()], WORKLOADS, LENGTH, WARMUP, max_workers=3,
            cache=ResultCache(str(tmp_path / "par")))
        assert set(serial) == set(parallel)
        for name in WORKLOADS:
            assert serial[name].data == parallel[name].data

    def test_parallel_cache_files_identical(self, tmp_path):
        """The bytes written to disk do not depend on the worker count."""
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_jobs(small_jobs(), cache=ResultCache(d1), max_workers=1)
        run_jobs(small_jobs(), cache=ResultCache(d2), max_workers=3)
        files1 = sorted(os.listdir(d1))
        files2 = sorted(os.listdir(d2))
        assert files1 == files2 and files1
        for name in files1:
            with open(os.path.join(d1, name), "rb") as h1, \
                    open(os.path.join(d2, name), "rb") as h2:
                assert h1.read() == h2.read()

    @pytest.mark.parametrize("warmup", [WARMUP, LENGTH // 2],
                             ids=["detailed-warmup", "fast-forward"])
    def test_run_matrix_single_config_returns_mapping_and_report(
            self, tmp_path, warmup):
        (results,), report = run_matrix(
            [quiet_config()], WORKLOADS, LENGTH, warmup,
            cache=ResultCache(str(tmp_path)), max_workers=2)
        assert list(results) == WORKLOADS
        assert report.jobs_total == len(WORKLOADS)
        assert report.jobs_simulated == len(WORKLOADS)
        # The report counts only what the detailed core ran: the
        # functionally fast-forwarded prefix is in neither IPC nor instr/s.
        [functional] = SamplingPlan(quiet_config(), LENGTH, warmup,
                                    {"samples": 1}).functionals
        assert report.instructions_simulated == \
            (LENGTH - functional) * len(WORKLOADS)

    def test_spawn_pool_matches_serial(self, tmp_path, monkeypatch):
        """The shard pool under the ``spawn`` start method (fresh
        interpreters, every payload pickled) gives a sampled sweep the
        in-process bytes."""
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        methods = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: (
            methods.append(method) or get_context(method)))
        configs = [quiet_config(), quiet_config(rfp={"enabled": True})]
        datas = {}
        for workers in (1, 2):
            monkeypatch.setenv("REPRO_CHECKPOINT_DIR",
                               str(tmp_path / ("ckpt%d" % workers)))
            per_config, report = run_matrix(
                configs, WORKLOADS, 3000, 1500,
                cache=ResultCache(str(tmp_path / ("cache%d" % workers))),
                max_workers=workers, sampling={"samples": 2})
            assert report.jobs_failed == 0
            assert report.workers == workers
            datas[workers] = [
                json.dumps(results[name].data)
                for results in per_config for name in WORKLOADS]
        assert methods == ["spawn"]  # one pool, and it spawned
        assert datas[1] == datas[2]

    def test_results_in_job_order(self, tmp_path):
        results, _ = run_jobs(small_jobs(), cache=ResultCache(str(tmp_path)),
                              max_workers=3)
        assert [r.workload for r in results] == WORKLOADS


class TestDedupAndCache:
    def test_duplicate_jobs_simulated_once(self, tmp_path):
        jobs = small_jobs()[:1] * 4
        results, report = run_jobs(jobs, cache=ResultCache(str(tmp_path)),
                                   max_workers=2)
        assert report.jobs_total == 4
        assert report.jobs_simulated == 1
        assert report.jobs_deduplicated == 3
        assert len({id(r.data) for r in results}) <= 2  # shared result object

    def test_second_run_all_hits(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_jobs(small_jobs(), cache=cache, max_workers=2)
        _, report = run_jobs(small_jobs(), cache=cache, max_workers=2)
        assert report.jobs_simulated == 0
        assert report.cache_hits == len(WORKLOADS)

    def test_progress_callback_sees_every_job(self, tmp_path):
        seen = []
        run_jobs(small_jobs(), cache=ResultCache(str(tmp_path)), max_workers=2,
                 progress=lambda *a: seen.append(a))
        assert len(seen) == len(WORKLOADS)
        assert {s[5] for s in seen} == {"run"}
        assert {s[1] for s in seen} == {len(WORKLOADS)}

    def test_run_matrix_shapes(self, tmp_path):
        configs = [quiet_config(), quiet_config(rfp={"enabled": True})]
        per_config, report = run_matrix(configs, WORKLOADS, LENGTH, WARMUP,
                                        cache=ResultCache(str(tmp_path)),
                                        max_workers=2)
        assert len(per_config) == 2
        for results in per_config:
            assert set(results) == set(WORKLOADS)
        assert report.jobs_total == 2 * len(WORKLOADS)

    def test_a_trace_object_is_rejected(self, tmp_path):
        trace = suite.build_workload(WORKLOADS[0], length=LENGTH)
        with pytest.raises(TypeError, match="workload names"):
            run_jobs([(trace, quiet_config(), LENGTH, WARMUP)],
                     cache=ResultCache(str(tmp_path)), max_workers=1)


class TestCorruptedCache:
    def test_corrupted_entry_is_evicted_and_rewritten(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = quiet_config()
        good = run_first(config, cache)
        key = cache.key(WORKLOADS[0], config, LENGTH, WARMUP)
        path = cache._path(key)
        with open(path, "w") as handle:
            handle.write('{"workload": "spec06_bzip2", "truncat')  # partial JSON
        with pytest.warns(RuntimeWarning, match=WORKLOADS[0]):
            assert cache.get(key) is None  # corrupted -> evicted miss
        assert not os.path.exists(path)  # the bad file is gone
        assert cache.pop_evictions() == [
            {"key": key, "reason": "unreadable (truncated or malformed JSON)"}
        ]
        again = run_first(config, cache)
        assert again.data == good.data
        # Safely rewritten, checksummed.
        assert read_envelope(path) == (None, good.data)
        checksum, blob = encode_envelope(good.data)
        with open(path, "rb") as handle:
            written = handle.read()
        assert written[:HEADER_LEN].endswith(checksum.encode("ascii"))
        assert written == blob

    def test_checksum_mismatch_is_evicted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = quiet_config()
        run_first(config, cache)
        key = cache.key(WORKLOADS[0], config, LENGTH, WARMUP)
        path = cache._path(key)
        flip_envelope_field(path, "ipc")  # silent payload corruption
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            assert cache.get(key) is None
        assert cache.pop_evictions()[0]["reason"].startswith("checksum")

    def test_legacy_unversioned_entry_is_evicted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = quiet_config()
        key = cache.key(WORKLOADS[0], config, LENGTH, WARMUP)
        os.makedirs(cache.directory, exist_ok=True)
        with open(cache._path(key), "w") as handle:
            json.dump({"workload": WORKLOADS[0], "ipc": 1.0}, handle)
        with pytest.warns(RuntimeWarning, match="envelope"):
            assert cache.get(key) is None

    def test_corrupted_entry_rewritten_under_parallel_fill(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = quiet_config()
        keys = [cache.key(name, config, LENGTH, WARMUP) for name in WORKLOADS]
        os.makedirs(cache.directory, exist_ok=True)
        for key in keys:
            with open(cache._path(key), "w") as handle:
                handle.write("not json at all")
        with pytest.warns(RuntimeWarning):
            results, report = run_jobs(small_jobs(config), cache=cache,
                                       max_workers=3)
        assert report.jobs_simulated == len(WORKLOADS)  # all misses
        # Every eviction shows up in the manifest as a recovered incident.
        assert len(report.failures) == len(WORKLOADS)
        assert {r["classification"] for r in report.failures} == {"corrupt_cache"}
        assert all(r["recovered"] for r in report.failures)
        assert report.jobs_failed == 0
        for key, result in zip(keys, results):
            assert read_envelope(cache._path(key)) == (None, result.data)

    def test_put_tmp_file_is_per_process(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        config = quiet_config()
        run_first(config, cache)
        leftovers = [n for n in os.listdir(str(tmp_path)) if ".tmp" in n]
        assert leftovers == []


class TestSchemaVersion:
    def test_schema_version_changes_fingerprint(self, monkeypatch):
        before = config_fingerprint(baseline())
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION",
                            cache_mod.SCHEMA_VERSION + 1)
        assert config_fingerprint(baseline()) != before

    def test_fingerprint_still_config_sensitive(self):
        assert config_fingerprint(baseline()) != config_fingerprint(
            baseline(rfp={"enabled": True}))


class TestKnobs:
    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert settings.get("REPRO_JOBS") == 7
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert settings.get("REPRO_JOBS") == 1
        monkeypatch.delenv("REPRO_JOBS")
        assert settings.get("REPRO_JOBS") >= 1

    def test_start_method_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "spawn")
        assert settings.get("REPRO_MP_START") == "spawn"
        monkeypatch.delenv("REPRO_MP_START")
        assert settings.get("REPRO_MP_START") in ("fork", "spawn")

    def test_serial_run_loads_no_multiprocessing(self, tmp_path):
        """A one-cell serial sweep in a fresh interpreter never imports
        ``multiprocessing``: only the shard pool needs it."""
        child = (
            "import sys\n"
            "from repro.core.config import baseline\n"
            "from repro.sim.parallel import run_matrix\n"
            "(results,), report = run_matrix([baseline(name='b')], "
            "[%r], %d, %d, max_workers=1)\n"
            "assert report.jobs_simulated == 1, report.format()\n"
            "print(sorted(name for name in sys.modules "
            "if name.split('.')[0] == 'multiprocessing'))\n"
            % (WORKLOADS[0], LENGTH, WARMUP))
        env = {name: value for name, value in os.environ.items()
               if not name.startswith("REPRO_")}
        env.update(PYTHONPATH=SRC_DIR,
                   REPRO_CACHE_DIR=str(tmp_path / "cache"),
                   REPRO_CHECKPOINT_DIR=str(tmp_path / "ckpt"))
        proc = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_timing_report_format(self):
        report = TimingReport(wall_seconds=2.0, jobs_total=10,
                              jobs_simulated=6, jobs_deduplicated=1,
                              cache_hits=3, workers=4,
                              instructions_simulated=120000)
        text = report.format()
        assert "10 jobs" in text and "4 workers" in text
        assert report.instructions_per_second == pytest.approx(60000.0)
        assert "3 cache hits" in text and "120000 instructions" in text


class TestCacheMaintenance:
    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_jobs(small_jobs(), cache=cache, max_workers=1)
        stats = cache.stats()
        assert stats["entries"] == len(WORKLOADS)
        assert stats["bytes"] > 0
        assert cache.clear() == len(WORKLOADS)
        assert cache.stats()["entries"] == 0

    def test_clear_missing_directory(self, tmp_path):
        cache = ResultCache(str(tmp_path / "nonexistent"))
        assert cache.clear() == 0
        assert cache.stats()["entries"] == 0

    def test_default_cache_follows_the_cache_dir_setting(self, tmp_path,
                                                         monkeypatch):
        """Like the default checkpoint store: a changed REPRO_CACHE_DIR
        yields a cache over the new directory."""
        for name in ("a", "b"):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / name))
            assert cache_mod.default_cache().directory == str(tmp_path / name)

    def test_cli_cache_commands(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.__main__ import main
        run_first(quiet_config())
        assert main(["cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "1" in out
        assert main(["cache-clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache-stats"]) == 0
        assert cache_mod.default_cache().stats()["entries"] == 0

    def test_stats_validates_and_evicts_corrupt_entries(self, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.__main__ import main
        cache = cache_mod.default_cache()
        good = run_first(quiet_config())
        bad_key = cache.key(WORKLOADS[1], quiet_config(), LENGTH, WARMUP)
        cache.put(bad_key, good)
        with open(cache._path(bad_key), "ab") as handle:
            handle.write(b" ")  # one byte appended after a whole stream
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            assert main(["cache-stats"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"corrupt evicted *\| *1 *$", out, re.M), out
        assert re.search(r"entries *\| *1 *$", out, re.M), out
        assert not os.path.exists(cache._path(bad_key))
        [incident] = cache.pop_evictions()
        assert incident["key"] == bad_key
        stats = cache.stats()
        assert (stats["entries"], stats["corrupt_evicted"]) == (1, 0)


class TestWorkerErrors:
    def test_serial_failure_names_the_job(self, tmp_path):
        jobs = [("no_such_workload", quiet_config(), LENGTH, WARMUP)]
        with pytest.raises(WorkerError) as excinfo:
            run_jobs(jobs, cache=ResultCache(str(tmp_path)), max_workers=1)
        err = excinfo.value
        assert err.workload == "no_such_workload"
        assert err.config_name == quiet_config().name
        assert "no_such_workload" in str(err)
        assert "KeyError" in err.detail
        assert err.root_cause == "KeyError"

    def test_pool_failure_names_the_job(self, tmp_path):
        jobs = small_jobs() + [("no_such_workload", quiet_config(),
                                LENGTH, WARMUP)]
        with pytest.raises(WorkerError) as excinfo:
            run_jobs(jobs, cache=ResultCache(str(tmp_path)), max_workers=3)
        assert excinfo.value.workload == "no_such_workload"
        assert excinfo.value.root_cause == "KeyError"

    def test_worker_error_survives_double_pickling(self):
        import pickle
        err = WorkerError("wl", "cfg", "traceback text", root_cause="KeyError")
        # Two round-trips: the pool pickles the error once to cross the
        # worker boundary, and a caller archiving a failure manifest may
        # pickle the surfaced exception again.
        clone = pickle.loads(pickle.dumps(pickle.loads(pickle.dumps(err))))
        assert isinstance(clone, WorkerError)
        assert clone.workload == "wl"
        assert clone.config_name == "cfg"
        assert clone.detail == "traceback text"
        assert clone.root_cause == "KeyError"
        assert "traceback text" in str(clone)
        assert "root cause KeyError" in str(clone)

    def test_worker_error_without_root_cause_still_pickles(self):
        import pickle
        err = WorkerError("wl", "cfg", "detail")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.root_cause is None
        assert clone.detail == "detail"


class TestTraceAffinity:
    """The in-process executor holds one trace at a time, like a shard."""

    def test_serial_sweep_holds_one_trace(self, tmp_path, monkeypatch):
        """A config-major 2-config x 3-workload matrix, full-window and
        sampled: each trace is generated once per mode, and the trace
        memo holds at most one trace when any job starts, or any lane's
        warm pass, which runs inside the lane's first interval job."""
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        generated, memo_sizes, prewarms = [], [], []
        real_generate = suite.generate_trace
        real_run_job = parallel._run_job
        real_ensure = parallel.ensure_checkpoints

        def generate(profile):
            generated.append(profile.name)
            return real_generate(profile)

        def run_job(item):
            memo_sizes.append(suite.build_workload.cache_info().currsize)
            return real_run_job(item)

        def ensure(*args, **kwargs):
            memo_sizes.append(suite.build_workload.cache_info().currsize)
            prewarms.append(args[1])
            return real_ensure(*args, **kwargs)

        monkeypatch.setattr(suite, "generate_trace", generate)
        monkeypatch.setattr(parallel, "_run_job", run_job)
        monkeypatch.setattr(parallel, "ensure_checkpoints", ensure)
        configs = [quiet_config(), quiet_config(rfp={"enabled": True})]
        modes = (("full", LENGTH, WARMUP, None),
                 ("sampled", 4000, 1000, {"samples": 2}))
        for mode, length, warmup, sampling in modes:
            suite.build_workload.cache_clear()
            del generated[:], memo_sizes[:], prewarms[:]
            per_config, report = run_matrix(
                configs, WORKLOADS, length, warmup,
                cache=ResultCache(str(tmp_path / mode)), max_workers=1,
                sampling=sampling)
            assert report.workers == 1 and report.jobs_failed == 0
            assert all(set(r) == set(WORKLOADS) for r in per_config)
            assert sorted(generated) == sorted(WORKLOADS), mode
            assert len(memo_sizes) == report.jobs_simulated + len(prewarms)
            assert max(memo_sizes) <= 1, (mode, memo_sizes)
        assert sorted(set(prewarms)) == sorted(WORKLOADS)  # prewarm ran

    def test_serial_sampled_sweep_opens_one_checkpoint_store(self, tmp_path,
                                                             monkeypatch):
        """Every interval job restores through the process's one store
        handle: a serial sampled sweep builds at most one CheckpointStore
        (each build lists the store directory)."""
        from repro.sim.checkpoint import CheckpointStore

        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
        opened = []
        real_init = CheckpointStore.__init__

        def init(self, *args, **kwargs):
            opened.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(CheckpointStore, "__init__", init)
        _, report = run_matrix(
            [quiet_config(), quiet_config(rfp={"enabled": True})],
            WORKLOADS[:2], 4000, 1000, cache=ResultCache(str(tmp_path / "c")),
            max_workers=1, sampling={"samples": 3})
        assert report.jobs_simulated == 12 and report.jobs_failed == 0
        assert len(opened) <= 1, opened

    def test_pool_parent_builds_no_trace_and_warms_nothing(self, tmp_path,
                                                           monkeypatch):
        """A cold sampled sweep on two shards: every trace build and
        functional warm pass runs in a shard, none in the parent (a
        lane's warm runs inside its first interval job), and the results
        equal the in-process run's."""
        from repro.emu.warmup import FunctionalWarmer

        monkeypatch.setenv("REPRO_MP_START", "fork")  # shards inherit hooks
        calls = tmp_path / "calls"
        real_generate = suite.generate_trace
        real_warm = FunctionalWarmer.warm

        def record(kind):
            with open(str(calls), "a") as handle:
                handle.write("%s %d\n" % (kind, os.getpid()))

        def generate(profile):
            record("generate_trace")
            return real_generate(profile)

        def warm(self, *args, **kwargs):
            record("warm")
            return real_warm(self, *args, **kwargs)

        monkeypatch.setattr(suite, "generate_trace", generate)
        monkeypatch.setattr(FunctionalWarmer, "warm", warm)
        configs = [quiet_config(), quiet_config(rfp={"enabled": True})]
        runs = {}
        for max_workers in (2, 1):
            monkeypatch.setenv("REPRO_CHECKPOINT_DIR",
                               str(tmp_path / ("ckpt%d" % max_workers)))
            suite.build_workload.cache_clear()
            if calls.exists():
                calls.unlink()
            per_config, report = run_matrix(
                configs, WORKLOADS, 4000, 1000,
                cache=ResultCache(str(tmp_path / ("c%d" % max_workers))),
                max_workers=max_workers, sampling={"samples": 2})
            assert report.workers == max_workers and report.jobs_failed == 0
            runs[max_workers] = [{name: result.data for name, result
                                  in results.items()}
                                 for results in per_config]
            if max_workers == 2:
                pids = [line.split() for line in calls.read_text().split("\n")
                        if line]
                kinds = {kind for kind, _ in pids}
                assert kinds == {"generate_trace", "warm"}, kinds
                parent = [kind for kind, pid in pids
                          if int(pid) == os.getpid()]
                assert parent == [], parent
        assert runs[2] == runs[1]


class TestParentMemory:
    """The sweep parent holds cells, not interval results: a sampled
    cell's intervals are dropped when it commits."""

    CONFIGS = (quiet_config(), quiet_config(name="rfp", rfp={"enabled": True}))
    SAMPLES = 4

    @pytest.fixture(autouse=True)
    def fork_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "fork")  # shards inherit hooks
        self.monkeypatch = monkeypatch

    def sweep(self, tmp_path, tag, max_workers, **kwargs):
        """A 2-config x 2-workload, K=4 sampled matrix on empty stores."""
        self.monkeypatch.setenv("REPRO_CHECKPOINT_DIR",
                                str(tmp_path / ("ckpt-" + tag)))
        return run_matrix(
            self.CONFIGS, WORKLOADS[:2], 4000, 1000,
            cache=ResultCache(str(tmp_path / ("cache-" + tag))),
            max_workers=max_workers, sampling={"samples": self.SAMPLES},
            **kwargs)

    def interval_instructions(self, config):
        """Detailed instructions of each interval of one cell: its ramp
        plus the measured window."""
        plan = SamplingPlan(config, 4000, 1000, {"samples": self.SAMPLES})
        return [ramp + plan.measure for ramp in plan.ramps]

    def test_parent_drops_interval_results_of_committed_cells(
            self, tmp_path, monkeypatch):
        """After every success the parent reports, no live interval
        result belongs to a cell all of whose intervals have landed, on
        both executors; the results equal an unobserved run's."""
        real_on_success = parallel._Sweep.on_success
        landed = collections.Counter()
        held, stale = [], []

        def on_success(sweep, pj, data, seconds):
            real_on_success(sweep, pj, data, seconds)
            cell = (data["workload"], data["config"])
            landed[cell] += 1
            live = [(result.data["workload"], result.data["config"])
                    for result in gc.get_objects()
                    if isinstance(result, SimResult)
                    and "interval" in result.data]
            held.append(len(live))
            stale.extend(cell for cell in live
                         if landed[cell] == self.SAMPLES)

        def datas(per_config):
            return [{name: result.data for name, result in results.items()}
                    for results in per_config]

        (expected, _) = self.sweep(tmp_path, "plain", 1)
        monkeypatch.setattr(parallel._Sweep, "on_success", on_success)
        for max_workers in (1, 2):
            landed.clear()
            del held[:], stale[:]
            per_config, report = self.sweep(tmp_path, str(max_workers),
                                            max_workers)
            assert report.workers == max_workers and report.jobs_failed == 0
            assert len(held) == report.jobs_simulated == 16
            assert max(held) > 0  # the scan sees pending intervals
            assert held[-1] == 0 and stale == [], (max_workers, stale)
            assert datas(per_config) == datas(expected)

    def test_sampled_instructions_simulated(self, tmp_path):
        """The report counts the detailed instructions of every interval:
        each one's ramp plus its measured window."""
        total = sum(sum(self.interval_instructions(config)) * 2
                    for config in self.CONFIGS)
        for max_workers in (1, 2):
            _, report = self.sweep(tmp_path, str(max_workers), max_workers)
            assert report.jobs_simulated == 16 and report.jobs_failed == 0
            assert report.instructions_simulated == total, max_workers

    @pytest.mark.parametrize("fault, lost", [
        ("crash:job=5:attempts=1", 0), ("crash:job=5", 1)],
        ids=["retried", "terminal"])
    def test_crashed_interval_counts_once_or_not_at_all(self, tmp_path,
                                                         fault, lost):
        """Job 5 is the second interval of (first config, second
        workload).  Retried after one crash, it counts once; failed
        terminally, its cell is absent and the report counts every
        interval but that one."""
        self.monkeypatch.setenv("REPRO_FAULT", fault)
        total = sum(sum(self.interval_instructions(config)) * 2
                    for config in self.CONFIGS)
        total -= lost * self.interval_instructions(self.CONFIGS[0])[1]
        for max_workers in (1, 2):
            per_config, report = self.sweep(
                tmp_path, str(max_workers), max_workers, retries=1,
                keep_going=True)
            assert report.jobs_failed == lost
            assert sorted(per_config[0]) == WORKLOADS[:2 - lost]
            assert sorted(per_config[1]) == WORKLOADS[:2]
            assert report.instructions_simulated == total, max_workers
