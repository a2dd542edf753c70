"""Fault injection and the resilience subsystem end to end.

Every recovery path in the parallel engine is driven deterministically via
``REPRO_FAULT``: injected crashes (retryable, then terminal), hangs killed
by the watchdog, corrupt cache entries evicted and re-simulated, the
keep-going failure manifest over a 2-config x 4-workload matrix, and
SIGINT-interrupted runs that resume from the incremental cache.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from conftest import quiet_config

from repro.sim import faults
from repro.sim.cache import ResultCache
from repro.sim.parallel import (
    WorkerError,
    classify_failure,
    format_failures,
    resolve_job_timeout,
    run_jobs,
    run_matrix,
)

WORKLOADS = ["spec06_bzip2", "spec06_mcf", "spec06_perlbench", "spec06_gcc"]
LENGTH = 1200
WARMUP = 200

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")


SCRUBBED = ("REPRO_FAULT", "REPRO_TRACE", "REPRO_JOB_TIMEOUT",
            "REPRO_JOB_RETRIES")


@pytest.fixture(autouse=True)
def resilience_env(monkeypatch):
    """No stray fault/trace state leaking between tests.

    Tests here assign ``os.environ["REPRO_FAULT"]`` directly (the engine
    and its fork-children read the real environment); monkeypatch only
    restores variables that existed before the test, so the teardown must
    scrub explicitly or a fault spec leaks into every later test file.
    """
    for name in SCRUBBED:
        monkeypatch.delenv(name, raising=False)
    yield
    for name in SCRUBBED:
        os.environ.pop(name, None)


def jobs4(config=None):
    config = config or quiet_config()
    return [(name, config, LENGTH, WARMUP) for name in WORKLOADS]


def jobs8():
    """Two configs x four workloads, config-major as run_matrix builds
    them: the in-process executor reorders these into per-trace lanes."""
    configs = (quiet_config(), quiet_config(rfp={"enabled": True}))
    return [job for config in configs for job in jobs4(config)]


#: Worker counts that select each executor: in-process serial, shard pool.
EXECUTORS = (1, 2)

#: Job lists the both-executor cases run: one config, and two configs
#: whose job order differs from the serial executor's lane order.
JOB_LISTS = (jobs4, jobs8)


def manifest(report):
    """The manifest fields both executors must agree on.  ``detail`` and
    ``root_cause`` of a crash differ by design: in-process it raises
    InjectedCrash with a traceback, in a shard it is a silent exit."""
    return [{name: record[name] for name in
             ("workload", "config", "job_index", "classification",
              "attempts", "recovered")}
            for record in report.failures]


class TestFaultSpecs:
    def test_parse_single(self):
        (spec,) = faults.parse_faults("crash:job=3")
        assert spec.kind == "crash"
        assert spec.params == {"job": "3"}

    def test_parse_many(self):
        specs = faults.parse_faults(
            "crash:job=1:attempts=1, hang:job=2:seconds=9, corrupt_cache:key=mcf")
        assert [s.kind for s in specs] == ["crash", "hang", "corrupt_cache"]
        assert specs[0].attempt_allowed(1)
        assert not specs[0].attempt_allowed(2)
        assert specs[1].attempt_allowed(7)  # no attempts bound

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.parse_faults("explode:job=1")

    def test_malformed_param_raises(self):
        with pytest.raises(ValueError, match="malformed fault parameter"):
            faults.parse_faults("crash:job")

    def test_empty_env_is_no_faults(self):
        assert faults.active_faults({}) == []
        assert faults.active_faults({"REPRO_FAULT": ""}) == []

    def test_rand_mode_is_deterministic(self):
        (spec,) = faults.parse_faults("rand:p=0.5:seed=7")
        outcomes = [faults._rand_fires(spec, job, attempt)
                    for job in range(20) for attempt in (1, 2)]
        assert outcomes == [faults._rand_fires(spec, job, attempt)
                            for job in range(20) for attempt in (1, 2)]
        assert any(outcomes) and not all(outcomes)

    def test_fire_noop_without_env(self):
        faults.fire_worker_faults(0, 1, in_child=False, environ={})

    def test_injected_crash_in_process(self):
        env = {"REPRO_FAULT": "crash:job=5"}
        with pytest.raises(faults.InjectedCrash):
            faults.fire_worker_faults(5, 1, in_child=False, environ=env)
        faults.fire_worker_faults(4, 1, in_child=False, environ=env)  # miss


class TestShardFaultSpecs:
    """The service-layer fault grammar: kill_shard, stop_shard,
    torn_write and kill_commit (see README resilience docs)."""

    def test_parse_shard_kinds(self):
        specs = faults.parse_faults(
            "kill_shard:shard=1:after=2, stop_shard:shard=0:after=1, "
            "torn_write:key=mcf, kill_commit:key=gcc:at=payload")
        assert [s.kind for s in specs] == [
            "kill_shard", "stop_shard", "torn_write", "kill_commit"]

    def test_retired_heartbeat_fault_is_an_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.parse_faults("hang_heartbeat:shard=0:seconds=9")

    def test_kill_shard_targets_shard_and_incarnation(self):
        env = {"REPRO_FAULT": "kill_shard:shard=1:after=2"}
        assert faults.shard_fault(1, 1, environ=env) == ("kill_shard", 2)
        assert faults.shard_fault(0, 1, environ=env) is None  # other shard
        # attempts=K bounds the incarnation (default 1): the respawned
        # shard is healthy, which is what lets the sweep converge.
        assert faults.shard_fault(1, 2, environ=env) is None
        env = {"REPRO_FAULT": "kill_shard:shard=1:attempts=3"}
        assert faults.shard_fault(1, 3, environ=env) == ("kill_shard", 1)
        assert faults.shard_fault(1, 4, environ=env) is None

    def test_stop_shard_spec(self):
        env = {"REPRO_FAULT": "stop_shard:shard=2:after=3"}
        assert faults.shard_fault(2, 1, environ=env) == ("stop_shard", 3)
        assert faults.shard_fault(1, 1, environ=env) is None
        assert faults.shard_fault(2, 2, environ=env) is None
        env = {"REPRO_FAULT": "stop_shard:shard=2:attempts=2"}
        assert faults.shard_fault(2, 2, environ=env) == ("stop_shard", 1)
        # A stop fault never fires as a job-level worker fault.
        faults.fire_worker_faults(0, 1, in_child=False, environ=env)

    def test_torn_write_fires_attempts_times_per_process(self):
        env = {"REPRO_FAULT": "torn_write:key=mcf:attempts=2"}
        faults._torn_fired.clear()
        try:
            assert faults.torn_write_requested("spec06_mcf-1-2-x", environ=env)
            assert faults.torn_write_requested("spec06_mcf-1-2-x", environ=env)
            assert not faults.torn_write_requested("spec06_mcf-1-2-x",
                                                   environ=env)  # budget spent
            assert not faults.torn_write_requested("spec06_gcc-1-2-x",
                                                   environ=env)  # no match
        finally:
            faults._torn_fired.clear()

    def test_kill_commit_is_noop_on_stage_or_key_miss(self):
        env = {"REPRO_FAULT": "kill_commit:key=mcf:at=intent"}
        # Wrong stage / wrong key: must return, not SIGKILL the test run.
        faults.fire_commit_faults("spec06_mcf-1-2-x", "replace", environ=env)
        faults.fire_commit_faults("spec06_gcc-1-2-x", "intent", environ=env)
        faults.fire_commit_faults("anything", "intent", environ={})


class TestKnobs:
    def test_timeout_precedence(self, monkeypatch):
        assert resolve_job_timeout(12.5, LENGTH) == 12.5
        assert resolve_job_timeout(0, LENGTH) is None  # explicit disable
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "33")
        assert resolve_job_timeout(None, LENGTH) == 33.0
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "0")
        assert resolve_job_timeout(None, LENGTH) is None
        monkeypatch.delenv("REPRO_JOB_TIMEOUT")
        derived = resolve_job_timeout(None, 1_000_000)
        assert derived == pytest.approx(2000.0)  # length / 500
        assert resolve_job_timeout(None, 100) == 60.0  # floor

    def test_classification(self):
        assert classify_failure("...", "InjectedCrash") == "crash"
        assert classify_failure("cycles ... likely deadlock)") == "deadlock"
        assert classify_failure("Traceback ...", "KeyError") == "error"


class TestCrashRecovery:
    def test_transient_crash_is_retried_and_recovers(self, tmp_path):
        os.environ["REPRO_FAULT"] = "crash:job=1:attempts=1"
        for jobs in JOB_LISTS:
            manifests = []
            for max_workers in EXECUTORS:
                results, report = run_jobs(
                    jobs(), cache=ResultCache(
                        str(tmp_path / jobs.__name__ / str(max_workers))),
                    max_workers=max_workers, retries=2, keep_going=True)
                assert all(r is not None for r in results)
                assert report.jobs_failed == 0
                (incident,) = report.failures
                assert incident["classification"] == "crash"
                assert incident["recovered"] is True
                assert incident["attempts"] == 2
                assert incident["workload"] == WORKLOADS[1]
                manifests.append(manifest(report))
            assert manifests[0] == manifests[1], jobs.__name__

    def test_persistent_crash_is_terminal_under_keep_going(self, tmp_path):
        os.environ["REPRO_FAULT"] = "crash:job=1"
        for jobs in JOB_LISTS:
            manifests = []
            for max_workers in EXECUTORS:
                results, report = run_jobs(
                    jobs(), cache=ResultCache(
                        str(tmp_path / jobs.__name__ / str(max_workers))),
                    max_workers=max_workers, retries=1, keep_going=True)
                assert results[1] is None
                assert all(r is not None
                           for i, r in enumerate(results) if i != 1)
                assert report.jobs_failed == 1
                (record,) = report.failures
                assert record["classification"] == "crash"
                assert record["recovered"] is False
                assert record["attempts"] == 2  # first try + one retry
                assert record["workload"] == WORKLOADS[1]
                assert "TERMINAL" in format_failures(report.failures)
                manifests.append(manifest(report))
            assert manifests[0] == manifests[1], jobs.__name__

    def test_crash_raises_without_keep_going(self, tmp_path):
        os.environ["REPRO_FAULT"] = "crash:job=0"
        for jobs in JOB_LISTS:
            raised = []
            for max_workers in EXECUTORS:
                with pytest.raises(WorkerError) as excinfo:
                    run_jobs(jobs(), cache=ResultCache(
                        str(tmp_path / jobs.__name__ / str(max_workers))),
                        max_workers=max_workers, retries=0)
                assert excinfo.value.workload == WORKLOADS[0]
                raised.append((excinfo.value.workload,
                               excinfo.value.config_name))
            assert raised[0] == raised[1], jobs.__name__

    def test_serial_path_recovers_from_injected_crash(self, tmp_path):
        os.environ["REPRO_FAULT"] = "crash:job=2:attempts=1"
        results, report = run_jobs(jobs4(), cache=ResultCache(str(tmp_path)),
                                   max_workers=1, retries=1, keep_going=True)
        assert all(r is not None for r in results)
        assert report.jobs_failed == 0
        assert report.failures[0]["recovered"] is True

    def test_deterministic_error_is_not_retried(self, tmp_path):
        bad = ("no_such_workload", quiet_config(), LENGTH, WARMUP)
        for jobs in JOB_LISTS:
            manifests = []
            for max_workers in EXECUTORS:
                results, report = run_jobs(
                    jobs() + [bad], cache=ResultCache(
                        str(tmp_path / jobs.__name__ / str(max_workers))),
                    max_workers=max_workers, retries=3, keep_going=True)
                assert results[-1] is None
                assert all(r is not None for r in results[:-1])
                (record,) = report.failures
                assert record["classification"] == "error"
                assert record["attempts"] == 1  # no retry burned on a KeyError
                assert record["root_cause"] == "KeyError"
                assert "KeyError" in record["detail"]
                manifests.append(manifest(report))
            assert manifests[0] == manifests[1], jobs.__name__


class TestHangWatchdog:
    def test_hung_worker_is_killed_and_retried(self, tmp_path):
        os.environ["REPRO_FAULT"] = "hang:job=2:attempts=1:seconds=60"
        started = time.monotonic()
        results, report = run_jobs(jobs4(), cache=ResultCache(str(tmp_path)),
                                   max_workers=2, job_timeout=1.5,
                                   retries=1, keep_going=True)
        assert time.monotonic() - started < 30
        assert all(r is not None for r in results)
        assert report.jobs_failed == 0
        (incident,) = report.failures
        assert incident["classification"] == "timeout"
        assert incident["recovered"] is True
        assert "watchdog" in incident["detail"]

    def test_persistent_hang_is_terminal(self, tmp_path):
        os.environ["REPRO_FAULT"] = "hang:job=0:seconds=60"
        results, report = run_jobs(jobs4(), cache=ResultCache(str(tmp_path)),
                                   max_workers=4, job_timeout=0.75,
                                   retries=1, keep_going=True)
        assert results[0] is None
        assert all(r is not None for r in results[1:])
        (record,) = report.failures
        assert record["classification"] == "timeout"
        assert record["attempts"] == 2


class TestCorruptCacheInjection:
    def test_corrupt_entry_is_classified_and_resimulated(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        first, _ = run_jobs(jobs4(), cache=cache, max_workers=2)
        os.environ["REPRO_FAULT"] = "corrupt_cache:key=spec06_mcf"
        with pytest.warns(RuntimeWarning, match="spec06_mcf"):
            results, report = run_jobs(jobs4(), cache=cache, max_workers=2,
                                       keep_going=True)
        assert report.cache_hits == len(WORKLOADS) - 1
        assert report.jobs_simulated == 1
        assert report.jobs_failed == 0
        (incident,) = report.failures
        assert incident["classification"] == "corrupt_cache"
        assert incident["recovered"] is True
        assert incident["workload"] == "spec06_mcf"
        # The re-simulation reproduced the original result exactly.
        assert results[1].data == first[1].data

    def test_flip_flavour_trips_the_checksum(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        run_jobs(jobs4(), cache=cache, max_workers=2)
        os.environ["REPRO_FAULT"] = "corrupt_cache:key=spec06_gcc:how=flip"
        with pytest.warns(RuntimeWarning, match="checksum mismatch"):
            _, report = run_jobs(jobs4(), cache=cache, max_workers=2,
                                 keep_going=True)
        (incident,) = report.failures
        assert incident["detail"].startswith("checksum mismatch")


class TestMatrixAcceptance:
    """The issue's acceptance scenario: a 2-config x 4-workload matrix under
    crash + hang faults completes with --keep-going semantics, returns every
    healthy cell, and classifies each injected fault correctly."""

    def test_matrix_keeps_going_and_classifies(self, tmp_path):
        configs = [quiet_config(), quiet_config(rfp={"enabled": True})]
        # Miss indexes are job order: 0-3 baseline, 4-7 RFP.
        os.environ["REPRO_FAULT"] = "crash:job=2, hang:job=5:seconds=60"
        per_config, report = run_matrix(
            configs, WORKLOADS, LENGTH, WARMUP,
            cache=ResultCache(str(tmp_path)), max_workers=4,
            job_timeout=1.0, retries=1, keep_going=True)
        assert set(per_config[0]) == set(WORKLOADS) - {WORKLOADS[2]}
        assert set(per_config[1]) == set(WORKLOADS) - {WORKLOADS[1]}
        assert report.jobs_failed == 2
        by_class = {r["classification"]: r for r in report.failures}
        assert set(by_class) == {"crash", "timeout"}
        assert by_class["crash"]["workload"] == WORKLOADS[2]
        assert by_class["crash"]["config"] == configs[0].name
        assert by_class["timeout"]["workload"] == WORKLOADS[1]
        assert by_class["timeout"]["config"] == configs[1].name
        assert all(r["attempts"] == 2 for r in report.failures)

    def test_rerun_without_faults_resimulates_only_failures(self, tmp_path):
        configs = [quiet_config(), quiet_config(rfp={"enabled": True})]
        cache = ResultCache(str(tmp_path))
        os.environ["REPRO_FAULT"] = "crash:job=2, hang:job=5:seconds=60"
        run_matrix(configs, WORKLOADS, LENGTH, WARMUP, cache=cache,
                   max_workers=4, job_timeout=1.0, retries=1, keep_going=True)
        del os.environ["REPRO_FAULT"]
        per_config, report = run_matrix(
            configs, WORKLOADS, LENGTH, WARMUP, cache=cache, max_workers=4)
        # Resume semantics: the six healthy cells come from the cache, only
        # the two failed cells are simulated.
        assert report.cache_hits == 6
        assert report.jobs_simulated == 2
        assert report.jobs_failed == 0
        for results in per_config:
            assert set(results) == set(WORKLOADS)


_SIGINT_CHILD = """\
import sys
sys.path.insert(0, %(src)r)
from repro.core.config import baseline
from repro.sim.cache import ResultCache
from repro.sim.parallel import run_jobs

config = baseline(l2_prefetcher_enabled=False, l1_next_line_prefetch=False)
jobs = [(name, config, %(length)d, %(warmup)d) for name in %(workloads)r]
print("READY", flush=True)
run_jobs(jobs, cache=ResultCache(%(cache)r), max_workers=4, job_timeout=0)
"""


class TestSigintResume:
    def test_interrupt_preserves_finished_jobs_and_resume_skips_them(
            self, tmp_path):
        """Satellite: SIGINT a 4-job suite mid-run; completed jobs are in
        the cache and a resume run simulates only the remainder."""
        cache_dir = str(tmp_path / "cache")
        script = _SIGINT_CHILD % {
            "src": SRC_DIR, "length": LENGTH, "warmup": WARMUP,
            "workloads": WORKLOADS, "cache": cache_dir,
        }
        env = dict(os.environ)
        # The last job hangs forever and the watchdog is off, so the run
        # can only end via our SIGINT.
        env["REPRO_FAULT"] = "hang:job=3:seconds=600"
        child = subprocess.Popen([sys.executable, "-c", script], env=env,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE)
        try:
            # Wait until the three healthy jobs are committed to the cache.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                done = [name for name in os.listdir(cache_dir)
                        if name.endswith(".json")] if os.path.isdir(cache_dir) else []
                if len(done) >= 3:
                    break
                if child.poll() is not None:
                    break
                time.sleep(0.05)
            assert child.poll() is None, (
                "run finished before SIGINT could be delivered:\n%s"
                % child.communicate()[1].decode())
            child.send_signal(signal.SIGINT)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        assert child.returncode != 0  # KeyboardInterrupt surfaced
        # The three completed jobs were committed incrementally.
        cached = [name for name in os.listdir(cache_dir)
                  if name.endswith(".json")]
        assert len(cached) == 3
        # Resume: same jobs, no fault — only the interrupted one simulates.
        config = quiet_config()
        jobs = [(name, config, LENGTH, WARMUP) for name in WORKLOADS]
        results, report = run_jobs(jobs, cache=ResultCache(cache_dir),
                                   max_workers=4)
        assert report.cache_hits == 3
        assert report.jobs_simulated == 1
        assert all(r is not None for r in results)


class TestSigtermDrain:
    def test_sigterm_drains_gracefully_with_exit_code_4(self, tmp_path):
        """Satellite: SIGTERM mid-suite finishes in-flight chunks,
        journals their results, writes the manifest (aborted records),
        and exits with the documented drain code 4."""
        cache_dir = str(tmp_path / "cache")
        out_path = str(tmp_path / "out.json")
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = cache_dir
        # Job 3 hangs forever with the watchdog off: the run can only end
        # via our SIGTERM, and the hung chunk must be aborted at the
        # (tight) drain deadline rather than waited on.
        env["REPRO_FAULT"] = "hang:job=3:seconds=600"
        env["REPRO_DRAIN_TIMEOUT"] = "2"
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "suite", "-n", "2", "-j", "4",
             "--length", str(LENGTH), "--warmup", str(WARMUP), "--rfp",
             "--keep-going", "--job-timeout", "0", "--out", out_path],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                done = ([name for name in os.listdir(cache_dir)
                         if name.endswith(".json")]
                        if os.path.isdir(cache_dir) else [])
                if len(done) >= 3:
                    break
                if child.poll() is not None:
                    break
                time.sleep(0.05)
            assert child.poll() is None, (
                "run finished before SIGTERM could be delivered:\n%s"
                % child.communicate()[1].decode())
            child.send_signal(signal.SIGTERM)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        assert child.returncode == 4  # documented drain exit code
        # The three healthy chunks were finished and journaled.
        cached = [name for name in os.listdir(cache_dir)
                  if name.endswith(".json")]
        assert len(cached) == 3
        with open(out_path) as handle:
            payload = json.load(handle)
        assert payload["manifest_version"] >= 2
        aborted = [f for f in payload["failures"]
                   if f["classification"] == "aborted"]
        assert aborted and "SIGTERM drain" in aborted[0]["detail"]
        # Aborted chunks are not "failed" jobs: the drain exit code (4)
        # carries the signal, so the payload stays resumable as-is.
        assert all(f["classification"] in ("aborted",)
                   for f in payload["failures"])
