"""The supervised shard pool (repro.sim.scheduler).

Byte-identity with the serial in-process engine is the core contract —
results must not depend on how many shards ran them — plus trace-affine
dispatch and the supervision paths: shard death recovery, the per-job
watchdog catching a frozen shard, and the job-retry cap bounding a shard
that dies on every incarnation.
"""

import contextlib
import json
import os
import signal
import time

import pytest

from conftest import quiet_config

from repro.sim.cache import ResultCache
from repro.sim.parallel import (
    CLASS_CRASH, SerialExecutor, _PendingJob, run_jobs,
)
from repro.sim.scheduler import ShardPool, _ShardSlot, trace_key

WORKLOADS = ["spec06_bzip2", "spec06_mcf", "spec06_perlbench", "spec06_gcc"]
LENGTH = 1200
WARMUP = 200


@pytest.fixture(autouse=True)
def shard_env(monkeypatch):
    for name in ("REPRO_FAULT", "REPRO_JOBS", "REPRO_JOB_TIMEOUT",
                 "REPRO_JOB_RETRIES"):
        monkeypatch.delenv(name, raising=False)
    yield
    os.environ.pop("REPRO_FAULT", None)


def jobs4(config=None):
    config = config or quiet_config()
    return [(name, config, LENGTH, WARMUP) for name in WORKLOADS]


@contextlib.contextmanager
def deadline(seconds):
    """Fail, rather than hang, when a supervision path never ends the run;
    the pool's shutdown then SIGKILLs the shards."""
    def expire(signum, frame):
        raise AssertionError("the run did not end within %ds" % seconds)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def payload(results):
    return json.dumps([r.data if r is not None else None for r in results],
                      sort_keys=True)


class TestShardEngineEquivalence:
    def test_results_byte_identical_to_serial_engine(self, tmp_path):
        ref, _ = run_jobs(jobs4(), cache=ResultCache(str(tmp_path / "a")),
                          max_workers=1)
        got, report = run_jobs(jobs4(), cache=ResultCache(str(tmp_path / "b")),
                               max_workers=2)
        assert payload(got) == payload(ref)
        assert report.workers == 2
        assert report.jobs_failed == 0
        assert report.drained is False

    def test_env_routes_through_shards(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        via_env, env_report = run_jobs(
            jobs4(), cache=ResultCache(str(tmp_path / "a")))
        assert env_report.workers == 2  # REPRO_JOBS sized the pool
        got, _ = run_jobs(jobs4(), cache=ResultCache(str(tmp_path / "b")),
                          max_workers=1)
        assert payload(got) == payload(via_env)

    def test_sampled_jobs_match_serial_engine(self, tmp_path):
        spec = {"samples": 2}
        jobs = [(name, quiet_config(), 4000, 1000, spec)
                for name in WORKLOADS[:2]]
        ref, _ = run_jobs(jobs, cache=ResultCache(str(tmp_path / "a")),
                          max_workers=1)
        got, _ = run_jobs(jobs, cache=ResultCache(str(tmp_path / "b")),
                          max_workers=2)
        assert payload(got) == payload(ref)


class TestShardSupervision:
    def test_killed_shard_requeues_and_recovers(self, tmp_path):
        os.environ["REPRO_FAULT"] = "kill_shard:shard=0:after=0"
        results, report = run_jobs(jobs4(), cache=ResultCache(str(tmp_path)),
                                   max_workers=2, retries=2, keep_going=True)
        assert all(r is not None for r in results)
        assert report.jobs_failed == 0
        crashes = [f for f in report.failures
                   if f["classification"] == "crash"]
        assert crashes and crashes[0]["recovered"] is True
        assert "died" in crashes[0]["detail"]

    def test_stopped_shard_is_caught_by_the_watchdog(self, tmp_path,
                                                     monkeypatch):
        # A SIGSTOPped shard keeps its pipe open, so no EOF ever arrives:
        # only the job's watchdog deadline can recover its job.
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "2")
        os.environ["REPRO_FAULT"] = "stop_shard:shard=0:after=0"
        with deadline(60):
            results, report = run_jobs(
                jobs4(), cache=ResultCache(str(tmp_path)), max_workers=2,
                retries=2, keep_going=True)
        assert all(r is not None for r in results)
        assert report.jobs_failed == 0
        timeouts = [f for f in report.failures
                    if f["classification"] == "timeout"]
        assert len(timeouts) == 1 and timeouts[0]["recovered"] is True
        assert "watchdog" in timeouts[0]["detail"]

    def test_job_retry_cap_bounds_a_shard_that_always_dies(self):
        # Every incarnation of shard 0 dies on its first job: attempts=99
        # keeps the fault alive across respawns.  The job's own retry
        # budget is the only bound, and execute must still return.
        os.environ["REPRO_FAULT"] = "kill_shard:shard=0:after=0:attempts=99"
        retries = 3
        pool = ShardPool(1, keep_going=True, retries=retries)
        pj = _PendingJob(
            "k0", (WORKLOADS[0], quiet_config(), LENGTH, WARMUP, None),
            0, None)
        done = []
        with deadline(60):
            pool.execute([pj], on_success=lambda p, d, s: done.append(d),
                         on_terminal=lambda p: done.append(None),
                         on_aborted=lambda p, detail: done.append(None),
                         on_retry=lambda p: None)
        assert done == [None]  # terminal, not aborted or succeeded
        assert pj.tries == retries + 1
        assert pj.last_class == "crash"
        deaths = [e for e in pool.events if e["event"] == "shard_died"]
        assert len(deaths) == retries + 1

    def test_kill_slot_reaps_a_stopped_shard_with_one_sigkill(self):
        pool = ShardPool(1)
        slot = pool._slots[0]
        pool._spawn(slot)
        process = slot.process
        os.kill(process.pid, signal.SIGSTOP)
        started = time.monotonic()
        pool._kill_slot(slot)
        assert time.monotonic() - started < 1.0
        assert process.exitcode == -signal.SIGKILL
        assert slot.process is None and slot.conn is None


class TestLanesAndAdmission:
    """Dispatch over the per-trace lanes: which queued job a free shard
    is admitted next."""

    def _job(self, index, name=None, length=LENGTH):
        name = name or WORKLOADS[index % len(WORKLOADS)]
        return _PendingJob(
            "k%d" % index, (name, quiet_config(), length, WARMUP, None),
            index, None)

    def _pool(self, jobs, shards=1):
        pool = ShardPool(shards)
        for pj in jobs:
            pool._enqueue(pj)
        return pool

    def test_requeued_retry_is_offered_on_the_same_pass(self):
        """A failed attempt goes back to the front of its lane and the
        next free shard takes it at once, ahead of the lane's rest."""
        first, second = self._job(0, "spec06_mcf"), self._job(1, "spec06_mcf")
        pool = self._pool([first, second])
        slot = pool._slots[0]
        assert pool._next_ready(slot) is first
        pool._fail_attempt(first, CLASS_CRASH, "shard died", None)
        assert first.tries == 1
        assert pool._next_ready(slot) is first
        assert pool._next_ready(slot) is second
        assert pool._next_ready(slot) is None

    def test_serial_executor_retries_a_crash_in_place_at_once(self,
                                                             monkeypatch):
        """The in-process executor reruns a crashed job straight away,
        before the rest of its lane, without sleeping."""
        first, second = self._job(0, "spec06_mcf"), self._job(1, "spec06_mcf")
        order, slept = [], []
        monkeypatch.setattr(time, "sleep", slept.append)
        os.environ["REPRO_FAULT"] = "crash:job=0:attempts=1"
        SerialExecutor().execute(
            [first, second],
            on_success=lambda pj, data, seconds: order.append(("ok", pj)),
            on_retry=lambda pj: order.append(("retry", pj)))
        assert order == [("retry", first), ("ok", first), ("ok", second)]
        assert slept == []

    def test_shards_stay_on_their_trace(self):
        """6 trace keys x 8 jobs on 2 shards, submitted config-major (the
        order run_matrix builds): no shard leaves a trace that still has
        queued jobs, and the pool switches traces at most keys + shards
        times in all."""
        keys = [("spec06_mcf", 1000 * (k + 1)) for k in range(6)]
        jobs = [self._job(8 * k + j, name, length)
                for j in range(8) for k, (name, length) in enumerate(keys)]
        pool = self._pool(jobs, shards=2)
        slots = pool._slots = [_ShardSlot(0), _ShardSlot(1)]
        remaining = {key: 8 for key in keys}
        switches = 0
        turn = 0
        while pool._lanes:
            slot = slots[turn % 2]
            turn += 1
            pj = pool._next_ready(slot)
            key = trace_key(pj.job)
            if key != slot.trace_key:
                assert remaining.get(slot.trace_key, 0) == 0, (
                    "shard %d left %r with jobs queued"
                    % (slot.index, slot.trace_key))
                switches += 1
            slot.trace_key = key
            remaining[key] -= 1
        assert sum(remaining.values()) == 0
        assert switches <= len(keys) + len(slots)

    def test_free_shard_prefers_an_unheld_trace(self):
        a0, a1, b0 = (self._job(0, "spec06_mcf"), self._job(1, "spec06_mcf"),
                      self._job(2, "spec06_gcc"))
        pool = self._pool([a0, a1, b0], shards=2)
        first, second = pool._slots = [_ShardSlot(0), _ShardSlot(1)]
        assert pool._next_ready(first) is a0
        first.trace_key = trace_key(a0.job)
        assert pool._next_ready(second) is b0   # not a1: first holds it
        second.trace_key = trace_key(b0.job)
        assert pool._next_ready(second) is a1   # queue head, last resort
