"""The supervised shard pool (repro.sim.scheduler).

Byte-identity with the serial in-process engine is the core contract —
results must not depend on how many shards ran them — plus trace-affine
dispatch and the supervision paths: shard death recovery, heartbeat
quarantine and crash-loop detection.
"""

import json
import os

import pytest

from conftest import quiet_config

from repro.sim import scheduler
from repro.sim.cache import ResultCache
from repro.sim.parallel import _PendingJob, run_jobs
from repro.sim.scheduler import ShardPool, _ShardSlot, trace_key

WORKLOADS = ["spec06_bzip2", "spec06_mcf", "spec06_perlbench", "spec06_gcc"]
LENGTH = 1200
WARMUP = 200


@pytest.fixture(autouse=True)
def shard_env(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
    monkeypatch.setenv("REPRO_RESPAWN_BACKOFF", "0.05")
    for name in ("REPRO_FAULT", "REPRO_JOBS", "REPRO_JOB_TIMEOUT",
                 "REPRO_JOB_RETRIES"):
        monkeypatch.delenv(name, raising=False)
    yield
    os.environ.pop("REPRO_FAULT", None)


def jobs4(config=None):
    config = config or quiet_config()
    return [(name, config, LENGTH, WARMUP) for name in WORKLOADS]


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

    def test_wedged_shard_is_quarantined(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT_INTERVAL", "0.05")
        monkeypatch.setenv("REPRO_HEARTBEAT_MISSES", "5")
        os.environ["REPRO_FAULT"] = "hang_heartbeat:shard=0:seconds=30:after=0"
        results, report = run_jobs(jobs4(), cache=ResultCache(str(tmp_path)),
                                   max_workers=2, retries=2, keep_going=True)
        assert all(r is not None for r in results)
        assert report.jobs_failed == 0
        quarantined = [f for f in report.failures
                       if "quarantined" in (f.get("detail") or "")]
        assert quarantined and quarantined[0]["classification"] == "timeout"

    def test_crash_loop_emits_quarantine_event(self, tmp_path, monkeypatch):
        # Every incarnation of shard 0 dies on its first job: attempts=99
        # keeps the fault alive across respawns, so the slot crash-loops.
        os.environ["REPRO_FAULT"] = "kill_shard:shard=0:after=0:attempts=99"
        monkeypatch.setattr(scheduler, "CRASH_LOOP_LIMIT", 2)
        monkeypatch.setattr(scheduler, "CRASH_LOOP_WINDOW", 60.0)
        monkeypatch.setenv("REPRO_RESPAWN_BACKOFF", "0.02")
        pool = ShardPool(1, keep_going=True, retries=5)
        pj = _PendingJob(
            "k0", (WORKLOADS[0], quiet_config(), LENGTH, WARMUP, None),
            0, None)
        done = []
        pool.execute([pj], on_success=lambda p, d, s: done.append(d),
                     on_terminal=lambda p: done.append(None),
                     on_aborted=lambda p, detail: done.append(None),
                     on_retry=lambda p: None)
        assert len(done) == 1 and done[0] is None  # retries exhausted
        kinds = [e["event"] for e in pool.events]
        assert "quarantine" in kinds
        assert any(e.get("crash_loop") for e in pool.events
                   if e["event"] == "quarantine")


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

    def test_backoff_job_is_skipped_until_eligible(self):
        ready, backing_off = self._job(0), self._job(1)
        backing_off.next_start = 10.0
        pool = self._pool([backing_off, ready])
        slot = pool._slots[0]
        assert pool._next_ready(slot, 0.0) is ready
        assert pool._next_ready(slot, 0.0) is None      # only ineligible left
        assert pool._next_ready(slot, 11.0) is backing_off

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
            pj = pool._next_ready(slot, 0.0)
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
        assert pool._next_ready(first, 0.0) is a0
        first.trace_key = trace_key(a0.job)
        assert pool._next_ready(second, 0.0) is b0   # not a1: first holds it
        second.trace_key = trace_key(b0.job)
        assert pool._next_ready(second, 0.0) is a1   # queue head, last resort
