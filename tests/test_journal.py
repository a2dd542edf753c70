"""Crash-safe journaled store: WAL replay, file locking, kill -9 commits.

The contract under test: a ``kill -9`` at *any* instant of a store
commit leaves the entry either fully written or cleanly recoverable —
replay on the next open removes orphan temp files, evicts torn finals,
keeps valid envelopes, and leaves the journal empty (at rest).  The
inter-process file lock serializes writers and survives holder death via
stale-PID takeover.
"""

import gc
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.sim import faults
from repro.sim.cache import ResultCache
from repro.sim.journal import (
    FileLock,
    Journal,
    JournaledDir,
    LockTimeout,
    encode_envelope,
    read_envelope,
    validate_envelope,
)

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def scrub_fault_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    faults._torn_fired.clear()
    yield
    os.environ.pop("REPRO_FAULT", None)
    faults._torn_fired.clear()


def write_entry(directory, key, data):
    path = os.path.join(directory, key + ".json")
    with open(path, "w") as handle:
        handle.write(encode_envelope(data)[1])
    return path


class TestFileLock:
    def test_acquire_creates_and_release_removes(self, tmp_path):
        lock = FileLock(str(tmp_path / ".lock"))
        with lock:
            assert os.path.exists(str(tmp_path / ".lock"))
        assert not os.path.exists(str(tmp_path / ".lock"))

    def test_contention_times_out(self, tmp_path):
        path = str(tmp_path / ".lock")
        holder = FileLock(path)
        holder.acquire()
        try:
            waiter = FileLock(path, timeout=0.2, poll_interval=0.01)
            started = time.monotonic()
            with pytest.raises(LockTimeout, match="held by"):
                waiter.acquire()
            assert time.monotonic() - started < 5
        finally:
            holder.release()

    def test_stale_pid_is_taken_over(self, tmp_path):
        path = str(tmp_path / ".lock")
        # A lockfile owned by a process that no longer exists: pick a pid
        # from a child that has already exited.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        with open(path, "w") as handle:
            handle.write("%d\n" % child.pid)
        lock = FileLock(path, timeout=5)
        lock.acquire()  # must steal, not time out
        lock.release()
        assert not os.path.exists(path)

    def test_live_pid_is_respected(self, tmp_path):
        path = str(tmp_path / ".lock")
        with open(path, "w") as handle:
            handle.write("%d\n" % os.getpid())  # us: definitely alive
        lock = FileLock(path, timeout=0.2, poll_interval=0.01)
        with pytest.raises(LockTimeout):
            lock.acquire()


class TestJournalReplay:
    def test_commit_truncates_to_at_rest(self, tmp_path):
        journal = Journal(str(tmp_path))
        seq = journal.begin("k1", "k1.json", "k1.json.tmp", "abcd")
        assert journal.needs_replay()
        journal.commit(seq)
        assert not journal.needs_replay()
        assert os.path.getsize(journal.path) == 0

    def test_dangling_intent_removes_tmp_and_evicts_torn_final(
            self, tmp_path):
        directory = str(tmp_path)
        journal = Journal(directory)
        journal.begin("k1", "k1.json", "k1.json.tmp", "abcd")
        with open(os.path.join(directory, "k1.json.tmp"), "w") as handle:
            handle.write('{"half')
        with open(os.path.join(directory, "k1.json"), "w") as handle:
            handle.write('{"checksum": "abcd", "data": {"tor')
        summary = journal.replay()
        assert summary["pending"] == 1
        assert summary["removed_tmp"] == 1
        assert [e["key"] for e in summary["evicted"]] == ["k1"]
        assert not os.path.exists(os.path.join(directory, "k1.json"))
        assert not os.path.exists(os.path.join(directory, "k1.json.tmp"))
        assert not journal.needs_replay()  # replay checkpoints the log

    def test_valid_final_is_kept_old_or_new(self, tmp_path):
        # Crash before os.replace: the final file is the *old* valid
        # envelope and must survive replay untouched.
        directory = str(tmp_path)
        path = write_entry(directory, "k1", {"v": 1})
        journal = Journal(directory)
        journal.begin("k1", "k1.json", "k1.json.tmp", "different-checksum")
        summary = journal.replay()
        assert summary["kept"] == 1
        assert summary["evicted"] == []
        with open(path) as handle:
            assert json.load(handle)["data"] == {"v": 1}

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        directory = str(tmp_path)
        journal = Journal(directory)
        seq = journal.begin("k1", "k1.json", "k1.json.tmp", "abcd")
        journal.commit(seq)
        with open(journal.path, "a") as handle:
            handle.write('{"op": "intent", "seq": "torn')  # crash mid-append
        summary = journal.replay()
        assert summary["torn_tail"] is True
        assert not journal.needs_replay()

    def test_journaled_dir_recover_cheap_at_rest(self, tmp_path):
        directory = str(tmp_path)
        journaled = JournaledDir(directory)
        journaled.commit("k1", os.path.join(directory, "k1.json"),
                         *encode_envelope({"v": 1}))
        assert journaled.recover() == []
        # At rest: journal empty, no lock left behind, entry valid.
        assert os.path.getsize(os.path.join(directory,
                                            Journal.FILENAME)) == 0
        assert not os.path.exists(os.path.join(directory,
                                               JournaledDir.LOCK_FILENAME))
        assert validate_envelope(os.path.join(directory, "k1.json")) is None


class TestValidateEnvelope:
    def test_classifications(self, tmp_path):
        directory = str(tmp_path)
        good = write_entry(directory, "good", {"v": 1})
        assert validate_envelope(good) is None
        torn = os.path.join(directory, "torn.json")
        with open(torn, "w") as handle:
            handle.write('{"checksum": "x", "data": {"tor')
        assert "unreadable" in validate_envelope(torn)
        legacy = os.path.join(directory, "legacy.json")
        with open(legacy, "w") as handle:
            json.dump({"v": 1}, handle)
        assert "envelope" in validate_envelope(legacy)
        altered = write_entry(directory, "altered", {"v": 1})
        with open(altered) as handle:
            env = json.load(handle)
        env["data"]["v"] = 2
        with open(altered, "w") as handle:
            json.dump(env, handle)
        assert "checksum mismatch" in validate_envelope(altered)

    def test_committed_bytes_are_the_encoded_text(self, tmp_path):
        directory = str(tmp_path)
        data = {"workload": "w", "ipc": 1.25, "nested": {"b": [1, 2], "a": None}}
        path = os.path.join(directory, "k1.json")
        JournaledDir(directory).commit("k1", path, *encode_envelope(data))
        checksum, text = encode_envelope(data)
        with open(path, "rb") as handle:
            assert handle.read() == text.encode("utf-8")
        with open(path) as handle:
            assert json.load(handle) == {"checksum": checksum, "data": data}
        assert read_envelope(path) == (None, data)

    def test_whitespace_only_edit_is_a_checksum_mismatch(self, tmp_path):
        # Still valid JSON with an equal payload: only the bytes differ.
        path = write_entry(str(tmp_path), "k1", {"a": 1, "b": [1, 2]})
        with open(path) as handle:
            text = handle.read()
        assert '"b": [1, 2]' in text
        with open(path, "w") as handle:
            handle.write(text.replace('"b": [1, 2]', '"b": [1,  2]'))
        with open(path) as handle:
            assert json.load(handle)["data"] == {"a": 1, "b": [1, 2]}
        assert validate_envelope(path) == \
            "checksum mismatch (payload altered on disk)"

    def test_read_restores_the_callers_gc_state(self, tmp_path):
        good = write_entry(str(tmp_path), "good", {"v": [[1], [2]]})
        torn = os.path.join(str(tmp_path), "torn.json")
        with open(torn, "w") as handle:
            handle.write('{"checksum": "x", "data": {"tor')
        was_enabled = gc.isenabled()
        try:
            gc.enable()
            assert read_envelope(good) == (None, {"v": [[1], [2]]})
            assert gc.isenabled()
            assert "unreadable" in read_envelope(torn)[0]  # ValueError path
            assert gc.isenabled()
            gc.disable()
            assert read_envelope(good)[0] is None
            assert not gc.isenabled()
            assert "unreadable" in read_envelope(torn)[0]
            assert not gc.isenabled()
        finally:
            if was_enabled:
                gc.enable()
            else:
                gc.disable()


class FakeResult(object):
    def __init__(self, data):
        self.data = data

    def as_dict(self):
        return self.data


class TestCacheJournalIntegration:
    def test_torn_write_fault_recovers_on_next_open(self, tmp_path):
        cache_dir = str(tmp_path)
        cache = ResultCache(cache_dir)
        cache.put("stable-key", FakeResult({"v": 1}))
        os.environ["REPRO_FAULT"] = "torn_write:key=victim"
        cache.put("victim-key", FakeResult({"v": 2}))
        del os.environ["REPRO_FAULT"]
        # The fault left a dangling intent + torn final behind.
        journal_path = os.path.join(cache_dir, Journal.FILENAME)
        assert os.path.getsize(journal_path) > 0
        # A fresh open replays: torn final evicted, survivor intact, and
        # the incident lands on the eviction log for the manifest.
        fresh = ResultCache(cache_dir)
        assert fresh.get("victim-key") is None
        evictions = fresh.pop_evictions()
        assert any(e["key"] == "victim-key" for e in evictions)
        assert fresh.get("stable-key").data == {"v": 1}
        assert os.path.getsize(journal_path) == 0
        # The re-commit of the same key lands intact (attempts=1 spent).
        os.environ["REPRO_FAULT"] = "torn_write:key=victim"
        faults._torn_fired["victim"] = 1  # simulate the spent budget
        fresh.put("victim-key", FakeResult({"v": 2}))
        assert fresh.get("victim-key").data == {"v": 2}


_KILL_COMMIT_CHILD = """\
import sys
sys.path.insert(0, %(src)r)
from repro.sim.cache import ResultCache

class R:
    def __init__(self, data): self.data = data
    def as_dict(self): return self.data

cache = ResultCache(%(cache)r)
cache.put("victim-key", R({"v": 42}))
print("UNREACHABLE")
"""


class TestKillCommitRecovery:
    @pytest.mark.parametrize("stage", ["intent", "payload", "replace"])
    def test_sigkill_mid_commit_is_recoverable(self, tmp_path, stage):
        """kill -9 at each commit stage: the store is fully written or
        cleanly recovered; never torn, never locked shut."""
        cache_dir = str(tmp_path)
        ResultCache(cache_dir).put("stable-key", FakeResult({"v": 1}))
        env = dict(os.environ)
        env["REPRO_FAULT"] = "kill_commit:key=victim:at=%s" % stage
        proc = subprocess.run(
            [sys.executable, "-c",
             _KILL_COMMIT_CHILD % {"src": SRC_DIR, "cache": cache_dir}],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == -signal.SIGKILL
        assert "UNREACHABLE" not in proc.stdout
        fresh = ResultCache(cache_dir)
        victim = fresh.get("victim-key")
        if stage == "replace":
            # Killed after os.replace: the entry is fully written and
            # replay keeps it (a valid envelope, commit record missing).
            assert victim.data == {"v": 42}
        else:
            # Killed before the final file changed: entry simply absent.
            assert victim is None
        # Zero corrupt entries either way, no strays, journal at rest,
        # and the dead holder's lock was taken over.
        assert fresh.get("stable-key").data == {"v": 1}
        assert [e for e in fresh.pop_evictions()
                if "corrupt" in e.get("reason", "")] == []
        assert not [name for name in os.listdir(cache_dir)
                    if name.endswith(".tmp")]
        assert os.path.getsize(os.path.join(cache_dir,
                                            Journal.FILENAME)) == 0
        fresh.put("after-key", FakeResult({"v": 7}))  # lock not wedged
        assert fresh.get("after-key").data == {"v": 7}


_CONCURRENT_CHILD = """\
import sys
sys.path.insert(0, %(src)r)
from repro.sim.cache import ResultCache

class R:
    def __init__(self, data): self.data = data
    def as_dict(self): return self.data

cache = ResultCache(%(cache)r)
for i in range(20):
    cache.put("w%(tag)s-%%d" %% i, R({"writer": %(tag)r, "i": i}))
"""


class TestConcurrentWriters:
    def test_two_processes_share_one_journal(self, tmp_path):
        cache_dir = str(tmp_path)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _CONCURRENT_CHILD
                 % {"src": SRC_DIR, "cache": cache_dir, "tag": tag}],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for tag in ("a", "b")
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        cache = ResultCache(cache_dir)
        for tag in ("a", "b"):
            for i in range(20):
                assert cache.get("w%s-%d" % (tag, i)).data["i"] == i
        assert cache.pop_evictions() == []
        assert os.path.getsize(os.path.join(cache_dir,
                                            Journal.FILENAME)) == 0
