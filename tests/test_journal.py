"""Crash-safe store writes: one temp file, one atomic replace.

The contract under test: a ``kill -9`` at either step of a store write
leaves the entry either fully written or absent, never corrupt; the next
store open (and ``stats`` / ``clear``) removes the temp files of dead
writers and leaves a live writer's alone; and two processes writing the
same keys at once leave the same bytes as one process would, with no
lock.
"""

import gc
import hashlib
import json
import os
import signal
import subprocess
import sys
import zlib

import pytest

from repro.sim.cache import ResultCache
from repro.sim.checkpoint import CheckpointStore
from repro.sim.faults import flip_envelope_field
from repro.sim.journal import (
    ENVELOPE_FORMAT,
    HEADER_LEN,
    MAGIC,
    JournaledDir,
    encode_envelope,
    read_envelope,
    validate_envelope,
)

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Files the journaled store of earlier versions left in a directory.
RETIRED_FILES = ("journal.wal", ".lock")


@pytest.fixture(autouse=True)
def scrub_fault_env(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    yield
    os.environ.pop("REPRO_FAULT", None)


def write_entry(directory, key, data):
    path = os.path.join(directory, key + ".json")
    with open(path, "wb") as handle:
        handle.write(encode_envelope(data)[1])
    return path


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def write_bytes(path, blob):
    with open(path, "wb") as handle:
        handle.write(blob)


def dead_pid():
    """The PID of a child that has exited and been reaped."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def temp_names(directory):
    return sorted(name for name in os.listdir(directory)
                  if name.endswith(".tmp"))


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
        flip_envelope_field(altered, "v")
        assert "checksum mismatch" in validate_envelope(altered)
        torn_binary = write_entry(directory, "torn_binary", {"v": [1] * 99})
        write_bytes(torn_binary, read_bytes(torn_binary)[:-8])
        assert "unreadable" in validate_envelope(torn_binary)
        short = write_entry(directory, "short", {"v": 1})
        write_bytes(short, read_bytes(short)[:HEADER_LEN - 3])
        assert "unreadable" in validate_envelope(short)

    def test_committed_bytes_are_the_encoded_text(self, tmp_path):
        directory = str(tmp_path)
        data = {"workload": "w", "ipc": 1.25, "nested": {"b": [1, 2], "a": None}}
        path = os.path.join(directory, "k1.json")
        JournaledDir().commit("k1", path, encode_envelope(data)[1])
        checksum, blob = encode_envelope(data)
        raw = read_bytes(path)
        assert raw == blob
        # The header: magic, format byte, checksum of the stored payload.
        assert raw[:HEADER_LEN] == \
            MAGIC + bytes((ENVELOPE_FORMAT,)) + checksum.encode("ascii")
        payload = raw[HEADER_LEN:]
        assert hashlib.sha256(payload).hexdigest()[:16] == checksum
        # The payload: the compact JSON of the data, zlib-compressed.
        assert zlib.decompress(payload) == \
            json.dumps(data, separators=(",", ":")).encode("ascii")
        assert read_envelope(path) == (None, data)

    def test_whitespace_only_edit_is_a_checksum_mismatch(self, tmp_path):
        # A one-byte edit of the stored payload, caught by the checksum
        # before anything is decompressed.
        path = write_entry(str(tmp_path), "k1", {"a": 1, "b": [1, 2]})
        raw = read_bytes(path)
        assert json.loads(zlib.decompress(raw[HEADER_LEN:])) == \
            {"a": 1, "b": [1, 2]}
        write_bytes(path, raw[:-1] + bytes((raw[-1] ^ 1,)))
        assert validate_envelope(path) == \
            "checksum mismatch (payload altered on disk)"

    def test_text_envelope_at_a_live_key_is_never_served(self, tmp_path):
        """An entry of the text format (checkpoint format 4 and before)
        left at a key path is evicted as not an envelope by ``get`` and by
        ``stats``, never returned."""
        store = CheckpointStore(str(tmp_path))
        data = {"functional": 500, "lines": [1, 2, 3]}
        payload = json.dumps(data, separators=(",", ":"))
        text = '{"checksum": "%s", "data": %s}' % (
            hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16], payload)
        for reader in ("get", "stats"):
            with open(store._path("w-1000-500-abc"), "w") as handle:
                handle.write(text)
            with pytest.warns(RuntimeWarning, match="re-warmed"):
                if reader == "get":
                    assert store.get("w-1000-500-abc") is None
                else:
                    assert store.stats()["corrupt_evicted"] == 1
            assert store.entry_paths() == []
            assert store.pop_evictions() == [
                {"key": "w-1000-500-abc",
                 "reason": "not a checksummed checkpoint envelope"}]

    def test_read_restores_the_callers_gc_state(self, tmp_path):
        good = write_entry(str(tmp_path), "good", {"v": [[1], [2]]})
        # A checksummed payload that decompresses to torn JSON.
        torn = os.path.join(str(tmp_path), "torn.json")
        payload = zlib.compress(b'{"v": [[1], [2')
        write_bytes(torn, MAGIC + bytes((ENVELOPE_FORMAT,))
                    + hashlib.sha256(payload).hexdigest()[:16].encode("ascii")
                    + payload)
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


_KILL_COMMIT_CHILD = """\
import sys
sys.path.insert(0, %(src)r)
from repro.sim.cache import ResultCache
from repro.sim.checkpoint import CheckpointStore

class R:
    def __init__(self, data): self.data = data
    def as_dict(self): return self.data

cache = ResultCache(%(cache)r)
cache.put("victim-key", R({"v": 42}))
print("UNREACHABLE")
"""


class TestStaleTempSweep:
    @pytest.mark.parametrize("when", ["open", "stats", "clear"])
    def test_dead_writers_temp_is_removed_live_writers_kept(self, tmp_path,
                                                           when):
        cache_dir = str(tmp_path)
        kept = write_entry(cache_dir, "k1", {"v": 1})
        dead = "k1.json.%d.tmp" % dead_pid()
        live = "k1.json.%d.tmp" % os.getpid()
        if when != "open":
            cache = ResultCache(cache_dir)
        for name in (dead, live):
            with open(os.path.join(cache_dir, name), "w") as handle:
                handle.write('{"half-written')
        if when == "open":
            ResultCache(cache_dir)
        elif when == "stats":
            stats = cache.stats()
            assert (stats["entries"], stats["corrupt_evicted"]) == (1, 0)
        else:
            assert cache.clear() == 2  # the entry and the dead temp
            assert not os.path.exists(kept)
        assert temp_names(cache_dir) == [live]


_KILL_COMMIT_CHILD = """\
import sys
sys.path.insert(0, %(src)r)
from repro.sim.cache import ResultCache
from repro.sim.checkpoint import CheckpointStore

class R:
    def __init__(self, data): self.data = data
    def as_dict(self): return self.data

cache = ResultCache(%(cache)r)
cache.put("victim-key", R({"v": 42}))
print("UNREACHABLE")
"""


class TestKillCommitRecovery:
    @pytest.mark.parametrize("stage", ["payload", "replace"])
    def test_sigkill_mid_commit_is_recoverable(self, tmp_path, stage):
        """kill -9 at each write step: the entry is fully written or
        absent, never corrupt, and the dead writer's temp file is gone
        after the next open."""
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
        if stage == "payload":
            # Killed between the temp write and the replace.
            [temp] = temp_names(cache_dir)
            assert temp.startswith("victim-key.json.")
        fresh = ResultCache(cache_dir)
        assert temp_names(cache_dir) == []
        victim = fresh.get("victim-key")
        if stage == "replace":
            # Killed after os.replace: the entry is fully written.
            assert victim.data == {"v": 42}
        else:
            # Killed before the final file changed: entry simply absent.
            assert victim is None
        # Zero corrupt entries either way, no journal or lock files, and
        # the next write works.
        assert fresh.get("stable-key").data == {"v": 1}
        assert fresh.pop_evictions() == []
        assert not [name for name in RETIRED_FILES
                    if os.path.exists(os.path.join(cache_dir, name))]
        fresh.put("after-key", FakeResult({"v": 7}))
        assert fresh.get("after-key").data == {"v": 7}


_CONCURRENT_CHILD = """\
import sys
sys.path.insert(0, %(src)r)
from repro.sim.cache import ResultCache
from repro.sim.checkpoint import CheckpointStore

class R:
    def __init__(self, data): self.data = data
    def as_dict(self): return self.data

cache = ResultCache(%(cache)r)
print("ready", flush=True)
sys.stdin.read()  # start together
for _ in range(%(rounds)d):
    for i in range(20):
        cache.put("key-%%d" %% i, R({"i": i, "pad": [i] * 2000}))
"""


def fill(cache_dir, rounds):
    """A child process that writes the same 20 keys ``rounds`` times once
    its stdin closes."""
    return subprocess.Popen(
        [sys.executable, "-c", _CONCURRENT_CHILD
         % {"src": SRC_DIR, "cache": cache_dir, "rounds": rounds}],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


class TestConcurrentWriters:
    def test_two_processes_fill_the_same_keys(self, tmp_path):
        """Two writers of the same keys at once need no lock: every entry
        is byte-identical to a single-process fill."""
        alone, shared = str(tmp_path / "alone"), str(tmp_path / "shared")
        single = fill(alone, 1)
        _, err = single.communicate(timeout=120)
        assert single.returncode == 0, err.decode()
        procs = [fill(shared, 25) for _ in range(2)]
        for proc in procs:
            assert proc.stdout.readline() == b"ready\n"
        for proc in procs:
            proc.stdin.close()
        for proc in procs:
            proc.wait(timeout=120)
            assert proc.returncode == 0, proc.stderr.read().decode()
        # The 20 entries and nothing else: no temp, lock or journal file.
        assert sorted(os.listdir(shared)) == sorted(os.listdir(alone)) == \
            sorted("key-%d.json" % i for i in range(20))
        for name in os.listdir(alone):
            with open(os.path.join(alone, name), "rb") as handle:
                expected = handle.read()
            with open(os.path.join(shared, name), "rb") as handle:
                assert handle.read() == expected, name
        cache = ResultCache(shared)
        for i in range(20):
            assert cache.get("key-%d" % i).data["i"] == i
        assert cache.pop_evictions() == []
