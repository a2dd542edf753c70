"""The on-disk store: envelope codec, journal, lock, and :class:`EnvelopeStore`.

The result cache and the checkpoint store are two instances of one store
class, :class:`EnvelopeStore`: a directory of checksummed
``{"checksum", "data"}`` envelopes, one file per key.  A write goes to a
per-process temp file and is then ``os.replace``d into place.  That is
atomic against *readers*, but a ``kill -9`` mid-commit can still strand
temp files, and two unrelated ``repro suite`` processes filling one
directory interleave commits with no coordination at all.  This module
owns the envelope format and the store and closes both gaps:

- :func:`encode_envelope` / :func:`read_envelope` — the one codec both
  stores write and read through.  A file is exactly the text
  ``{"checksum": "<hex>", "data": <payload>}`` where ``<payload>`` is one
  ``json.dumps`` of the data and ``<hex>`` is the first 16 hex digits of
  the sha256 of those payload bytes.  A read hashes the ``data`` bytes as
  they sit on disk, so any byte edit — whitespace included — is a
  checksum mismatch; nothing is re-serialised to check it.  The read
  pauses cyclic GC around ``json.loads`` (the decoded JSON is acyclic and
  a checkpoint decodes into tens of thousands of small lists) and puts
  the caller's GC state back afterwards.
- :class:`FileLock` — an inter-process mutex built from an ``O_EXCL``
  lockfile containing the holder's PID.  A lockfile whose PID is no longer
  alive (the holder was SIGKILLed mid-commit) is taken over; a live holder
  makes the second process wait, so concurrent sweeps over one cache
  directory serialize their commits instead of interleaving them.
- :class:`Journal` — a JSONL write-ahead log.  Every commit appends a
  fsync'd *intent* record (key, final filename, temp filename, payload
  checksum) before the payload is written, and a *commit* record after the
  atomic ``os.replace``; the journal is then truncated (the WAL
  checkpoint).  A crash at any instant leaves at most one dangling intent,
  and :meth:`Journal.replay` — run automatically the first time a store
  touches its directory — restores the invariant: orphaned temp files are
  removed, a torn final file is evicted, and a final file that is still a
  valid self-consistent envelope is **kept** (it is either the completed
  new version or the untouched old one; both are correct, and deleting the
  old version on an early crash would turn a non-loss into a loss).
- :class:`JournaledDir` — the bundle of both, exposing the
  :meth:`~JournaledDir.commit` sequence every store write goes through:
  ``lock -> intent -> payload (fsync) -> os.replace -> commit -> truncate``.
- :class:`EnvelopeStore` — the store itself.  Every read replays an
  interrupted commit, then validates the file on disk; a truncated,
  malformed, non-envelope or checksum-mismatched entry is **evicted**
  (removed with a warning naming the key and reason, and logged on
  :attr:`~EnvelopeStore.eviction_log` for the failure manifest), so a
  corrupt file costs one redundant simulation or warm, never a wrong
  figure.  Subclasses declare only the file suffix, the wording of their
  warnings, their ``REPRO_FAULT`` corruption flavour, the key, and the
  payload conversions.

Fault hooks (:mod:`repro.sim.faults`): ``kill_commit:key=K:at=STAGE``
SIGKILLs the process at a chosen point inside the commit sequence and
``torn_write:key=K`` leaves a deliberately truncated final file with no
commit record — both exist so CI can prove the recovery path, not assume
it.

A commit waits at most :data:`LOCK_TIMEOUT` seconds for the directory
lock.
"""

import errno
import gc
import hashlib
import json
import os
import time
import warnings

from repro.sim import faults, settings


#: Seconds a commit waits for the directory lock before LockTimeout.
LOCK_TIMEOUT = 30.0


class LockTimeout(RuntimeError):
    """A :class:`FileLock` could not be acquired within its timeout."""


def _pid_alive(pid):
    """Best-effort liveness probe: is any process with ``pid`` running?"""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return True  # unknown: assume alive rather than steal a live lock
    return True


class FileLock(object):
    """Inter-process mutex: ``O_EXCL`` lockfile + stale-PID takeover.

    The lockfile holds the owner's PID.  Acquisition loops on
    ``O_CREAT | O_EXCL`` (atomic on POSIX); on contention the PID inside
    the existing file is probed with ``os.kill(pid, 0)`` — a dead owner
    (e.g. SIGKILLed mid-commit) has its lockfile removed and the loop
    retries immediately, a live owner makes us poll until ``timeout``.

    The takeover unlink is best-effort: two waiters that both judge the
    same lockfile stale can race, and the loser may briefly co-hold.  The
    journal's replay-by-validation makes that window harmless (a torn
    write is detected by checksum, never trusted), which is why the
    classic unlink race is acceptable here.
    """

    def __init__(self, path, timeout=None, poll_interval=0.01):
        self.path = path
        self.timeout = timeout if timeout is not None else LOCK_TIMEOUT
        self.poll_interval = poll_interval
        self._held = False

    def acquire(self):
        deadline = time.monotonic() + self.timeout
        payload = ("%d\n" % os.getpid()).encode("ascii")
        while True:
            try:
                fd = os.open(self.path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            except FileExistsError:
                if self._takeover_if_stale():
                    continue
                if time.monotonic() >= deadline:
                    raise LockTimeout(
                        "could not acquire %s within %.1fs (held by %s)"
                        % (self.path, self.timeout, self._owner_repr())
                    )
                time.sleep(self.poll_interval)
                continue
            except OSError as exc:
                if exc.errno == errno.ENOENT:
                    # Directory vanished mid-acquire (concurrent clear).
                    os.makedirs(os.path.dirname(self.path) or ".",
                                exist_ok=True)
                    continue
                raise
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)
            self._held = True
            return self

    def _read_owner(self):
        try:
            with open(self.path) as handle:
                return int(handle.read().strip() or "0")
        except (OSError, ValueError):
            return None

    def _owner_repr(self):
        owner = self._read_owner()
        return "pid %d" % owner if owner else "unknown pid"

    def _takeover_if_stale(self):
        """Remove the lockfile if its owner is provably dead.  Returns True
        when the caller should retry acquisition immediately."""
        owner = self._read_owner()
        if owner is None:
            # Unreadable or not-yet-written: the creator may be between
            # open and write.  Only steal once the file has clearly been
            # abandoned for a while.
            try:
                age = time.time() - os.path.getmtime(self.path)
            except OSError:
                return True  # gone already: retry
            if age < 30.0:
                return False
        elif _pid_alive(owner):
            return False
        try:
            os.unlink(self.path)
        except OSError:
            pass  # someone else took it over first
        return True

    def release(self):
        if not self._held:
            return
        self._held = False
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *_exc_info):
        self.release()
        return False


def _fsync_file(handle):
    handle.flush()
    os.fsync(handle.fileno())


UNREADABLE = "unreadable (truncated or malformed JSON)"
CHECKSUM_MISMATCH = "checksum mismatch (payload altered on disk)"


def _head(checksum):
    """Envelope text up to the payload; the file ends with ``}`` after it."""
    return '{"checksum": "%s", "data": ' % checksum


_HEAD_LEN = len(_head("0" * 16))


def _digest(payload):
    """Envelope checksum of the payload bytes."""
    return hashlib.sha256(payload).hexdigest()[:16]


def encode_envelope(data):
    """``(checksum, text)`` of the envelope file holding ``data``.

    ``text`` is written verbatim; ``checksum`` hashes its payload bytes
    and is also quoted in the journal's intent record.
    """
    payload = json.dumps(data)
    checksum = _digest(payload.encode("utf-8"))
    return checksum, _head(checksum) + payload + "}"


def read_envelope(path, kind=None):
    """Read and classify the envelope file at ``path``.

    Returns ``(reason, data)``: ``(None, payload dict)`` for a valid
    envelope, else ``(reason, None)`` with one of the store's corruption
    classes — unreadable, not an envelope (worded ``"not a checksummed
    <kind> envelope"``), or checksum mismatch.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError:
        return UNREADABLE, None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        envelope = json.loads(raw)
    except ValueError:
        return UNREADABLE, None
    finally:
        if gc_was_enabled:
            gc.enable()
    if (
        not isinstance(envelope, dict)
        or "checksum" not in envelope
        or not isinstance(envelope.get("data"), dict)
    ):
        return "not a checksummed %senvelope" % (
            kind + " " if kind else ""), None
    checksum = _digest(memoryview(raw)[_HEAD_LEN:-1])
    if (
        envelope["checksum"] != checksum
        or not raw.startswith(_head(checksum).encode("ascii"))
        or not raw.endswith(b"}")
    ):
        return CHECKSUM_MISMATCH, None
    return None, envelope["data"]


def validate_envelope(path):
    """None when the file at ``path`` is a fully-written, self-consistent
    envelope, else the :func:`read_envelope` corruption reason."""
    return read_envelope(path)[0]


class Journal(object):
    """JSONL write-ahead log for one store directory.

    At rest the journal is empty (every commit truncates it after its
    commit record), so the recovery scan — a single ``os.path.getsize`` —
    is free on the hot path.  A non-empty journal means a commit was
    interrupted; :meth:`replay` then re-establishes the store invariant.
    """

    FILENAME = "journal.wal"

    def __init__(self, directory):
        self.directory = directory
        self.path = os.path.join(directory, self.FILENAME)
        self._counter = 0

    def _append(self, record, fsync):
        with open(self.path, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            if fsync:
                _fsync_file(handle)

    def begin(self, key, final_name, tmp_name, checksum):
        """Durably record the intent to replace ``final_name``; returns the
        sequence id the matching :meth:`commit` must quote."""
        self._counter += 1
        seq = "%d.%d" % (os.getpid(), self._counter)
        self._append({"op": "intent", "seq": seq, "key": key,
                      "file": final_name, "tmp": tmp_name,
                      "checksum": checksum}, fsync=True)
        return seq

    def commit(self, seq):
        """Record completion of ``seq`` and checkpoint (truncate) the log."""
        self._append({"op": "commit", "seq": seq}, fsync=False)
        with open(self.path, "r+") as handle:
            handle.truncate(0)

    def needs_replay(self):
        """Cheap at-rest probe: True only when a commit was interrupted."""
        try:
            return os.path.getsize(self.path) > 0
        except OSError:
            return False

    def _parse(self):
        """Journal records plus a flag for a torn (partial) trailing line."""
        records = []
        torn_tail = False
        try:
            with open(self.path) as handle:
                lines = handle.read().splitlines()
        except OSError:
            return records, torn_tail
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # A crash mid-append leaves a partial last line; anything
                # unparsable is treated the same way (never trusted).
                torn_tail = True
                continue
            if isinstance(record, dict):
                records.append(record)
        return records, torn_tail

    def replay(self):
        """Roll the directory forward to a clean state.

        For every intent with no commit record: the orphaned temp file is
        removed, and the final file is kept only if it is a valid
        self-consistent envelope (either the completed new version or the
        untouched old one — indistinguishable, and both correct); a torn
        final file is evicted.  Returns a summary dict, or None when the
        journal was already empty.
        """
        if not self.needs_replay():
            return None
        summary = {"pending": 0, "committed": 0, "removed_tmp": 0,
                   "kept": 0, "evicted": [], "torn_tail": False}
        records, summary["torn_tail"] = self._parse()
        committed = {r.get("seq") for r in records if r.get("op") == "commit"}
        for record in records:
            if record.get("op") != "intent":
                continue
            if record.get("seq") in committed:
                summary["committed"] += 1
                continue
            summary["pending"] += 1
            tmp_name = record.get("tmp")
            if tmp_name:
                tmp = os.path.join(self.directory, tmp_name)
                if os.path.exists(tmp):
                    try:
                        os.remove(tmp)
                        summary["removed_tmp"] += 1
                    except OSError:
                        pass
            final_name = record.get("file")
            if not final_name:
                continue
            final = os.path.join(self.directory, final_name)
            if not os.path.exists(final):
                continue
            reason = validate_envelope(final)
            if reason is None:
                summary["kept"] += 1
                continue
            try:
                os.remove(final)
            except OSError:
                pass
            summary["evicted"].append(
                {"key": record.get("key", final_name), "reason": reason}
            )
        try:
            with open(self.path, "r+") as handle:
                handle.truncate(0)
        except OSError:
            pass
        return summary


class JournaledDir(object):
    """Lock + journal for one store directory; owns the commit sequence."""

    LOCK_FILENAME = ".lock"

    def __init__(self, directory):
        self.directory = directory
        self.journal = Journal(directory)
        self.lock = FileLock(os.path.join(directory, self.LOCK_FILENAME))
        #: Most recent non-trivial :meth:`recover` summary (diagnostics).
        self.last_replay = None

    def recover(self):
        """Replay an interrupted commit, if any.  Cheap (one stat) when the
        journal is at rest; evictions are returned as ``{"key", "reason"}``
        dicts for the store's eviction log."""
        if not self.journal.needs_replay():
            return []
        with self.lock:
            summary = self.journal.replay()
        if summary is None:
            return []
        self.last_replay = summary
        return summary["evicted"]

    def commit(self, key, path, checksum, text):
        """The full journaled commit sequence for one envelope.

        lock -> intent (fsync) -> temp payload (fsync) -> ``os.replace``
        -> commit record -> journal truncate.  ``checksum`` and ``text``
        are :func:`encode_envelope`'s output; the text goes to the temp
        file in one ``write``.  The ``kill_commit`` /
        ``torn_write`` fault hooks between the stages are no-ops (one env
        lookup) unless ``REPRO_FAULT`` requests them.
        """
        tmp = "%s.%d.tmp" % (path, os.getpid())
        with self.lock:
            seq = self.journal.begin(key, os.path.basename(path),
                                     os.path.basename(tmp), checksum)
            faults.fire_commit_faults(key, "intent")
            with open(tmp, "w") as handle:
                handle.write(text)
                _fsync_file(handle)
            faults.fire_commit_faults(key, "payload")
            if faults.torn_write_requested(key):
                # Simulate a crash that left a half-written final file and
                # no commit record: replay must evict it.
                with open(path, "w") as handle:
                    handle.write(text[: max(1, len(text) // 2)])
                try:
                    os.remove(tmp)
                except OSError:
                    pass
                return
            os.replace(tmp, path)
            faults.fire_commit_faults(key, "replace")
            self.journal.commit(seq)


class EnvelopeStore(object):
    """A directory of checksummed envelopes, one ``<key><SUFFIX>`` file
    per entry, every write a journaled commit (see the module doc).

    Subclasses declare the class attributes below, ``key()``, and the
    public ``get`` / ``put``, which convert payloads around
    :meth:`_read` / :meth:`_write`.
    """

    #: File-name suffix of an entry.
    SUFFIX = None
    #: Setting that names the default directory.
    DIR_SETTING = None
    #: :func:`read_envelope` kind ("not a checksummed <kind> envelope").
    KIND = None
    #: Eviction warning: "evicted corrupt <LABEL> <key>: <reason> — <CONSEQUENCE>".
    LABEL = None
    CONSEQUENCE = None
    #: ``REPRO_FAULT`` corruption flavour and the payload field that its
    #: ``how=flip`` mode alters.
    FAULT = None
    FLIP_FIELD = None

    def __init__(self, directory=None):
        if directory is None:
            directory = settings.get(self.DIR_SETTING)
        self.directory = directory
        self.hits = 0
        self.misses = 0
        #: Corruption incidents seen by this process (dicts with ``key``
        #: and ``reason``), drained via :meth:`pop_evictions`.
        self.eviction_log = []
        self.journaled = JournaledDir(directory)

    def _path(self, key):
        return os.path.join(self.directory, key + self.SUFFIX)

    def _recover(self):
        """Replay an interrupted commit; free (one stat) when at rest."""
        self.eviction_log.extend(self.journaled.recover())

    def _read(self, key):
        """The payload stored under ``key``, or None on a miss (a corrupt
        entry is evicted and counts as a miss)."""
        path = self._path(key)
        self._recover()
        # Deterministic fault injection (REPRO_FAULT=<FAULT>:key=...):
        # no-op — a single env lookup — unless faults are requested.
        faults.corrupt_envelope_file(self.FAULT, self.FLIP_FIELD, key, path)
        if not os.path.exists(path):
            self.misses += 1
            return None
        reason, data = read_envelope(path, self.KIND)
        if reason is not None:
            self._evict(key, path, reason, stacklevel=4)
            self.misses += 1
            return None
        self.hits += 1
        return data

    def _write(self, key, data):
        """Commit ``data`` under ``key`` through the journal."""
        os.makedirs(self.directory, exist_ok=True)
        checksum, text = encode_envelope(data)
        self._recover()
        self.journaled.commit(key, self._path(key), checksum, text)

    def _evict(self, key, path, reason, stacklevel=3):
        """Remove a corrupt entry, warn, and log the incident."""
        try:
            os.remove(path)
        except OSError:
            pass
        self.eviction_log.append({"key": key, "reason": reason})
        warnings.warn(
            "evicted corrupt %s %s: %s — %s"
            % (self.LABEL, key, reason, self.CONSEQUENCE),
            RuntimeWarning,
            stacklevel=stacklevel,
        )

    def pop_evictions(self):
        """Drain and return the corruption incidents seen so far."""
        log, self.eviction_log = self.eviction_log, []
        return log

    # -- maintenance (``repro cache-*`` and ``repro checkpoint``) ---------

    def entry_paths(self):
        """Paths of all entry files currently in the directory."""
        if not os.path.isdir(self.directory):
            return []
        return sorted(
            os.path.join(self.directory, name)
            for name in os.listdir(self.directory)
            if name.endswith(self.SUFFIX)
        )

    def stats(self):
        """On-disk entry count/bytes plus this process's hit/miss counters.

        An interrupted commit is replayed first, so a mid-commit
        ``kill -9`` never shows up here as corruption.  Then every entry
        is validated and corrupt ones are evicted, so ``entries``/``bytes``
        are *post-eviction* totals: an entry evicted during this call
        appears in ``corrupt_evicted`` (and the eviction log) only.
        """
        self._recover()
        total_bytes = 0
        surviving = 0
        corrupt = 0
        for path in self.entry_paths():
            reason, _ = read_envelope(path, self.KIND)
            if reason is not None:
                key = os.path.basename(path)[: -len(self.SUFFIX)]
                self._evict(key, path, reason)
                corrupt += 1
                continue
            surviving += 1
            try:
                total_bytes += os.path.getsize(path)
            except OSError:
                pass
        return {
            "directory": self.directory,
            "entries": surviving,
            "bytes": total_bytes,
            "corrupt_evicted": corrupt,
            "hits": self.hits,
            "misses": self.misses,
        }

    def clear(self):
        """Delete every entry (and stray temp files); returns the number
        of files removed."""
        removed = 0
        if not os.path.isdir(self.directory):
            return removed
        for name in os.listdir(self.directory):
            if not (name.endswith(self.SUFFIX) or self.SUFFIX + "." in name):
                continue
            try:
                os.remove(os.path.join(self.directory, name))
                removed += 1
            except OSError:
                pass
        return removed
