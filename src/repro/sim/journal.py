"""The on-disk store: envelope codec, atomic write, and :class:`EnvelopeStore`.

The result cache and the checkpoint store are two instances of one store
class, :class:`EnvelopeStore`: a directory of checksummed
``{"checksum", "data"}`` envelopes, one file per key.

- :func:`encode_envelope` / :func:`read_envelope` — the one codec both
  stores write and read through.  A file is exactly the text
  ``{"checksum": "<hex>", "data": <payload>}`` where ``<payload>`` is one
  compact ``json.dumps`` of the data (``separators=(",", ":")``) and
  ``<hex>`` is the first 16 hex digits of the sha256 of those payload
  bytes.  A read hashes the ``data`` bytes as they sit on disk, so any
  byte edit — whitespace included — is a checksum mismatch; nothing is
  re-serialised to check it, and an entry written with the older spaced
  separators still validates.  The read
  pauses cyclic GC around ``json.loads`` (the decoded JSON is acyclic and
  a checkpoint decodes into tens of thousands of small lists) and puts
  the caller's GC state back afterwards.
- :meth:`JournaledDir.commit` — the one write step: the envelope text
  goes to ``<path>.<pid>.tmp`` in a single ``write`` and is then
  ``os.replace``d into place.
- :class:`EnvelopeStore` — the store itself.  Every read validates the
  file on disk; a truncated, malformed, non-envelope or
  checksum-mismatched entry is **evicted** (removed with a warning naming
  the key and reason, and logged on :attr:`~EnvelopeStore.eviction_log`
  for the failure manifest), so a corrupt file costs one redundant
  simulation or warm, never a wrong figure.  Subclasses declare only the
  file suffix, the wording of their warnings, their ``REPRO_FAULT``
  corruption flavour, the key, and the payload conversions.

Why two steps are enough:

- ``os.replace`` is atomic, so a reader sees the old entry or the new
  one, never a mix.
- A ``kill -9`` cannot tear a file whose ``write`` returned.  A kill
  before the replace leaves only a temp file named by a dead PID, which
  the next store open (or ``stats`` / ``clear``) removes; a live
  writer's temp file is left alone.
- The payload is not fsync'd.  A power cut can leave a torn final file;
  the checksum evicts it on the next read, which costs one
  re-simulation.
- Two processes writing one key write the same bytes (a result depends
  on workload, config and sampling plan alone), each through its own
  temp file, so whichever replace lands last is correct and no lock is
  needed.

Fault hook (:mod:`repro.sim.faults`): ``kill_commit:key=K:at=STAGE``
SIGKILLs the process after the temp write (``payload``) or after the
replace (``replace``), so CI can prove the recovery path, not assume it.
"""

import gc
import hashlib
import json
import os
import warnings

from repro.sim import faults, settings


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
        return True  # unknown: assume alive rather than delete a live write
    return True


def _remove_dead_temps(directory):
    """Remove every ``*.<pid>.tmp`` in ``directory`` whose writer is dead;
    returns the number removed.  One ``listdir``; a missing directory has
    nothing to remove."""
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    removed = 0
    for name in names:
        if not name.endswith(".tmp"):
            continue
        pid = name[:-4].rpartition(".")[2]
        if not pid.isdigit() or _pid_alive(int(pid)):
            continue
        try:
            os.remove(os.path.join(directory, name))
            removed += 1
        except OSError:
            pass  # another process swept it first
    return removed


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

    ``text`` is written verbatim; ``checksum`` hashes its payload bytes.
    """
    payload = json.dumps(data, separators=(",", ":"))
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


class JournaledDir(object):
    """The write step of one store directory.

    The store keeps no journal.  The class and its ``commit`` keep their
    names only because ``benchmarks/perf`` times ``JournaledDir.commit``
    as its ``journal.commit`` span; they go when that span is renamed
    (ROADMAP item 3, or the next change to the benchmark).
    """

    def commit(self, key, path, text):
        """Write ``text`` to ``<path>.<pid>.tmp`` in one ``write``, then
        ``os.replace`` it onto ``path``.  The ``kill_commit`` fault hooks
        after each step are no-ops (one env lookup) unless
        ``REPRO_FAULT`` requests them."""
        tmp = "%s.%d.tmp" % (path, os.getpid())
        with open(tmp, "w") as handle:
            handle.write(text)
        faults.fire_commit_faults(key, "payload")
        os.replace(tmp, path)
        faults.fire_commit_faults(key, "replace")


class EnvelopeStore(object):
    """A directory of checksummed envelopes, one ``<key><SUFFIX>`` file
    per entry, every write one atomic replace (see the module doc).

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
        self.journaled = JournaledDir()
        _remove_dead_temps(directory)

    def _path(self, key):
        return os.path.join(self.directory, key + self.SUFFIX)

    def _read(self, key):
        """The payload stored under ``key``, or None on a miss (a corrupt
        entry is evicted and counts as a miss)."""
        path = self._path(key)
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
        """Write ``data`` under ``key`` (temp file, then atomic replace)."""
        os.makedirs(self.directory, exist_ok=True)
        self.journaled.commit(key, self._path(key), encode_envelope(data)[1])

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

        Temp files of dead writers are removed first, so a mid-write
        ``kill -9`` never shows up here.  Then every entry is validated
        and corrupt ones are evicted, so ``entries``/``bytes`` are
        *post-eviction* totals: an entry evicted during this call appears
        in ``corrupt_evicted`` (and the eviction log) only.
        """
        _remove_dead_temps(self.directory)
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
        """Delete every entry and every dead writer's temp file; returns
        the number of files removed."""
        removed = _remove_dead_temps(self.directory)
        for path in self.entry_paths():
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        return removed
