"""The on-disk store: envelope codec, atomic write, and :class:`EnvelopeStore`.

The result cache and the checkpoint store are two instances of one store
class, :class:`EnvelopeStore`: a directory of checksummed, compressed
envelopes, one file per key.

- :func:`encode_envelope` / :func:`read_envelope` — the one codec both
  stores write and read through.  A file is a 21-byte header — the
  :data:`MAGIC` ``b"\\x89RPZ"``, one :data:`ENVELOPE_FORMAT` byte and the
  16 hex digits that start the sha256 of the stored payload bytes — then
  the payload: one compact ``json.dumps`` of the data
  (``separators=(",", ":")``) compressed by zlib at the fixed level
  :data:`ZLIB_LEVEL`.  A read hashes the stored bytes before it
  decompresses anything, so any edit of them is caught.  The three
  corruption reasons map as follows: a file that stops inside its zlib
  stream (a torn write), or whose payload does not decompress or parse,
  is *unreadable*; a file of JSON text without the header (an entry of an
  older, text format, or no store entry at all) is *not an envelope*; a
  stored payload that does not hash to the header's checksum is a
  *checksum mismatch*.  The read pauses cyclic GC around ``json.loads``
  (the decoded JSON is acyclic) and puts the caller's GC state back
  afterwards.
- :meth:`JournaledDir.commit` — the one write step: the envelope bytes
  go to ``<path>.<pid>.tmp`` in a single ``write`` and are then
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
  on workload, config and sampling plan alone, and zlib at one fixed
  level compresses one text to one byte string), each through its own
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
import zlib

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

#: First bytes of every entry file; a non-ASCII byte first, so no entry
#: reads as text.
MAGIC = b"\x89RPZ"
#: Layout of what follows the magic; a new layout is a new number.
ENVELOPE_FORMAT = 1
_PREFIX = MAGIC + bytes((ENVELOPE_FORMAT,))
#: Bytes before the payload: the prefix and the 16-hex-digit checksum.
HEADER_LEN = len(_PREFIX) + 16
#: The one zlib level of every payload.  Fixed, so one payload always
#: compresses to one byte string; 1 because on checkpoint parts higher
#: levels save under 3% of the bytes for up to five times the
#: compression time in ``put``.
ZLIB_LEVEL = 1


def _digest(payload):
    """Envelope checksum of the stored payload bytes."""
    return hashlib.sha256(payload).hexdigest()[:16]


def encode_envelope(data):
    """``(checksum, blob)`` of the envelope file holding ``data``.

    ``blob`` is written verbatim; ``checksum`` hashes its payload bytes.
    """
    payload = zlib.compress(
        json.dumps(data, separators=(",", ":")).encode("ascii"), ZLIB_LEVEL)
    checksum = _digest(payload)
    return checksum, _PREFIX + checksum.encode("ascii") + payload


def replace_payload(path, data):
    """Rewrite the envelope file at ``path`` to hold ``data`` behind its
    old header, so under its old checksum (a fault-injection forgery)."""
    with open(path, "rb") as handle:
        header = handle.read(HEADER_LEN)
    with open(path, "wb") as handle:
        handle.write(header + encode_envelope(data)[1][HEADER_LEN:])


def _not_an_envelope(kind):
    return "not a checksummed %senvelope" % (kind + " " if kind else "")


def _headless_reason(raw, kind):
    """Reason for a file without the envelope header: JSON text (a
    text-format entry, or no store entry at all) is not an envelope,
    anything else unreadable."""
    try:
        json.loads(raw)
    except ValueError:
        return UNREADABLE
    return _not_an_envelope(kind)


def _torn(payload):
    """True when ``payload`` is a zlib stream that stops early (a torn
    write), rather than one altered in place."""
    stream = zlib.decompressobj()
    try:
        stream.decompress(payload)
    except zlib.error:
        return False
    return not stream.eof


def read_envelope(path, kind=None):
    """Read and classify the envelope file at ``path``.

    Returns ``(reason, data)``: ``(None, payload dict)`` for a valid
    envelope, else ``(reason, None)`` with one of the store's corruption
    classes — unreadable, not an envelope (worded ``"not a checksummed
    <kind> envelope"``), or checksum mismatch.  The checksum is verified
    before anything is decompressed.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError:
        return UNREADABLE, None
    if not raw.startswith(_PREFIX):
        return _headless_reason(raw, kind), None
    payload = memoryview(raw)[HEADER_LEN:]
    if raw[len(_PREFIX):HEADER_LEN] != _digest(payload).encode("ascii"):
        return (UNREADABLE if _torn(payload) else CHECKSUM_MISMATCH), None
    try:
        text = zlib.decompress(payload)
    except zlib.error:
        return UNREADABLE, None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        data = json.loads(text)
    except ValueError:
        return UNREADABLE, None
    finally:
        if gc_was_enabled:
            gc.enable()
    if not isinstance(data, dict):
        return _not_an_envelope(kind), None
    return None, data


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

    def commit(self, key, path, blob):
        """Write ``blob`` to ``<path>.<pid>.tmp`` in one ``write``, then
        ``os.replace`` it onto ``path``.  The ``kill_commit`` fault hooks
        after each step are no-ops (one env lookup) unless
        ``REPRO_FAULT`` requests them."""
        tmp = "%s.%d.tmp" % (path, os.getpid())
        with open(tmp, "wb") as handle:
            handle.write(blob)
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
