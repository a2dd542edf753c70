"""Disk cache for simulation results.

Twelve benchmark experiments share a common baseline over 65 workloads;
re-simulating it per figure would dominate wall-clock.  Results are keyed
by (workload, trace length, warmup, schema + config fingerprint) and stored
as JSON under ``REPRO_CACHE_DIR`` (default ``<repo>/benchmarks/.cache``).

Versioning: :data:`~repro.sim.runner.SCHEMA_VERSION` is mixed into every
fingerprint, so results written by an older simulator (different
``SimResult`` fields or core timing semantics) become cache *misses* rather
than silently-wrong answers.  ``repro cache-clear`` removes entries;
``repro cache-stats`` reports what is on disk.

Concurrency and crash safety: every write is a journaled commit
(:mod:`repro.sim.journal`) — an inter-process file lock serializes
concurrent fillers of one directory, a fsync'd write-ahead intent record
precedes the per-process temp file + atomic ``os.replace``, and a commit
record closes the sequence.  A ``kill -9`` at any instant leaves the entry
either fully written or cleanly recoverable: the journal is replayed
automatically the next time any process opens the store, removing orphaned
temp files and evicting torn finals.  ``REPRO_JOURNAL=0`` falls back to
the bare tmp+replace discipline.

Integrity: every entry is the envelope text
``{"checksum": "<hex>", "data": <payload>}`` written and read through the
codec in :mod:`repro.sim.journal`; the checksum hashes the payload bytes
exactly as they sit on disk.  A truncated file, malformed JSON, a legacy
(pre-envelope) entry, or a payload whose bytes no longer match its
checksum (any byte edit, whitespace included) is classified, **evicted**
(the file is removed with a warning naming the key), and the job
re-simulated — a flipped bit on disk costs one redundant simulation, never
a wrong figure.  Every :meth:`ResultCache.get` and :meth:`ResultCache.stats`
validates the file on disk.  Evictions are recorded on
:attr:`ResultCache.eviction_log` so the parallel engine can fold them into
its failure manifest.
"""

import dataclasses
import hashlib
import json
import os
import warnings

from repro.sim import faults, settings
from repro.sim.defaults import DEFAULT_LENGTH, DEFAULT_WARMUP
from repro.sim.journal import JournaledDir, encode_envelope, read_envelope
from repro.sim.runner import SCHEMA_VERSION, SimResult, simulate

#: On-disk envelope version.  Mixed into every fingerprint so entries
#: written in an older format (pre-checksum, or checksummed over canonical
#: JSON rather than the payload bytes) become cache misses (and are then
#: simply unreferenced files) instead of eviction warnings on every read.
CACHE_FORMAT = 3


def config_fingerprint(config):
    """Stable hash of the result schema version plus every field of a
    CoreConfig (incl. nested rfp/vp).

    Settings flagged ``result_affecting`` in :mod:`repro.sim.settings`
    (the ``REPRO_FF`` kill-switch) live outside the config dataclass, yet
    change how results are produced — their effective values are mixed in
    so, e.g., full-detail validation runs and two-speed runs can never
    share cache entries."""
    payload = {
        "schema": SCHEMA_VERSION,
        "cache_format": CACHE_FORMAT,
        "config": dataclasses.asdict(config),
        "settings": settings.result_affecting(),
    }
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class ResultCache(object):
    """JSON-file-per-result cache."""

    def __init__(self, directory=None):
        if directory is None:
            directory = settings.get("REPRO_CACHE_DIR")
        self.directory = directory
        self.hits = 0
        self.misses = 0
        #: Corruption incidents seen by this process: dicts with ``key``
        #: and ``reason``.  Drained by the parallel engine's manifest via
        #: :meth:`pop_evictions`.
        self.eviction_log = []
        self._journaled = None

    def _path(self, key):
        return os.path.join(self.directory, key + ".json")

    def _journal(self):
        """The directory's :class:`JournaledDir`, or None when disabled."""
        if not settings.get("REPRO_JOURNAL"):
            return None
        if self._journaled is None:
            self._journaled = JournaledDir(self.directory)
        return self._journaled

    def _recover(self):
        """Replay an interrupted commit; free (one stat) when at rest."""
        journaled = self._journal()
        if journaled is None:
            return
        self.eviction_log.extend(journaled.recover())

    def key(self, workload, config, length, warmup):
        return "%s-%d-%d-%s" % (workload, length, warmup, config_fingerprint(config))

    def get(self, key):
        path = self._path(key)
        self._recover()
        # Deterministic fault injection (REPRO_FAULT=corrupt_cache:key=...):
        # no-op — a single env lookup — unless faults are requested.
        faults.corrupt_cache_file(key, path)
        if not os.path.exists(path):
            self.misses += 1
            return None
        reason, data = read_envelope(path, "cache")
        if reason is not None:
            self._evict(key, path, reason)
            self.misses += 1
            return None
        self.hits += 1
        return SimResult(data)

    def _evict(self, key, path, reason):
        """Remove a corrupt entry, warn, and log the incident."""
        try:
            os.remove(path)
        except OSError:
            pass
        self.eviction_log.append({"key": key, "reason": reason})
        warnings.warn(
            "evicted corrupt result-cache entry %s: %s — the job will be "
            "re-simulated" % (key, reason),
            RuntimeWarning,
            stacklevel=3,
        )

    def pop_evictions(self):
        """Drain and return the corruption incidents seen so far."""
        log, self.eviction_log = self.eviction_log, []
        return log

    def put(self, key, result):
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(key)
        checksum, text = encode_envelope(result.as_dict())
        journaled = self._journal()
        if journaled is not None:
            self._recover()
            # Locked, journaled commit: intent record, fsync'd payload via
            # atomic os.replace, commit record (see repro.sim.journal).
            journaled.commit(key, path, checksum, text)
            return
        # REPRO_JOURNAL=0 fallback: per-process temp name so concurrent
        # fillers never clobber each other's in-progress write; os.replace
        # is atomic on POSIX.
        tmp = "%s.%d.tmp" % (path, os.getpid())
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)

    # -- maintenance (the CLI's cache-clear / cache-stats) ---------------

    def entry_paths(self):
        """Paths of all result files currently in the cache directory."""
        if not os.path.isdir(self.directory):
            return []
        return sorted(
            os.path.join(self.directory, name)
            for name in os.listdir(self.directory)
            if name.endswith(".json")
        )

    def stats(self):
        """On-disk entry count/bytes plus this process's hit/miss counters.

        Every entry is validated first and corrupt ones are evicted, so
        ``entries``/``bytes`` are *post-eviction* totals and an entry
        evicted during this call is counted in ``corrupt_evicted`` only.
        An interrupted journaled commit is replayed before that.
        """
        self._recover()
        total_bytes = 0
        surviving = 0
        corrupt = 0
        for path in self.entry_paths():
            reason, _ = read_envelope(path, "cache")
            if reason is not None:
                key = os.path.basename(path)[: -len(".json")]
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
        """Delete every cached result (and stray temp files); returns the
        number of entries removed."""
        removed = 0
        if not os.path.isdir(self.directory):
            return removed
        for name in os.listdir(self.directory):
            if not (name.endswith(".json") or ".json." in name):
                continue
            try:
                os.remove(os.path.join(self.directory, name))
                removed += 1
            except OSError:
                pass
        return removed


_default_cache = None


def default_cache():
    global _default_cache
    if _default_cache is None:
        _default_cache = ResultCache()
    return _default_cache


def simulate_cached(workload, config, length=DEFAULT_LENGTH,
                    warmup=DEFAULT_WARMUP, cache=None):
    """Like :func:`repro.sim.runner.simulate` but memoised on disk."""
    cache = cache or default_cache()
    key = cache.key(workload, config, length, warmup)
    cached = cache.get(key)
    if cached is not None:
        return cached
    result = simulate(workload, config, length=length, warmup=warmup)
    cache.put(key, result)
    return result
