"""Disk cache for simulation results.

Twelve benchmark experiments share a common baseline over 65 workloads;
re-simulating it per figure would dominate wall-clock.  Results are keyed
by (workload, trace length, warmup, schema + config fingerprint) and stored
as compressed JSON under ``REPRO_CACHE_DIR`` (default ``<repo>/benchmarks/.cache``).

Versioning: :data:`~repro.sim.runner.SCHEMA_VERSION` is mixed into every
fingerprint, so results written by an older simulator (different
``SimResult`` fields or core timing semantics) become cache *misses* rather
than silently-wrong answers.  ``repro cache-clear`` removes entries;
``repro cache-stats`` reports what is on disk.

Storage: :class:`ResultCache` is an :class:`~repro.sim.journal.EnvelopeStore`
— checksummed envelope files, each written by one atomic replace, and
eviction of corrupt entries (the job is then re-simulated).
"""

import dataclasses
import hashlib
import json

from repro.sim import settings
from repro.sim.journal import EnvelopeStore
from repro.sim.runner import SCHEMA_VERSION, SimResult

#: On-disk envelope version.  Mixed into every fingerprint so entries
#: written in an older format (pre-checksum, checksummed over canonical
#: JSON rather than the payload bytes, or the text envelopes before the
#: binary header and zlib payload of 4) become cache misses (and are then
#: simply unreferenced files) instead of eviction warnings on every read.
CACHE_FORMAT = 4


def config_fingerprint(config):
    """Stable hash of the result schema version, the cache format and
    every field of a CoreConfig (incl. nested rfp/vp).

    A result depends on the workload, the trace window, the sampling
    spec (all named by the key) and this config alone, so no setting is
    mixed in: the two-speed switch is the ``fast_forward`` field."""
    payload = {
        "schema": SCHEMA_VERSION,
        "cache_format": CACHE_FORMAT,
        "config": dataclasses.asdict(config),
    }
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class ResultCache(EnvelopeStore):
    """One envelope file per result."""

    SUFFIX = ".json"
    DIR_SETTING = "REPRO_CACHE_DIR"
    KIND = "cache"
    LABEL = "result-cache entry"
    CONSEQUENCE = "the job will be re-simulated"
    FAULT = "corrupt_cache"
    FLIP_FIELD = "cycles"

    def key(self, workload, config, length, warmup):
        return "%s-%d-%d-%s" % (workload, length, warmup, config_fingerprint(config))

    def get(self, key):
        data = self._read(key)
        return None if data is None else SimResult(data)

    def put(self, key, result):
        self._write(key, result.as_dict())


_default_cache = None


def default_cache():
    """The shared cache over the current ``REPRO_CACHE_DIR`` (rebuilt when
    the setting changes, like the default checkpoint store)."""
    global _default_cache
    directory = settings.get("REPRO_CACHE_DIR")
    if _default_cache is None or _default_cache.directory != directory:
        _default_cache = ResultCache(directory)
    return _default_cache
