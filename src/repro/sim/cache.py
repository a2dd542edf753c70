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

Storage: :class:`ResultCache` is an :class:`~repro.sim.journal.EnvelopeStore`
— checksummed envelope files, journaled crash-safe writes, and eviction
of corrupt entries (the job is then re-simulated).
"""

import dataclasses
import hashlib
import json

from repro.sim import settings
from repro.sim.journal import EnvelopeStore
from repro.sim.runner import SCHEMA_VERSION, SimResult

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


class ResultCache(EnvelopeStore):
    """JSON-file-per-result cache."""

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
