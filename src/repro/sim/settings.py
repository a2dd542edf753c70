"""Every ``REPRO_*`` environment setting, declared once.

Each :class:`Setting` names one knob with its type, default, lower bound
and a one-line description.  :func:`get` is
the only reader: it looks the value up in ``os.environ`` (or a given
mapping) *at call time*, because tests ``monkeypatch`` the environment and
the CLI sets ``REPRO_CHECK_INVARIANTS`` while it runs.

One policy for every knob:

- unset or empty means the default;
- a value that does not parse raises :class:`ValueError` naming the knob
  and the value (a typo never silently disables a watchdog);
- a numeric value below the bound is clamped to it (``REPRO_JOBS=0``
  means one worker).

Flags accept ``1/on/true/yes`` and ``0/off/false/no``.  No setting
changes a result by itself: ``REPRO_FF`` is only the default of
:attr:`repro.core.config.CoreConfig.fast_forward`, read when a config is
built, so the result-cache key (the config fingerprint) covers it.
"""

import os
from collections import namedtuple

from repro.sim.defaults import DEFAULT_LENGTH, DEFAULT_WARMUP

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))

_FLAG_WORDS = {"1": True, "on": True, "true": True, "yes": True,
               "0": False, "off": False, "false": False, "no": False}


class Setting(namedtuple("Setting", "name type default lower doc words")):
    """One declared knob.  ``default`` may be a callable (evaluated per
    read); ``words`` maps special spellings to values, e.g. ``all``."""

    __slots__ = ()

    def parse(self, text):
        """The typed, clamped value of ``text``; ValueError if malformed."""
        words = _FLAG_WORDS if self.type is bool else self.words
        key = text.strip().lower()
        if key in words:
            return words[key]
        if self.type is str:
            return text
        if self.type is bool:
            raise ValueError("%s=%r is not a flag (1/0, on/off, true/false, "
                             "yes/no)" % (self.name, text))
        try:
            value = self.type(text)
        except ValueError:
            raise ValueError("%s=%r is not a valid %s"
                             % (self.name, text, self.type.__name__)) from None
        if self.lower is not None and value < self.lower:
            return self.lower
        return value

    def default_value(self):
        return self.default() if callable(self.default) else self.default


def _setting(name, type_, default, doc, lower=None, words=None):
    return Setting(name, type_, default, lower, doc, words or {})


def _start_method():
    # Imported here: a serial run never loads multiprocessing.
    import multiprocessing

    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


SETTINGS = (
    # experiment inputs
    _setting("REPRO_WORKLOADS", int, None,
             "run only the first N suite workloads (`all` = every one)",
             lower=1, words={"all": None}),
    _setting("REPRO_LENGTH", int, DEFAULT_LENGTH,
             "trace length in instructions", lower=1),
    _setting("REPRO_WARMUP", int, DEFAULT_WARMUP,
             "warmup instructions excluded from measurement", lower=0),
    _setting("REPRO_FF", bool, True,
             "default of CoreConfig.fast_forward, the two-speed split of "
             "the warmup (0 = full detail)"),
    # stores
    _setting("REPRO_CACHE_DIR", str,
             os.path.join(_REPO, "benchmarks", ".cache"),
             "result-cache directory"),
    _setting("REPRO_CHECKPOINT_DIR", str,
             os.path.join(_REPO, "benchmarks", ".checkpoints"),
             "warm-state checkpoint directory"),
    # execution
    _setting("REPRO_JOBS", int, lambda: os.cpu_count() or 1,
             "worker count, the shard-pool width (default: CPU count)",
             lower=1),
    _setting("REPRO_MP_START", str, _start_method,
             "multiprocessing start method (default fork where available)"),
    _setting("REPRO_PROGRESS", bool, False,
             "stream per-job progress lines to stderr"),
    _setting("REPRO_JOB_TIMEOUT", float, None,
             "watchdog seconds per job (0 = off, and then nothing detects "
             "a frozen shard; default from the length)",
             lower=0.0),
    _setting("REPRO_JOB_RETRIES", int, 2,
             "extra attempts for a crashed or timed-out job", lower=0),
    # diagnostics
    _setting("REPRO_CHECK_INVARIANTS", int, 0,
             "invariant-net sweep interval in cycles (0 = off)", lower=0,
             words={"off": 0, "false": 0}),
    _setting("REPRO_FAULT", str, "",
             "fault-injection clauses (see repro.sim.faults)"),
)

REGISTRY = {setting.name: setting for setting in SETTINGS}


def get(name, environ=None):
    """The effective value of setting ``name`` (KeyError if undeclared),
    read from ``environ`` (default ``os.environ``) now."""
    setting = REGISTRY[name]
    text = (os.environ if environ is None else environ).get(name, "")
    if text == "":
        return setting.default_value()
    return setting.parse(text)
