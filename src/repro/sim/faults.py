"""Deterministic fault injection for the resilience subsystem.

The recovery machinery in :mod:`repro.sim.parallel` (watchdog, retries,
keep-going manifests) and :class:`repro.sim.journal.EnvelopeStore`
(checksum eviction, the dead-writer temp sweep) is itself code that can
rot; this module makes every error path reachable on demand so CI
exercises the recovery logic, not just the happy path.  Faults are
requested through the ``REPRO_FAULT`` environment variable — a
comma-separated list of specs, each ``kind:param=value:...``:

- ``crash:job=3`` — worker for job index 3 dies (hard ``os._exit`` in a
  child process, an :class:`InjectedCrash` exception in-process).
- ``hang:job=5:seconds=120`` — worker for job index 5 sleeps instead of
  simulating, so the parent's watchdog must kill it.
- ``corrupt_cache:key=spec06_mcf`` — the first cache entry whose key
  contains the substring is corrupted on disk before it is read, so the
  checksum eviction + re-simulation path runs.
- ``corrupt_checkpoint:key=spec06_mcf`` — same, but aimed at the warm-state
  checkpoint store: the corrupted checkpoint is evicted and the workload is
  re-warmed functionally instead of restored.

Shard-pool flavours (:mod:`repro.sim.scheduler`):

- ``kill_shard:shard=N:after=C`` — shard ``N`` hard-exits when it receives
  its ``C+1``-th job, so the supervisor must requeue the in-flight job and
  respawn the shard.  The ``attempts=K`` bound counts shard *incarnations*
  here: the default ``attempts=1`` kills only the first incarnation, so
  the respawned shard survives.
- ``stop_shard:shard=N:after=C`` — shard ``N`` sends itself ``SIGSTOP``
  when it receives its ``C+1``-th job: the process stays alive and its
  pipe open, so only the job's watchdog deadline can catch it.
  ``attempts=K`` bounds the incarnation as for ``kill_shard``.

Store-write flavour (:mod:`repro.sim.journal`):

- ``kill_commit:key=K:at=payload|replace`` — SIGKILL the process at the
  named step of a store write whose key contains the substring (after the
  temp file is written, or after the atomic replace; default
  ``replace``), so recovery after a mid-write death is provable.

Any spec may add ``attempts=K`` to fire only on the first ``K`` attempts
of a job (incarnations of a shard, matches of a commit key) — the
standard way to test that a retry then *succeeds*.  The ``corrupt_cache``
and ``corrupt_checkpoint`` flavours accept ``how=truncate|flip``
(truncated file, the default, vs a well-formed envelope whose payload no
longer matches its checksum, :func:`flip_envelope_field`).  A spec that
could never fire — an unknown kind, ``at=`` or ``how=`` — is a
:class:`ValueError` naming the clause.

Everything is off (and zero-cost: one env lookup) unless ``REPRO_FAULT``
is set.
"""

import os
import signal
import time

from repro.sim import settings

_VALID_KINDS = ("crash", "hang", "corrupt_cache", "corrupt_checkpoint",
                "kill_shard", "stop_shard", "kill_commit")

#: Kinds that never fire from fire_worker_faults (they have their own
#: call sites in the store and the shard scheduler).
_NON_WORKER_KINDS = frozenset((
    "corrupt_cache", "corrupt_checkpoint",
    "kill_shard", "stop_shard", "kill_commit",
))

#: The values a parameter may take, per kind: anything else could never
#: fire, so :func:`parse_faults` rejects it.
_CHOICES = {
    ("kill_commit", "at"): ("payload", "replace"),
    ("corrupt_cache", "how"): ("truncate", "flip"),
    ("corrupt_checkpoint", "how"): ("truncate", "flip"),
}


class InjectedFault(RuntimeError):
    """Base class for deliberately injected failures."""


class InjectedCrash(InjectedFault):
    """A ``crash`` fault firing in-process (child processes hard-exit)."""


class FaultSpec(object):
    """One parsed ``kind:param=value:...`` clause of ``REPRO_FAULT``."""

    __slots__ = ("kind", "params")

    def __init__(self, kind, params):
        self.kind = kind
        self.params = params

    def __repr__(self):
        extra = ":".join("%s=%s" % kv for kv in sorted(self.params.items()))
        return "<FaultSpec %s%s>" % (self.kind, ":" + extra if extra else "")

    def attempt_allowed(self, attempt):
        """True when this spec should still fire on ``attempt`` (1-based)."""
        limit = self.params.get("attempts")
        return limit is None or attempt <= int(limit)


def parse_faults(text):
    """Parse a ``REPRO_FAULT`` value into a list of :class:`FaultSpec`."""
    specs = []
    for clause in (text or "").split(","):
        clause = clause.strip()
        if not clause:
            continue
        fields = clause.split(":")
        kind = fields[0].strip()
        if kind not in _VALID_KINDS:
            raise ValueError(
                "unknown fault kind %r in REPRO_FAULT clause %r "
                "(expected one of %s)" % (kind, clause, ", ".join(_VALID_KINDS))
            )
        params = {}
        for field in fields[1:]:
            if "=" not in field:
                raise ValueError(
                    "malformed fault parameter %r in REPRO_FAULT clause %r "
                    "(expected name=value)" % (field, clause)
                )
            name, value = field.split("=", 1)
            name, value = name.strip(), value.strip()
            choices = _CHOICES.get((kind, name))
            if choices is not None and value not in choices:
                raise ValueError(
                    "fault parameter %s=%r in REPRO_FAULT clause %r can "
                    "never fire (expected one of %s)"
                    % (name, value, clause, ", ".join(choices))
                )
            params[name] = value
        specs.append(FaultSpec(kind, params))
    return specs


def active_faults(environ=None):
    """The faults requested by ``REPRO_FAULT`` (empty list when unset)."""
    return parse_faults(settings.get("REPRO_FAULT", environ))


def fire_worker_faults(job_index, attempt, in_child, environ=None):
    """Trigger any crash/hang fault aimed at (job_index, attempt).

    Called at the top of every simulation attempt.  ``in_child`` says
    whether this attempt runs in a disposable worker process: there a
    ``crash`` is a hard ``os._exit`` (modelling a segfaulted / OOM-killed
    worker, which produces *no* Python traceback), while in-process it
    raises :class:`InjectedCrash` so the host survives.
    """
    for spec in active_faults(environ):
        kind = spec.kind
        if kind in _NON_WORKER_KINDS:
            continue
        target = spec.params.get("job")
        if target is None or int(target) != job_index:
            continue
        if not spec.attempt_allowed(attempt):
            continue
        if kind == "hang":
            time.sleep(float(spec.params.get("seconds", "3600")))
            # A watchdog kill never lets the sleep return; if it does
            # (watchdog disabled), fail loudly rather than fake a result.
            raise InjectedFault(
                "injected hang for job %d attempt %d outlived its sleep"
                % (job_index, attempt)
            )
        if in_child:
            os._exit(32)  # no traceback, no IPC goodbye: a true crash
        raise InjectedCrash(
            "injected crash for job %d attempt %d" % (job_index, attempt)
        )


_corrupted_paths = set()


def corrupt_envelope_file(kind, flip_field, key, path, environ=None):
    """Corrupt the store entry at ``path`` when a ``kind`` fault
    (``corrupt_cache`` / ``corrupt_checkpoint``) targets ``key``; the
    ``how=flip`` mode alters the payload's ``flip_field``.

    :class:`~repro.sim.journal.EnvelopeStore` calls this immediately
    before every read.  Returns the corruption flavour applied or None.
    Runs at most once per file per process, so the subsequent rewrite
    (re-simulation or re-warm) is not re-corrupted within the same run.
    """
    for spec in active_faults(environ):
        if spec.kind != kind:
            continue
        needle = spec.params.get("key", "")
        if needle not in key or path in _corrupted_paths:
            continue
        if not os.path.exists(path):
            continue
        _corrupted_paths.add(path)
        how = spec.params.get("how", "truncate")
        if how == "flip":
            flip_envelope_field(path, flip_field)
        else:
            with open(path, "rb") as handle:
                blob = handle.read()
            with open(path, "wb") as handle:
                handle.write(blob[: max(1, len(blob) // 2)])
        return how
    return None


def flip_envelope_field(path, field):
    """Add one to ``field`` of the valid envelope at ``path``, keeping its
    old checksum: a well-formed entry whose payload no longer matches its
    checksum, which exercises the checksum-mismatch classification."""
    # Imported here: the store module imports this one.
    from repro.sim.journal import read_envelope, replace_payload

    data = read_envelope(path)[1]
    data[field] = data.get(field, 0) + 1
    replace_payload(path, data)


# ---------------------------------------------------------------------------
# shard-pool flavours (consumed by repro.sim.scheduler inside shard children)


def shard_fault(shard_id, incarnation, environ=None):
    """``(kind, after)`` for the ``kill_shard`` or ``stop_shard`` fault
    aimed at this shard incarnation, or None.  The fault fires when the
    shard receives a job after finishing ``after`` jobs (default 1).

    ``attempts=K`` bounds the shard's *incarnation* (1-based), defaulting
    to 1 so the supervisor's respawn is what recovers the sweep.
    """
    for spec in active_faults(environ):
        if spec.kind not in ("kill_shard", "stop_shard"):
            continue
        target = spec.params.get("shard")
        if target is None or int(target) != shard_id:
            continue
        limit = int(spec.params.get("attempts", "1"))
        if incarnation > limit:
            continue
        return spec.kind, int(spec.params.get("after", "1"))
    return None


# ---------------------------------------------------------------------------
# store-write flavour (consumed by repro.sim.journal inside writes)


def fire_commit_faults(key, stage, environ=None):
    """SIGKILL the process when a ``kill_commit`` fault targets this
    write's ``key`` at this ``stage`` (``payload``/``replace``).

    A real SIGKILL — no atexit, no finally blocks — so the recovery
    exercised afterwards follows a genuine mid-write death.
    """
    for spec in active_faults(environ):
        if spec.kind != "kill_commit":
            continue
        needle = spec.params.get("key", "")
        if needle not in key:
            continue
        if spec.params.get("at", "replace") != stage:
            continue
        os.kill(os.getpid(), signal.SIGKILL)
