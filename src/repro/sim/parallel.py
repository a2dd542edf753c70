"""The sweep pipeline: every suite run goes through :func:`run_jobs`.

Per-(workload, config) simulations are embarrassingly parallel — nothing is
shared between two runs except the on-disk result cache.  :func:`run_jobs`
is a short driver over module-level stages that share one ``_Sweep``
state object: plan (normalise, key, dedup) -> lookup (result cache,
interval expansion) -> execute (per-lane checkpoint prewarm, jobs) ->
assemble (trace merge, sampled cells) -> report.  The execute stage
hands the misses to one of two :class:`Executor` implementations — the
in-process :class:`SerialExecutor` (one worker: the serial reference
path) or the supervised shard pool of :mod:`repro.sim.scheduler` —
which share one lane queue keyed by trace, one resident-trace rule
(:meth:`Executor.hold_trace`) and one retry decision
(:meth:`Executor._fail_attempt`).  Every cache interaction stays in the
parent process:

- the parent checks the :class:`~repro.sim.cache.ResultCache` first, so
  workers only ever simulate genuine misses (corrupt entries are evicted
  by the cache and re-simulated here);
- duplicate in-flight keys are deduplicated before submission (two figures
  asking for the same (workload, config, length, warmup) share one run);
- shards return plain result dicts over a pipe; the parent writes them to
  the cache **incrementally**, so concurrent shards never race on disk
  and an interrupted run keeps everything already finished.

Resilience (the parent supervises every shard):

- **Watchdog**: every job gets a soft wall-clock deadline (``job_timeout``
  / ``REPRO_JOB_TIMEOUT``; default derived from the instruction count; 0
  disables).  A shard that blows its deadline is killed and respawned.
- **Retry**: crashed or timed-out jobs are requeued at the front of
  their lane and retried on the next free shard (or in place, serially)
  up to ``retries`` times (``REPRO_JOB_RETRIES``).  Deterministic Python
  exceptions are *not* retried — the same input would fail the same way.
- **Keep-going**: with ``keep_going=True`` a terminal failure is recorded
  in the :class:`TimingReport`'s failure manifest (workload, config,
  classification ``crash``/``timeout``/``deadlock``/``corrupt_cache``/
  ``error``, attempts, traceback detail) and its result slot is ``None``;
  the default re-raises a :class:`WorkerError` after shutting the shards
  down.
- **SIGINT-safe finalization**: Ctrl-C sets a flag, busy shards are
  terminated, and ``KeyboardInterrupt`` is re-raised *after* the orderly
  shutdown — every completed job is already committed to the cache, so a
  re-run (``repro suite --resume``) simulates only the remainder.
- **SIGTERM graceful drain**: a service manager's stop signal finishes
  the in-flight chunks (bounded by ``REPRO_DRAIN_TIMEOUT`` seconds),
  journals their results to the cache, records every
  not-started or timed-out job as ``aborted`` in the manifest, and
  returns normally with ``report.drained`` set — the CLI maps that to
  exit code 4.
- **Fault injection**: :mod:`repro.sim.faults` (``REPRO_FAULT``) drives
  every one of these paths deterministically in CI.

The job body :func:`_run_job` is a module-level function and every job
payload is picklable, so the engine is safe under the ``spawn`` start
method (macOS / Windows); on platforms that offer ``fork`` it is used by
default because shard start-up is substantially cheaper.

Every ``REPRO_*`` setting the engine reads (worker count, start method,
progress, watchdog, retries, drain) is declared in
:mod:`repro.sim.settings` and listed in the README's settings table.

Results are deterministic and byte-identical to serial execution: each
simulation is seeded purely by (workload name, config), and the returned
mapping is assembled in job order, not completion order.
"""

import os
import shutil
import signal
import sys
import tempfile
import threading
import time
import traceback
from collections import deque

from repro.obs.export import sort_events, write_jsonl
from repro.obs.tracer import trace_spec_from_env
from repro.sim import faults, settings
from repro.sim.cache import default_cache
from repro.sim.checkpoint import (
    CheckpointStore, default_checkpoint_store, ensure_checkpoints,
    ensure_checkpoints_batch, warm_fingerprint,
)
from repro.sim.runner import SimResult, simulate, simulate_interval
from repro.sim.sampling import (
    SamplingPlan, aggregate_intervals, normalize_spec, sampling_applies,
    sampling_suffix,
)
from repro.workloads.suite import build_workload

#: Failure-manifest classifications.
CLASS_CRASH = "crash"              # worker process died / injected crash
CLASS_TIMEOUT = "timeout"          # watchdog killed a hung worker
CLASS_DEADLOCK = "deadlock"        # the core's own deadlock detector fired
CLASS_CORRUPT_CACHE = "corrupt_cache"  # checksum eviction forced a re-run
CLASS_CORRUPT_CHECKPOINT = "corrupt_checkpoint"  # warm state re-derived
CLASS_ERROR = "error"              # deterministic Python exception
CLASS_ABORTED = "aborted"          # graceful drain stopped it (not a failure)

#: Only failures that a fresh worker might not reproduce are retried.
RETRYABLE = frozenset((CLASS_CRASH, CLASS_TIMEOUT))

#: Failure-manifest schema version, carried as ``manifest_version`` in
#: ``TimingReport.as_dict()`` and in every ``--out`` payload so archived
#: manifests are self-describing.  v1: the implicit pre-versioned schema
#: (crash/timeout/deadlock/corrupt_*/error records).  v2: adds the field
#: itself, the ``aborted`` classification (SIGTERM drain), and the
#: report's ``drained`` flag.
MANIFEST_VERSION = 2


class WorkerError(RuntimeError):
    """A simulation job failed inside a worker.

    Raised in place of the worker's bare traceback so the parent process
    reports *which* (workload, config) job died — a pool of 65 workloads
    otherwise surfaces an anonymous ``RemoteTraceback``.  Picklable by
    construction (``__reduce__``, which carries all four constructor
    arguments including the root exception class name), so the traceback
    detail survives any number of pickle round-trips.
    """

    def __init__(self, workload, config_name, detail, root_cause=None):
        self.workload = workload
        self.config_name = config_name
        self.detail = detail
        self.root_cause = root_cause
        super(WorkerError, self).__init__(
            "simulation job failed (workload=%s, config=%s%s)\n%s"
            % (workload, config_name,
               ", root cause %s" % root_cause if root_cause else "", detail)
        )

    def __reduce__(self):
        return (WorkerError,
                (self.workload, self.config_name, self.detail, self.root_cause))


def resolve_job_timeout(job_timeout, length):
    """Watchdog deadline in seconds for one job, or None (disabled).

    Precedence: explicit argument, then ``REPRO_JOB_TIMEOUT``, then a
    default derived from the instruction count — generous enough that a
    healthy run never trips it, tight enough that a deadlocked event loop
    is killed in minutes, not hours.  Zero or negative disables.
    """
    if job_timeout is None:
        job_timeout = settings.get("REPRO_JOB_TIMEOUT")
        if job_timeout is None:
            return max(60.0, length / 500.0)
    return job_timeout if job_timeout > 0 else None


def classify_failure(detail, root_cause=None):
    """Map a worker-side traceback to a manifest classification."""
    if root_cause == "InjectedCrash":
        return CLASS_CRASH
    if detail and "likely deadlock" in detail:
        return CLASS_DEADLOCK
    return CLASS_ERROR


def _stderr_progress(done, total, workload, config_name, seconds, source):
    sys.stderr.write(
        "[%*d/%d] %-24s %-14s %6.2fs  %s\n"
        % (len(str(total)), done, total, workload, config_name, seconds, source)
    )
    sys.stderr.flush()


class TimingReport(object):
    """Wall-clock and failure accounting for one :func:`run_jobs` call."""

    __slots__ = (
        "wall_seconds",
        "jobs_total",
        "jobs_simulated",
        "jobs_deduplicated",
        "cache_hits",
        "workers",
        "instructions_simulated",
        "jobs_failed",
        "failures",
        "drained",
    )

    def __init__(self, wall_seconds, jobs_total, jobs_simulated,
                 jobs_deduplicated, cache_hits, workers,
                 instructions_simulated, jobs_failed=0, failures=None,
                 drained=False):
        self.wall_seconds = wall_seconds
        self.jobs_total = jobs_total
        self.jobs_simulated = jobs_simulated
        self.jobs_deduplicated = jobs_deduplicated
        self.cache_hits = cache_hits
        self.workers = workers
        self.instructions_simulated = instructions_simulated
        #: Jobs that exhausted their retries (their result slots are None).
        self.jobs_failed = jobs_failed
        #: Failure manifest: one dict per incident — terminal failures plus
        #: recovered ones (successful retries, corrupt-cache evictions),
        #: the latter flagged ``recovered=True``.
        self.failures = failures if failures is not None else []
        #: True when a SIGTERM drain cut the run short: in-flight chunks
        #: finished and were journaled, the rest is ``aborted`` in the
        #: manifest, and the CLI exits 4.
        self.drained = drained

    @property
    def instructions_per_second(self):
        if self.wall_seconds <= 0:
            return 0.0
        return self.instructions_simulated / self.wall_seconds

    def as_dict(self):
        data = {name: getattr(self, name) for name in self.__slots__}
        data["instructions_per_second"] = self.instructions_per_second
        data["manifest_version"] = MANIFEST_VERSION
        return data

    def format(self):
        lines = [
            "suite timing: %d jobs in %.2fs (%d simulated, %d cache hits, "
            "%d deduplicated) on %d worker%s"
            % (self.jobs_total, self.wall_seconds, self.jobs_simulated,
               self.cache_hits, self.jobs_deduplicated, self.workers,
               "" if self.workers == 1 else "s"),
        ]
        if self.jobs_simulated:
            lines.append(
                "  %d instructions simulated, %.0f instr/s aggregate"
                % (self.instructions_simulated, self.instructions_per_second)
            )
        if self.jobs_failed:
            lines.append(
                "  %d job%s failed terminally (see the failure manifest)"
                % (self.jobs_failed, "" if self.jobs_failed == 1 else "s")
            )
        if self.drained:
            lines.append(
                "  run drained on SIGTERM: in-flight chunks finished and "
                "committed, the rest is marked aborted in the manifest"
            )
        return "\n".join(lines)

    def __repr__(self):
        return "<TimingReport %d jobs %.2fs>" % (self.jobs_total, self.wall_seconds)


def format_failures(failures):
    """Render a failure manifest for humans (one line per incident)."""
    if not failures:
        return "no failures"
    lines = ["failure manifest (%d incident%s):"
             % (len(failures), "" if len(failures) == 1 else "s")]
    for record in failures:
        lines.append(
            "  [%s] %s under %s: %d attempt%s, %s%s"
            % (record["classification"], record["workload"], record["config"],
               record["attempts"], "" if record["attempts"] == 1 else "s",
               "recovered" if record["recovered"] else "TERMINAL",
               " (root cause %s)" % record["root_cause"]
               if record.get("root_cause") else "")
        )
    return "\n".join(lines)


def _run_job(item):
    """Worker body: simulate one job.

    ``item`` is ``(key, job, trace_path, job_index, attempt, in_child)``.
    Module-level (not a closure) so it can be pickled by reference under
    the ``spawn`` start method; the serial executor and every shard look
    it up on this module at call time.  Returns the JSON-friendly result payload —
    never a :class:`SimResult` — to keep the IPC surface minimal.

    When ``trace_path`` is set (REPRO_TRACE enabled), the worker attaches a
    tracer and streams the job's sorted event log to that per-job file; the
    parent merges the files in job order after the run drains.  Failures
    are re-raised as :class:`WorkerError` carrying the (workload, config)
    key plus the worker-side traceback and root exception class.
    """
    key, job, trace_path = item[:3]
    workload, config, length, warmup = job[:4]
    sampling = job[4] if len(job) > 4 else None
    job_index, attempt, in_child = item[3:]
    started = time.perf_counter()
    try:
        faults.fire_worker_faults(job_index, attempt, in_child)
        if sampling is not None:
            # One measurement interval of a sampled cell.  The worker
            # builds its own store handle from the directory in the spec
            # (a plain string, so the payload pickles under spawn).
            interval = sampling["interval"]
            result = simulate_interval(
                workload, config, length=length,
                start=interval["start"], measure=interval["measure"],
                ramp=interval["ramp"], index=interval["index"],
                checkpoint_store=CheckpointStore(sampling["checkpoint_dir"]),
            )
            return key, result.data, time.perf_counter() - started
        tracer = None
        if trace_path is not None:
            spec = trace_spec_from_env()
            tracer = spec.build_tracer() if spec is not None else None
        result = simulate(workload, config, length=length, warmup=warmup,
                          tracer=tracer)
        if tracer is not None:
            write_jsonl(sort_events(tracer.events), trace_path)
    except Exception as exc:
        name = workload if isinstance(workload, str) else workload.name
        raise WorkerError(name, config.name, traceback.format_exc(),
                          root_cause=type(exc).__name__)
    return key, result.data, time.perf_counter() - started


class _PendingJob(object):
    """Supervisor-side state for one deduplicated cache miss."""

    __slots__ = ("key", "job", "index", "trace_path", "tries", "last_class",
                 "last_detail", "last_root", "corrupt_record")

    def __init__(self, key, job, index, trace_path):
        self.key = key
        self.job = job
        self.index = index
        self.trace_path = trace_path
        self.tries = 0          # completed (failed) attempts so far
        self.last_class = None
        self.last_detail = None
        self.last_root = None
        self.corrupt_record = None  # manifest entry for a cache eviction

    @property
    def workload_name(self):
        workload = self.job[0]
        return workload if isinstance(workload, str) else workload.name

    @property
    def config_name(self):
        return self.job[1].name

    def item(self, in_child):
        """The :func:`_run_job` payload for this job's next attempt."""
        return (self.key, self.job, self.trace_path, self.index,
                self.tries + 1, in_child)


class _SignalGuard(object):
    """Turn SIGINT/SIGTERM into flags so run_jobs controls the shutdown.

    SIGINT (``triggered``) means abort now: busy shards are terminated
    and ``KeyboardInterrupt`` re-raised after the orderly shutdown.
    SIGTERM (``draining``) means graceful drain: stop launching, let
    in-flight chunks finish (bounded by ``REPRO_DRAIN_TIMEOUT``), commit
    their results, mark the rest ``aborted``, and return normally.

    Only installs handlers in the main thread of the main interpreter
    (``signal.signal`` raises ValueError elsewhere); otherwise the flags
    simply never trip and Python's default behaviour applies.
    """

    def __init__(self, sigint=True):
        self.triggered = False
        self.draining = False
        self._sigint = sigint
        self._previous = {}

    def __enter__(self):
        if threading.current_thread() is threading.main_thread():
            try:
                if self._sigint:
                    self._previous[signal.SIGINT] = signal.signal(
                        signal.SIGINT, self._handle_int)
                self._previous[signal.SIGTERM] = signal.signal(
                    signal.SIGTERM, self._handle_term)
            except ValueError:
                pass
        return self

    def _handle_int(self, _signum, _frame):
        self.triggered = True

    def _handle_term(self, _signum, _frame):
        self.draining = True

    def __exit__(self, *_exc_info):
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        return False


def _incident(workload, config_name, job_index, classification, attempts,
              recovered, detail, root_cause=None):
    """One failure-manifest record; every incident is built here."""
    return {
        "workload": workload,
        "config": config_name,
        "job_index": job_index,
        "classification": classification,
        "attempts": attempts,
        "recovered": recovered,
        "detail": detail,
        "root_cause": root_cause,
    }


def trace_key(job):
    """The ``(workload name, length)`` trace a job runs on: its lane."""
    workload = job[0]
    name = workload if isinstance(workload, str) else workload.name
    return name, job[2]


class Executor(object):
    """What both executors share: the completion callbacks, the lane
    queue, the one-resident-trace rule and the retry decision for a
    failed attempt (:meth:`_fail_attempt`).

    ``execute(pending, guard, on_success, on_terminal, on_aborted,
    on_retry, on_lane)`` runs every pending job to completion, firing the
    callbacks in the caller's thread, and raises the terminal
    :class:`WorkerError` when ``keep_going`` is off.  ``on_lane(key)``
    fires once per trace lane before any of its jobs run (the sweep's
    checkpoint prewarm).  ``traps_sigint`` says whether the executor
    wants SIGINT turned into a flag (the pool must stop its shards
    first) or left to raise in place.

    The queue is one lane per :func:`trace_key`, keys in first-queued
    order; a key leaves the map when its lane empties.  A process that
    runs jobs holds one trace at a time (:meth:`hold_trace`).
    """

    traps_sigint = True

    def __init__(self, retries=None, keep_going=False):
        self.retries = (settings.get("REPRO_JOB_RETRIES") if retries is None
                        else retries)
        self.keep_going = keep_going
        self._fatal = None
        self._on_success = None
        self._on_terminal = None
        self._on_aborted = None
        self._on_retry = None
        self._on_lane = None
        #: trace key -> deque of queued jobs.
        self._lanes = {}
        #: The trace key this process last entered (see :meth:`hold_trace`).
        self._resident = None

    def _bind(self, on_success, on_terminal, on_aborted, on_retry, on_lane):
        self._on_success = on_success
        self._on_terminal = on_terminal
        self._on_aborted = on_aborted
        self._on_retry = on_retry
        self._on_lane = on_lane

    @staticmethod
    def hold_trace(resident, key):
        """The one-resident-trace rule: a process moving from trace
        ``resident`` to a different trace ``key`` drops its
        ``build_workload`` memo, so it holds one trace plus one core
        however many traces it visits.  Returns ``key``, the new
        resident."""
        if resident is not None and key != resident:
            build_workload.cache_clear()
        return key

    def _enter_lane(self, key):
        self._resident = self.hold_trace(self._resident, key)
        if self._on_lane is not None:
            self._on_lane(key)

    def _enqueue(self, pj, front=False):
        lane = self._lanes.setdefault(trace_key(pj.job), deque())
        if front:
            lane.appendleft(pj)
        else:
            lane.append(pj)

    def _requeue(self, pj):
        self._enqueue(pj, front=True)  # a retry runs before its lane's rest

    def _take(self, key, pj):
        """Remove queued job ``pj`` from lane ``key``."""
        lane = self._lanes[key]
        lane.remove(pj)
        if not lane:
            del self._lanes[key]

    def _fail_attempt(self, pj, classification, detail, root_cause):
        """Account one failed attempt: a retryable failure with budget
        left is requeued at the front of its lane, to run on the next
        free slot; otherwise the job is terminal under keep-going, else
        the run's fatal error."""
        pj.tries += 1
        pj.last_class = classification
        pj.last_detail = detail
        pj.last_root = root_cause
        if classification in RETRYABLE and pj.tries <= self.retries:
            self._requeue(pj)
            if self._on_retry is not None:
                self._on_retry(pj)
        elif self.keep_going:
            self._on_terminal(pj)
        else:
            self._fatal = WorkerError(pj.workload_name, pj.config_name,
                                      detail, root_cause)

    def _abort_queued(self):
        """A SIGTERM drain reached every queued job before its next
        attempt."""
        for lane in self._lanes.values():
            for pj in lane:
                self._on_aborted(
                    pj, "SIGTERM drain: job never started" if pj.tries == 0
                    else "SIGTERM drain: retry abandoned after attempt %d"
                    % pj.tries)
        self._lanes.clear()


class SerialExecutor(Executor):
    """The in-process executor: identical results, no supervisor.

    Trace-affine like a shard: it runs one lane to completion before
    entering the next, prewarms each lane (``on_lane``) just before its
    first job, and drops the ``build_workload`` memo on a lane change, so
    the caller's process holds one trace plus one core.  Crashes injected
    here raise InjectedCrash (never ``os._exit``) and are retried in
    place at once.  There is no watchdog — a hang hangs the caller,
    which is the serial contract — and SIGINT keeps its default
    immediate ``KeyboardInterrupt``.  A SIGTERM drain
    lets the in-flight job finish and commit; the rest is aborted.
    """

    traps_sigint = False

    def execute(self, pending, guard=None, on_success=None, on_terminal=None,
                on_aborted=None, on_retry=None, on_lane=None):
        self._bind(on_success, on_terminal, on_aborted, on_retry, on_lane)
        for pj in pending:
            self._enqueue(pj)
        while self._lanes:
            if guard is not None and guard.draining:
                self._abort_queued()
                break
            key = (self._resident if self._resident in self._lanes
                   else next(iter(self._lanes)))
            if key != self._resident:
                self._enter_lane(key)
            pj = self._lanes[key][0]
            self._take(key, pj)
            try:
                # Looked up per call: a wrapper installed on the module
                # attribute must see every job.
                _key, data, seconds = _run_job(pj.item(False))
            except WorkerError as err:
                self._fail_attempt(pj, classify_failure(err.detail,
                                                        err.root_cause),
                                   err.detail, err.root_cause)
            else:
                self._on_success(pj, data, seconds)
            if self._fatal is not None:
                raise self._fatal


class _Sweep(object):
    """The state the stages of one :func:`run_jobs` call share, and the
    completion callbacks every executor reports through."""

    def __init__(self, cache, progress):
        self.cache = cache
        self.progress = progress
        # REPRO_TRACE: bypass the result cache so every job actually
        # simulates (a cache hit would silently produce no events), making
        # the merged event log a pure function of the job list.
        self.trace_spec = trace_spec_from_env()
        self.total = 0           # progress denominator (interval units)
        self.done = 0
        self.cache_hits = 0
        self.deduplicated = 0
        self.by_key = {}         # key -> SimResult (None = failed)
        self.cells = {}          # sampled cell key -> (spec, interval keys)
        self.failures = []       # the failure manifest
        self.drained = False

    def tick(self, workload, config_name, seconds, source):
        if source != "retry":
            self.done += 1
        if self.progress:
            self.progress(self.done, self.total, workload, config_name,
                          seconds, source)

    def on_success(self, pj, data, seconds):
        result = SimResult(data)
        if self.trace_spec is None:
            self.cache.put(pj.key, result)  # parent-only, incremental commit
        self.by_key[pj.key] = result
        if pj.corrupt_record is not None:
            pj.corrupt_record["recovered"] = True
            pj.corrupt_record["attempts"] = pj.tries + 1
        if pj.tries:
            # Recovered after failed attempts: an incident worth a record,
            # but not a terminal failure.
            self.failures.append(_incident(
                pj.workload_name, pj.config_name, pj.index, pj.last_class,
                pj.tries + 1, True, pj.last_detail, pj.last_root))
        self.tick(data["workload"], data["config"], seconds, "run")

    def on_terminal(self, pj):
        self._failed(pj, pj.last_class, pj.last_detail, pj.last_root)

    def on_aborted(self, pj, detail):
        self._failed(pj, CLASS_ABORTED, detail, None)

    def on_retry(self, pj):
        self.tick(pj.workload_name, pj.config_name, 0.0, "retry")

    def _failed(self, pj, classification, detail, root_cause):
        self.failures.append(_incident(
            pj.workload_name, pj.config_name, pj.index, classification,
            pj.tries, False, detail, root_cause))
        self.by_key[pj.key] = None
        self.tick(pj.workload_name, pj.config_name, 0.0, "fail")


def _plan(sweep, jobs):
    """Normalise jobs to ``(workload, config, length, warmup, sampling)``,
    key them, and deduplicate.  Returns ``(keys, unique)``: the key of
    every job in order, and each distinct key's first job.

    Sampling is silently dropped where
    :func:`~repro.sim.sampling.sampling_applies` refuses it (VP configs,
    tracing): such a job runs the full window, as ``simulate_sampled``
    does.
    """
    keys, unique = [], {}
    for job in jobs:
        workload, config, length, warmup = job[:4]
        spec = job[4] if len(job) > 4 else None
        if spec is not None and not sampling_applies(
                config, sweep.trace_spec is not None):
            spec = None
        if spec is not None:
            spec = normalize_spec(spec)
        key = sweep.cache.key(workload, config, length, warmup)
        if spec is not None:
            key += sampling_suffix(spec)
        keys.append(key)
        unique.setdefault(key, (workload, config, length, warmup, spec))
    sweep.total = len(keys)
    sweep.deduplicated = len(keys) - len(unique)
    return keys, unique


def _lookup(sweep, keys, unique, store):
    """Serve what the result cache holds, and expand each sampled miss
    into its interval jobs.  Returns ``(misses, prewarm)``: the pending
    jobs, and per trace lane (:func:`trace_key`) the checkpoint
    positions to warm per (workload, trace, length, warm fingerprint).

    Each interval is an independently schedulable, independently cached
    job keyed ``<cell-key>-iNNN``; the cell's aggregate is assembled after
    the fan-out drains.  ``total`` grows so the progress denominator
    counts interval units, not cells.
    """
    cache = sweep.cache
    cache.pop_evictions()  # stale incidents from earlier runs are not ours
    pending = {}
    for key, job in unique.items():
        cached = cache.get(key) if sweep.trace_spec is None else None
        if cached is None:
            pending[key] = job
            continue
        sweep.by_key[key] = cached
        sweep.cache_hits += 1
        sweep.tick(job[0], job[1].name, 0.0, "cache")
    seen = set()
    for key in keys:
        if key in seen and sweep.by_key.get(key) is not None:
            sweep.tick(unique[key][0], unique[key][1].name, 0.0, "dedup")
        seen.add(key)

    work = {}     # key -> 5-tuple job
    prewarm = {}  # lane -> {(name, trace-or-None, length):
    #                         ({warm fingerprint: config}, positions)}
    for key, job in pending.items():
        workload, config, length, warmup, spec = job
        if spec is None:
            work[key] = job
            continue
        trace_length = length if isinstance(workload, str) else len(workload)
        plan = SamplingPlan(config, trace_length, warmup, spec)
        interval_keys = [key + "-i%03d" % i for i in range(plan.samples)]
        sweep.total += plan.samples - 1  # the cell becomes its intervals
        for i, interval_key in enumerate(interval_keys):
            cached = cache.get(interval_key)
            if cached is not None:
                sweep.by_key[interval_key] = cached
                sweep.tick(workload, config.name, 0.0, "cache")
                continue
            work[interval_key] = (workload, config, length, warmup, {
                "interval": {
                    "index": i,
                    "start": plan.starts[i],
                    "measure": plan.measure,
                    "ramp": plan.ramps[i],
                },
                "checkpoint_dir": store.directory,
            })
            if plan.functionals[i] > 0:
                name = workload if isinstance(workload, str) else workload.name
                trace = None if isinstance(workload, str) else workload
                configs, positions = prewarm.setdefault(
                    trace_key(job), {}).setdefault(
                    (name, trace, trace_length), ({}, set()))
                configs.setdefault(warm_fingerprint(config), config)
                positions.add(plan.functionals[i])
        sweep.cells[key] = (spec, interval_keys)

    misses = [_PendingJob(key, job, index, None)
              for index, (key, job) in enumerate(work.items())]
    # Corrupt entries evicted by the lookups above: record the incident,
    # flip it to recovered once the re-simulation lands.
    by_key = {pj.key: pj for pj in misses}
    for incident in cache.pop_evictions():
        pj = by_key.get(incident["key"])
        if pj is not None:
            pj.corrupt_record = _incident(
                pj.workload_name, pj.config_name, pj.index,
                CLASS_CORRUPT_CACHE, 0, False, incident["reason"])
            sweep.failures.append(pj.corrupt_record)
    return misses, prewarm


def _prewarm(sweep, store, groups, batch_warm):
    """Warm one trace lane before its jobs run, so jobs only ever restore.

    Each (workload, length) group makes ONE resumable functional pass per
    hierarchy fingerprint (:func:`ensure_checkpoints` with every config of
    the group): the pass walks the cache hierarchy once, trains every
    distinct RFP table set alongside, and writes each missing hierarchy
    and RFP part at every position any config's intervals need.  A
    sweep whose configs share the cache geometry warms each workload
    once, a repeat sweep zero times.  A corrupt checkpoint met on the
    way is evicted, re-warmed on the spot and recorded as a recovered
    incident against the config whose part it was.  The executor calls
    this per lane (``on_lane``): the serial one just before the lane's
    first job, the shard pool for every lane before fan-out.

    ``batch_warm`` makes every config one lane of a single batched SoA
    engine run (:mod:`repro.emu.batch`) instead.
    """
    if not groups:
        return
    store.pop_evictions()
    ordered = sorted(groups.items(), key=lambda item: (item[0][0], item[0][2]))
    # Module attributes, looked up per call like _run_job.
    if batch_warm:
        ensure_checkpoints_batch(
            [(trace, name, config, trace_length, sorted(positions))
             for (name, trace, trace_length), (configs, positions) in ordered
             for config in configs.values()],
            store,
        )
    else:
        for (name, trace, trace_length), (configs, positions) in ordered:
            ensure_checkpoints(trace, name, list(configs.values()),
                               trace_length, sorted(positions), store)
    incidents = store.pop_evictions()
    if not incidents:
        return
    owner = {}  # part key -> (workload, config name), first config wins
    for (name, _trace, trace_length), (configs, positions) in ordered:
        for config in configs.values():
            for position in positions:
                for part in store.parts(store.key(name, config, trace_length,
                                                  position)):
                    owner.setdefault(part, (name, config.name))
    for incident in incidents:
        name, config_name = owner.get(incident["key"], ("?", "?"))
        sweep.failures.append(_incident(
            name, config_name, -1, CLASS_CORRUPT_CHECKPOINT, 1, True,
            incident["reason"]))


def _execute(sweep, misses, on_lane, max_workers, job_timeout, retries,
             keep_going):
    """Run the misses in-process (one worker) or on the shard pool, with
    SIGINT/SIGTERM turned into an orderly stop or drain; ``on_lane(key)``
    prewarms a trace lane.  Returns the worker count."""
    if max_workers is None:
        max_workers = settings.get("REPRO_JOBS")
    workers = max(1, min(max_workers, len(misses)))
    if workers > 1:
        # Imported lazily: the scheduler imports this module.
        from repro.sim.scheduler import ShardPool

        executor = ShardPool(workers, job_timeout=job_timeout,
                             retries=retries, keep_going=keep_going)
    else:
        executor = SerialExecutor(retries=retries, keep_going=keep_going)
    with _SignalGuard(sigint=executor.traps_sigint) as guard:
        executor.execute(misses, guard, on_success=sweep.on_success,
                         on_terminal=sweep.on_terminal,
                         on_aborted=sweep.on_aborted,
                         on_retry=sweep.on_retry, on_lane=on_lane)
        sweep.drained = guard.draining
        if guard.triggered:
            raise KeyboardInterrupt
    return workers


def _assemble(sweep, misses):
    """Merge per-job event logs and aggregate sampled cells.

    Both consume their parts in job / interval-index order, so the bytes
    and the cell results are identical however many workers ran (a cell
    equals a serial simulate_sampled that stopped at the same interval).
    """
    if sweep.trace_spec is not None and misses:
        with open(sweep.trace_spec.path, "wb") as merged:
            for pj in misses:
                if os.path.exists(pj.trace_path):
                    with open(pj.trace_path, "rb") as part:
                        shutil.copyfileobj(part, merged)
    for cell_key, (spec, interval_keys) in sweep.cells.items():
        datas = [sweep.by_key.get(key) for key in interval_keys]
        if any(result is None for result in datas):
            sweep.by_key[cell_key] = None  # an interval failed terminally
            continue
        result = SimResult(aggregate_intervals([r.data for r in datas], spec))
        sweep.cache.put(cell_key, result)
        sweep.by_key[cell_key] = result


def _report(sweep, misses, workers, wall_seconds):
    # Prewarm incidents (job index -1) are recorded lane by lane; order
    # them by workload so the manifest does not depend on lane order.
    sweep.failures.sort(key=lambda record: (
        record["job_index"], record["recovered"],
        record["workload"] if record["job_index"] < 0 else ""))
    return TimingReport(
        wall_seconds=wall_seconds,
        jobs_total=sweep.total,
        jobs_simulated=len(misses),
        jobs_deduplicated=sweep.deduplicated,
        cache_hits=sweep.cache_hits,
        workers=workers if misses else 0,
        instructions_simulated=sum(
            sweep.by_key[pj.key].data["total_instructions"]
            for pj in misses if sweep.by_key.get(pj.key) is not None),
        jobs_failed=sum(1 for r in sweep.failures if not r["recovered"]
                        and r["classification"] not in (CLASS_CORRUPT_CACHE,
                                                        CLASS_ABORTED)),
        failures=sweep.failures,
        drained=sweep.drained,
    )


def run_jobs(jobs, cache=None, max_workers=None, progress=None,
             job_timeout=None, retries=None, keep_going=False,
             batch_warm=None):
    """Run (workload, config, length, warmup[, sampling]) jobs through the
    result cache and an executor: plan, lookup, execute (prewarming each
    trace lane's checkpoints), assemble, report.

    Args:
        jobs: sequence of ``(workload, config, length, warmup)`` tuples,
            optionally with a fifth interval-sampling spec.
        cache: a :class:`~repro.sim.cache.ResultCache`; defaults to the
            shared on-disk cache.  Completed jobs are committed to it
            incrementally, so an interrupted run resumes where it stopped.
        max_workers: worker cap (None = ``REPRO_JOBS``).  Above one,
            misses run on a :class:`repro.sim.scheduler.ShardPool`;
            otherwise on the in-process :class:`SerialExecutor`.
        progress: optional callback
            ``(done, total, workload, config_name, seconds, source)`` with
            ``source`` one of ``"cache"``, ``"run"``, ``"dedup"``,
            ``"retry"``, ``"fail"``.  When omitted, ``REPRO_PROGRESS=1``
            enables a stderr printer.
        job_timeout: watchdog deadline seconds per attempt (None = env /
            derived default, 0 = disabled); see :func:`resolve_job_timeout`.
        retries: extra attempts for crashed/timed-out jobs (None =
            ``REPRO_JOB_RETRIES``).  Deterministic exceptions are never
            retried.
        keep_going: record terminal failures in the report's manifest and
            return ``None`` in their result slots instead of raising.
        batch_warm: prewarm through the batched SoA engine, bit-exact with
            the scalar prewarm (None = ``REPRO_BATCH_WARM``).

    Returns:
        ``(results, report)`` — ``results`` is a list of
        :class:`~repro.sim.runner.SimResult` (or ``None`` for failed jobs
        under ``keep_going``) in job order, ``report`` a
        :class:`TimingReport` carrying the failure manifest.
    """
    started = time.perf_counter()
    if progress is None and settings.get("REPRO_PROGRESS"):
        progress = _stderr_progress
    if batch_warm is None:
        batch_warm = settings.get("REPRO_BATCH_WARM")
    sweep = _Sweep(cache if cache is not None else default_cache(), progress)
    keys, unique = _plan(sweep, jobs)
    store = default_checkpoint_store()
    misses, prewarm = _lookup(sweep, keys, unique, store)
    trace_dir = None
    if sweep.trace_spec is not None and misses:
        trace_dir = tempfile.mkdtemp(prefix="repro-trace-")
        for pj in misses:
            pj.trace_path = os.path.join(trace_dir, "job-%06d.jsonl" % pj.index)
    try:
        workers = _execute(
            sweep, misses,
            lambda key: _prewarm(sweep, store, prewarm.get(key), batch_warm),
            max_workers, job_timeout, retries, keep_going)
        _assemble(sweep, misses)
    finally:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
    report = _report(sweep, misses, workers,
                     time.perf_counter() - started)
    # Job order, not completion order: deterministic output.
    return [sweep.by_key.get(key) for key in keys], report


def run_matrix(configs, workloads, length, warmup,
               cache=None, max_workers=None, progress=None,
               job_timeout=None, retries=None, keep_going=False,
               sampling=None, batch_warm=None):
    """Fan the full (config x workload) cross-product through one engine.

    Submitting every cell at once keeps all workers busy across config
    boundaries (a per-config pool would drain to a straggler at each
    boundary).  Returns ``([{name: SimResult}, ...] in config order,
    TimingReport)``; under ``keep_going``, failed cells are absent from
    their config's mapping and named in the report's failure manifest.

    ``sampling`` applies interval sampling to every non-VP cell.  Warm
    state comes from the checkpoint store, one functional pass per
    (workload, cache geometry): configs that differ only in timing or RFP
    table parameters share that pass and its hierarchy parts, and each
    distinct RFP table set adds only a small RFP part.  A repeat sweep
    warms nothing.
    """
    configs = list(configs)
    workloads = list(workloads)
    jobs = [
        (name, config, length, warmup, sampling)
        for config in configs
        for name in workloads
    ]
    results, report = run_jobs(jobs, cache=cache, max_workers=max_workers,
                               progress=progress, job_timeout=job_timeout,
                               retries=retries, keep_going=keep_going,
                               batch_warm=batch_warm)
    per_config = []
    for i in range(len(configs)):
        chunk = results[i * len(workloads):(i + 1) * len(workloads)]
        per_config.append({
            name: result for name, result in zip(workloads, chunk)
            if result is not None
        })
    return per_config, report
