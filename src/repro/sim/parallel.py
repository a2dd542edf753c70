"""The sweep pipeline: every suite run goes through :func:`run_jobs`.

Per-(workload, config) simulations are embarrassingly parallel — nothing
is shared between two runs except the on-disk result cache.
:func:`run_jobs` is a short driver over module-level stages that share
one ``_Sweep`` state object: plan (normalise, key, dedup) -> lookup
(result cache, interval expansion) -> execute (jobs, each trace lane's
checkpoint warm pass inside the lane's first interval job on whichever
process runs it, sampled cells aggregated as their last interval lands)
-> report.  A sweep returns and caches exactly the cells it was asked
for: a sampled cell's intervals are jobs in memory, never result-cache
entries.  The execute stage hands the misses to one of two
:class:`Executor` implementations — the in-process
:class:`SerialExecutor` (one worker: the serial reference path) or the
supervised shard pool of :mod:`repro.sim.scheduler` — which share one
lane queue keyed by trace, one resident-trace rule
(:meth:`Executor.hold_trace`) and one retry decision
(:meth:`Executor._fail_attempt`).  Every cache interaction stays in the
parent process:


- the parent checks the :class:`~repro.sim.cache.ResultCache` first, so
  workers only ever simulate genuine misses (corrupt entries are evicted
  by the cache and re-simulated here);
- duplicate in-flight keys are deduplicated before submission (two figures
  asking for the same (workload, config, length, warmup) share one run);
- shards return plain result dicts over a pipe; the parent writes each
  cell to the cache **incrementally** (a sampled cell once its last
  interval lands), so concurrent shards never race on disk and an
  interrupted run keeps every cell already finished.

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
- **Stopping**: every completed cell is already committed to the cache,
  so a stopped run loses only its unfinished jobs and a re-run
  (``repro suite --resume``) simulates only the remainder.  The serial
  executor keeps the default actions of SIGINT and SIGTERM; the shard
  pool stops its shards first and then re-delivers the signal (see
  :mod:`repro.sim.scheduler`).
- **Fault injection**: :mod:`repro.sim.faults` (``REPRO_FAULT``) drives
  every one of these paths deterministically in CI.

The job body :func:`_run_job` is a module-level function and every job
payload is picklable, so the engine is safe under the ``spawn`` start
method (macOS / Windows); on platforms that offer ``fork`` it is used by
default because shard start-up is substantially cheaper.

Every ``REPRO_*`` setting the engine reads (worker count, start method,
progress, watchdog, retries) is declared in
:mod:`repro.sim.settings` and listed in the README's settings table.

Results are deterministic and byte-identical to serial execution: each
simulation is seeded purely by (workload name, config), and the returned
mapping is assembled in job order, not completion order.
"""

import sys
import time
import traceback
from collections import deque

from repro.isa.trace import resident_image
from repro.sim import faults, settings
from repro.sim.cache import default_cache
from repro.sim.checkpoint import (
    default_checkpoint_store, ensure_checkpoints, ensure_checkpoints_batch,
    warm_fingerprint,
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

#: Only failures that a fresh worker might not reproduce are retried.
RETRYABLE = frozenset((CLASS_CRASH, CLASS_TIMEOUT))

#: Failure-manifest schema version, carried as ``manifest_version`` in
#: every ``--out`` payload and chaos-campaign report so archived
#: manifests are self-describing.  v1: the implicit pre-versioned schema
#: (crash/timeout/deadlock/corrupt_*/error records).  v2: adds the field
#: itself, the ``aborted`` classification (SIGTERM drain), and the
#: report's ``drained`` flag.  v3: the drain, its ``aborted`` class and
#: the ``drained`` flag are gone again.
MANIFEST_VERSION = 3


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
    )

    def __init__(self, wall_seconds, jobs_total, jobs_simulated,
                 jobs_deduplicated, cache_hits, workers,
                 instructions_simulated, jobs_failed=0, failures=None):
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

    @property
    def instructions_per_second(self):
        if self.wall_seconds <= 0:
            return 0.0
        return self.instructions_simulated / self.wall_seconds

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

    ``item`` is ``(key, job, job_index, attempt, in_child)``.
    Module-level (not a closure) so it can be pickled by reference under
    the ``spawn`` start method; the serial executor and every shard look
    it up on this module at call time.  The first interval job of a
    trace lane first runs the lane's warm pass (its sampling dict's
    ``"warm"`` entry, see :func:`_lookup`) on whichever process runs the
    job, so the pass has the job's watchdog, retries and manifest.
    Returns ``(key, data, seconds, evictions)``: the JSON-friendly result
    payload — never a :class:`SimResult` — to keep the IPC surface
    minimal, and the corrupt checkpoints this job (warm pass included)
    evicted and re-warmed (``{"key", "reason"}`` incidents from the
    store's eviction log), which the sweep records in its failure
    manifest.  Failures are re-raised as :class:`WorkerError` carrying
    the (workload, config) key plus the worker-side traceback and root
    exception class.
    """
    key, job, job_index, attempt, in_child = item
    workload, config, length, warmup, sampling = job
    started = time.perf_counter()
    evictions = []
    try:
        faults.fire_worker_faults(job_index, attempt, in_child)
        if sampling is not None:
            # One measurement interval of a sampled cell, restored through
            # this process's one handle on the checkpoint store.
            interval = sampling["interval"]
            store = default_checkpoint_store()
            try:
                if "warm" in sampling:
                    # The lane's first interval job: write every checkpoint
                    # the lane restores (see _lookup).  Module attributes,
                    # looked up per call like _run_job.
                    configs, positions, batch_warm = sampling["warm"]
                    if batch_warm:
                        ensure_checkpoints_batch(
                            [(None, workload, each, length, positions)
                             for each in configs], store)
                    else:
                        ensure_checkpoints(None, workload, configs, length,
                                           positions, store)
                result = simulate_interval(
                    workload, config, length=length,
                    start=interval["start"], measure=interval["measure"],
                    ramp=interval["ramp"], index=interval["index"],
                    checkpoint_store=store,
                )
            finally:
                # Drained whatever the outcome, so a failed attempt's
                # evictions are never charged to a later job.
                evictions = store.pop_evictions()
        else:
            result = simulate(workload, config, length=length, warmup=warmup)
    except Exception as exc:
        raise WorkerError(workload, config.name, traceback.format_exc(),
                          root_cause=type(exc).__name__)
    return key, result.data, time.perf_counter() - started, evictions


class _PendingJob(object):
    """Supervisor-side state for one deduplicated cache miss."""

    __slots__ = ("key", "job", "index", "tries", "last_class", "last_detail",
                 "last_root", "corrupt_record", "evictions")

    def __init__(self, key, job, index):
        self.key = key
        self.job = job
        self.index = index
        self.tries = 0          # completed (failed) attempts so far
        self.last_class = None
        self.last_detail = None
        self.last_root = None
        self.corrupt_record = None  # manifest entry for a cache eviction
        #: Checkpoint evictions its successful attempt reported.
        self.evictions = ()

    @property
    def workload_name(self):
        return self.job[0]

    @property
    def config_name(self):
        return self.job[1].name

    def item(self, in_child):
        """The :func:`_run_job` payload for this job's next attempt."""
        return (self.key, self.job, self.index, self.tries + 1, in_child)


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
    return job[0], job[2]


class Executor(object):
    """What both executors share: the completion callbacks, the lane
    queue, the one-resident-trace rule and the retry decision for a
    failed attempt (:meth:`_fail_attempt`).

    ``execute(pending, on_success, on_terminal, on_retry)`` runs every
    pending job to completion, firing the callbacks in the caller's
    thread, and raises the terminal :class:`WorkerError` when
    ``keep_going`` is off.

    The queue is one lane per :func:`trace_key`, keys in first-queued
    order; a key leaves the map when its lane empties.  A process that
    runs jobs holds one trace at a time (:meth:`hold_trace`).
    """

    def __init__(self, retries=None, keep_going=False):
        self.retries = (settings.get("REPRO_JOB_RETRIES") if retries is None
                        else retries)
        self.keep_going = keep_going
        self._fatal = None
        self._on_success = None
        self._on_terminal = None
        self._on_retry = None
        #: trace key -> deque of queued jobs.
        self._lanes = {}

    def _bind(self, on_success, on_terminal, on_retry):
        self._on_success = on_success
        self._on_terminal = on_terminal
        self._on_retry = on_retry

    @staticmethod
    def hold_trace(resident, key):
        """The one-resident-trace rule: a process moving from trace
        ``resident`` to a different trace ``key`` drops its
        ``build_workload`` memo and the trace's expanded memory image
        (:func:`~repro.isa.trace.resident_image`), so it holds one trace,
        one image and one core however many traces it visits.  Returns
        ``key``, the new resident."""
        if resident is not None and key != resident:
            build_workload.cache_clear()
            resident_image.cache_clear()
        return key

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


class SerialExecutor(Executor):
    """The in-process executor: identical results, no supervisor.

    Trace-affine like a shard: it runs one lane to completion before
    entering the next (so a lane's warm pass, in its first interval job,
    runs before the lane's other jobs) and drops the ``build_workload``
    memo on a lane change, so the caller's process holds one trace plus
    one core.  Crashes injected here raise InjectedCrash (never
    ``os._exit``) and are retried in place at once.  There is no
    watchdog — a hang hangs the caller, which is the serial contract —
    and SIGINT and SIGTERM keep their default actions: there is no child
    to stop, and every finished cell is already cached.
    """

    def execute(self, pending, on_success=None, on_terminal=None,
                on_retry=None):
        self._bind(on_success, on_terminal, on_retry)
        for pj in pending:
            self._enqueue(pj)
        resident = None  # the trace key of the lane being run
        while self._lanes:
            key = (resident if resident in self._lanes
                   else next(iter(self._lanes)))
            resident = self.hold_trace(resident, key)
            pj = self._lanes[key][0]
            self._take(key, pj)
            try:
                # Looked up per call: a wrapper installed on the module
                # attribute must see every job.
                _key, data, seconds, pj.evictions = _run_job(pj.item(False))
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
        self.total = 0           # progress denominator (interval units)
        self.done = 0
        self.cache_hits = 0
        self.deduplicated = 0
        # key -> SimResult (None = failed): cells, and the landed
        # intervals of sampled cells not committed yet.
        self.by_key = {}
        self.cells = {}          # sampled cell key -> (spec, interval keys)
        self.cell_of = {}        # interval key -> its sampled cell's key
        self.jobs = {}           # key -> _PendingJob of every miss
        self.failures = []       # the failure manifest
        self.instructions = 0    # detailed instructions of every success

    def tick(self, workload, config_name, seconds, source):
        if source != "retry":
            self.done += 1
        if self.progress:
            self.progress(self.done, self.total, workload, config_name,
                          seconds, source)

    def on_success(self, pj, data, seconds):
        result = SimResult(data)
        self.instructions += data["total_instructions"]
        if pj.tries:
            # Recovered after failed attempts: an incident worth a record,
            # but not a terminal failure.
            self.failures.append(_incident(
                pj.workload_name, pj.config_name, pj.index, pj.last_class,
                pj.tries + 1, True, pj.last_detail, pj.last_root))
        for incident in pj.evictions:
            # A corrupt checkpoint the job met on restore: evicted and
            # re-warmed in place, so the result is unaffected.
            self.failures.append(_incident(
                pj.workload_name, pj.config_name, pj.index,
                CLASS_CORRUPT_CHECKPOINT, pj.tries + 1, True,
                incident["reason"]))
        cell_key = self.cell_of.get(pj.key)
        if cell_key is None:
            self._commit(pj.key, result, pj)
        else:
            # A sampled cell is aggregated, in interval-index order, and
            # committed the moment its last interval lands; its interval
            # results are dropped then.
            self.by_key[pj.key] = result
            spec, interval_keys = self.cells[cell_key]
            parts = [self.by_key.get(key) for key in interval_keys]
            if all(part is not None for part in parts):
                for key in interval_keys:
                    del self.by_key[key]
                self._commit(cell_key, SimResult(aggregate_intervals(
                    [part.data for part in parts], spec)),
                    self.jobs[interval_keys[0]])
        self.tick(data["workload"], data["config"], seconds, "run")

    def _commit(self, key, result, pj):
        """Cache one finished cell (parent-only, incremental); a corrupt
        entry evicted for it, recorded on ``pj``, is now recovered."""
        self.cache.put(key, result)
        self.by_key[key] = result
        if pj.corrupt_record is not None:
            pj.corrupt_record["recovered"] = True
            pj.corrupt_record["attempts"] = pj.tries + 1

    def on_retry(self, pj):
        self.tick(pj.workload_name, pj.config_name, 0.0, "retry")

    def on_terminal(self, pj):
        self.failures.append(_incident(
            pj.workload_name, pj.config_name, pj.index, pj.last_class,
            pj.tries, False, pj.last_detail, pj.last_root))
        self.by_key[pj.key] = None
        self.tick(pj.workload_name, pj.config_name, 0.0, "fail")


def _plan(sweep, jobs):
    """Normalise jobs to ``(workload, config, length, warmup, sampling)``,
    key them, and deduplicate.  Returns ``(keys, unique)``: the key of
    every job in order, and each distinct key's first job.

    A job's workload is a suite workload name; each process builds the
    trace from it.  Sampling is silently dropped where
    :func:`~repro.sim.sampling.sampling_applies` refuses it (VP configs):
    such a job runs the full window.
    """
    keys, unique = [], {}
    for job in jobs:
        workload, config, length, warmup = job[:4]
        if not isinstance(workload, str):
            raise TypeError("run_jobs takes workload names, not %r"
                            % (workload,))
        spec = job[4] if len(job) > 4 else None
        if spec is not None and not sampling_applies(config):
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


def _lookup(sweep, keys, unique, batch_warm):
    """Serve what the result cache holds, and expand each sampled miss
    into its interval jobs.  Returns the pending jobs.

    Each interval is an independently schedulable job keyed
    ``<cell-key>-iNNN`` in memory only: the result cache holds cells,
    never intervals.  ``total`` grows so the progress denominator counts
    interval units, not cells.

    The first interval job of each trace lane (:func:`trace_key`) that
    restores a checkpoint carries the lane's warm pass in its sampling
    dict, ``"warm": (configs, positions, batch_warm)``: one config per
    warm fingerprint, every position the lane's intervals restore.
    :func:`ensure_checkpoints` makes it one resumable functional pass
    per hierarchy fingerprint, so a repeat sweep warms nothing.  An
    interval that another shard starts while its lane's warm still runs
    warms its own position (same bytes), as any store miss does.
    """
    cache = sweep.cache
    cache.pop_evictions()  # stale incidents from earlier runs are not ours
    pending = {}
    for key, job in unique.items():
        cached = cache.get(key)
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

    work = {}   # key -> 5-tuple job
    warms = {}  # lane -> (its first interval's sampling dict,
    #                      {warm fingerprint: config}, positions)
    for key, job in pending.items():
        workload, config, length, warmup, spec = job
        if spec is None:
            work[key] = job
            continue
        plan = SamplingPlan(config, length, warmup, spec)
        interval_keys = [key + "-i%03d" % i for i in range(plan.samples)]
        sweep.total += plan.samples - 1  # the cell becomes its intervals
        for i, interval_key in enumerate(interval_keys):
            sweep.cell_of[interval_key] = key
            sampling = {
                "interval": {
                    "index": i,
                    "start": plan.starts[i],
                    "measure": plan.measure,
                    "ramp": plan.ramps[i],
                },
            }
            work[interval_key] = (workload, config, length, warmup, sampling)
            _, configs, positions = warms.setdefault(
                trace_key(job), (sampling, {}, set()))
            if plan.functionals[i] > 0:
                configs.setdefault(warm_fingerprint(config), config)
                positions.add(plan.functionals[i])
        sweep.cells[key] = (spec, interval_keys)
    for sampling, configs, positions in warms.values():
        if positions:
            sampling["warm"] = (list(configs.values()), sorted(positions),
                                batch_warm)

    misses = [_PendingJob(key, job, index)
              for index, (key, job) in enumerate(work.items())]
    sweep.jobs = {pj.key: pj for pj in misses}
    # Corrupt entries evicted by the lookups above: record the incident
    # (a sampled cell's on its first interval job) and flip it to
    # recovered once the re-simulated cell commits.
    for incident in cache.pop_evictions():
        key = incident["key"]
        if key in sweep.cells:
            key = sweep.cells[key][1][0]
        pj = sweep.jobs.get(key)
        if pj is not None:
            pj.corrupt_record = _incident(
                pj.workload_name, pj.config_name, pj.index,
                CLASS_CORRUPT_CACHE, 0, False, incident["reason"])
            sweep.failures.append(pj.corrupt_record)
    return misses


def _execute(sweep, misses, max_workers, job_timeout, retries, keep_going):
    """Run the misses in-process (one worker) or on the shard pool.
    Returns the worker count."""
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
    executor.execute(misses, on_success=sweep.on_success,
                     on_terminal=sweep.on_terminal, on_retry=sweep.on_retry)
    return workers


def _report(sweep, misses, workers, wall_seconds):
    sweep.failures.sort(key=lambda record: (record["job_index"],
                                            record["recovered"]))
    return TimingReport(
        wall_seconds=wall_seconds,
        jobs_total=sweep.total,
        jobs_simulated=len(misses),
        jobs_deduplicated=sweep.deduplicated,
        cache_hits=sweep.cache_hits,
        workers=workers if misses else 0,
        instructions_simulated=sweep.instructions,
        jobs_failed=sum(1 for r in sweep.failures if not r["recovered"]
                        and r["classification"] != CLASS_CORRUPT_CACHE),
        failures=sweep.failures,
    )


def run_jobs(jobs, cache=None, max_workers=None, progress=None,
             job_timeout=None, retries=None, keep_going=False,
             batch_warm=False):
    """Run (workload, config, length, warmup[, sampling]) jobs through the
    result cache and an executor: plan, lookup, execute (each trace
    lane's warm pass inside its first interval job, each cell committed
    as it completes), report.

    The parent holds cell results, plus the landed intervals of sampled
    cells not yet committed: a cell's interval results are dropped when
    it commits (a cell with a failed interval keeps them), so its memory
    grows with cells, not interval jobs.

    Args:
        jobs: sequence of ``(workload name, config, length, warmup)``
            tuples, optionally with a fifth interval-sampling spec.
        cache: a :class:`~repro.sim.cache.ResultCache`; defaults to the
            shared on-disk cache.  Completed cells (a sampled one once
            all its intervals land) are committed to it incrementally, so
            an interrupted run resumes where it stopped.
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
        batch_warm: run each lane's warm pass through the batched SoA
            engine, bit-exact with the scalar warm pass.

    Returns:
        ``(results, report)`` — ``results`` is a list of
        :class:`~repro.sim.runner.SimResult` (or ``None`` for failed jobs
        under ``keep_going``) in job order, ``report`` a
        :class:`TimingReport` carrying the failure manifest.
    """
    started = time.perf_counter()
    if progress is None and settings.get("REPRO_PROGRESS"):
        progress = _stderr_progress
    sweep = _Sweep(cache if cache is not None else default_cache(), progress)
    keys, unique = _plan(sweep, jobs)
    misses = _lookup(sweep, keys, unique, batch_warm)
    workers = _execute(sweep, misses, max_workers, job_timeout, retries,
                       keep_going)
    report = _report(sweep, misses, workers,
                     time.perf_counter() - started)
    # Job order, not completion order: deterministic output.  A failed
    # job, or a sampled cell one of whose intervals failed, is None.
    return [sweep.by_key.get(key) for key in keys], report


def run_matrix(configs, workloads, length, warmup,
               cache=None, max_workers=None, progress=None,
               job_timeout=None, retries=None, keep_going=False,
               sampling=None, batch_warm=False):
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
