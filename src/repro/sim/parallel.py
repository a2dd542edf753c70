"""Parallel suite execution engine with watchdog, retry, and keep-going.

Per-(workload, config) simulations are embarrassingly parallel — nothing is
shared between two runs except the on-disk result cache.  This module runs
a list of jobs either in-process (one worker: the serial reference path)
or on the supervised, trace-affine shard pool of
:mod:`repro.sim.scheduler`, while keeping every cache interaction in the
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
- **Retry with backoff**: crashed or timed-out jobs are retried on a
  healthy shard up to ``retries`` times (``REPRO_JOB_RETRIES``, default
  2), with exponential backoff (``REPRO_RETRY_BACKOFF`` base seconds,
  default 0.5).  Deterministic Python exceptions are *not* retried — the
  same input would fail the same way.
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
  the in-flight chunks (bounded by ``REPRO_DRAIN_TIMEOUT`` seconds,
  default 30), journals their results to the cache, records every
  not-started or timed-out job as ``aborted`` in the manifest, and
  returns normally with ``report.drained`` set — the CLI maps that to
  exit code 4.
- **Fault injection**: :mod:`repro.sim.faults` (``REPRO_FAULT``) drives
  every one of these paths deterministically in CI.

The job body :func:`_run_job` is a module-level function and every job
payload is picklable, so the engine is safe under the ``spawn`` start
method (macOS / Windows); on platforms that offer ``fork`` it is used by
default because shard start-up is substantially cheaper.  Override with
``REPRO_MP_START=spawn|fork|forkserver``.

Knobs:

- ``REPRO_JOBS`` — worker count, i.e. the shard-pool width (also
  ``--jobs`` on the CLI, ``max_workers`` here); default
  ``os.cpu_count()``.
- ``REPRO_MP_START`` — multiprocessing start method.
- ``REPRO_PROGRESS`` — when set (non-empty, not "0"), stream per-job
  progress lines to stderr even if no explicit callback is given.
- ``REPRO_JOB_TIMEOUT`` / ``REPRO_JOB_RETRIES`` / ``REPRO_RETRY_BACKOFF``
  — watchdog deadline seconds, retry budget, backoff base seconds.

Results are deterministic and byte-identical to serial execution: each
simulation is seeded purely by (workload name, config), and the returned
mapping is assembled in job order, not completion order.
"""

import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
import traceback

from repro.obs.export import sort_events, write_jsonl
from repro.obs.tracer import trace_spec_from_env
from repro.sim import faults
from repro.sim.cache import default_cache
from repro.emu.batch import batch_warm_env_enabled
from repro.sim.checkpoint import (
    CheckpointStore, default_checkpoint_store, ensure_checkpoints,
    ensure_checkpoints_batch, warm_fingerprint,
)
from repro.sim.runner import SimResult, simulate, simulate_interval
from repro.sim.sampling import (
    SamplingPlan, aggregate_intervals, normalize_spec, sampling_suffix,
)

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


def default_jobs():
    """Worker count: ``REPRO_JOBS`` env override, else ``os.cpu_count()``."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def start_method():
    """The multiprocessing start method the engine will use."""
    env = os.environ.get("REPRO_MP_START")
    if env:
        return env
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def default_retries():
    """Retry budget per job: ``REPRO_JOB_RETRIES``, default 2."""
    env = os.environ.get("REPRO_JOB_RETRIES")
    if env:
        return max(0, int(env))
    return 2


def retry_backoff_base():
    """Backoff base seconds (doubles per retry): ``REPRO_RETRY_BACKOFF``."""
    env = os.environ.get("REPRO_RETRY_BACKOFF")
    if env:
        return max(0.0, float(env))
    return 0.5


def drain_timeout_default():
    """Seconds a SIGTERM drain waits for in-flight jobs
    (``REPRO_DRAIN_TIMEOUT``, default 30; 0 aborts immediately)."""
    env = os.environ.get("REPRO_DRAIN_TIMEOUT")
    if env:
        try:
            return max(0.0, float(env))
        except ValueError:
            pass
    return 30.0


def resolve_job_timeout(job_timeout, length):
    """Watchdog deadline in seconds for one job, or None (disabled).

    Precedence: explicit argument, then ``REPRO_JOB_TIMEOUT``, then a
    default derived from the instruction count — generous enough that a
    healthy run never trips it, tight enough that a deadlocked event loop
    is killed in minutes, not hours.  Zero or negative disables.
    """
    if job_timeout is not None:
        return job_timeout if job_timeout > 0 else None
    env = os.environ.get("REPRO_JOB_TIMEOUT")
    if env:
        try:
            value = float(env)
        except ValueError:
            value = 0.0
        return value if value > 0 else None
    return max(60.0, length / 500.0)


def classify_failure(detail, root_cause=None):
    """Map a worker-side traceback to a manifest classification."""
    if root_cause == "InjectedCrash":
        return CLASS_CRASH
    if detail and "likely deadlock" in detail:
        return CLASS_DEADLOCK
    return CLASS_ERROR


def _env_progress_enabled():
    value = os.environ.get("REPRO_PROGRESS", "")
    return value not in ("", "0")


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
    the ``spawn`` start method; the serial loop and every shard look it up
    on this module at call time.  Returns the JSON-friendly result payload —
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
            store = (
                CheckpointStore(sampling["checkpoint_dir"])
                if sampling.get("checkpoint_dir") else None
            )
            result = simulate_interval(
                workload, config, length=length,
                start=interval["start"], measure=interval["measure"],
                ramp=interval["ramp"], index=interval["index"],
                checkpoint_store=store,
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

    __slots__ = ("key", "job", "index", "trace_path", "tries", "next_start",
                 "last_class", "last_detail", "last_root", "corrupt_record")

    def __init__(self, key, job, index, trace_path):
        self.key = key
        self.job = job
        self.index = index
        self.trace_path = trace_path
        self.tries = 0          # completed (failed) attempts so far
        self.next_start = 0.0   # backoff eligibility (time.monotonic)
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


def run_jobs(jobs, cache=None, max_workers=None, progress=None,
             job_timeout=None, retries=None, keep_going=False,
             batch_warm=None):
    """Run (workload, config, length, warmup) jobs through the cache and
    the serial loop or the supervised shard pool.

    Args:
        jobs: sequence of ``(workload, config, length, warmup)`` tuples.
        cache: a :class:`~repro.sim.cache.ResultCache`; defaults to the
            shared on-disk cache.  Completed jobs are committed to it
            incrementally (checkpointing), so an interrupted run resumes
            from where it stopped.
        max_workers: concurrent worker cap; defaults to
            :func:`default_jobs`.  Above one, cache misses run on a
            :class:`repro.sim.scheduler.ShardPool` of that many shards
            (heartbeat health checks, quarantine, crash-loop backoff,
            trace-affine dispatch).  The pool is skipped entirely (plain
            in-process loop) when one worker suffices, so
            ``REPRO_JOBS=1`` gives the exact serial behaviour.
        progress: optional callback
            ``(done, total, workload, config_name, seconds, source)`` with
            ``source`` one of ``"cache"``, ``"run"``, ``"dedup"``,
            ``"retry"``, ``"fail"``.  When omitted, ``REPRO_PROGRESS=1``
            enables a stderr printer.
        job_timeout: watchdog deadline seconds per attempt (None = env /
            derived default, 0 = disabled); see :func:`resolve_job_timeout`.
        retries: extra attempts for crashed/timed-out jobs (None = env
            default 2).  Deterministic exceptions are never retried.
        keep_going: record terminal failures in the report's manifest and
            return ``None`` in their result slots instead of raising.
        batch_warm: perform the parent-side prewarm through the batched
            SoA engine (:mod:`repro.emu.batch`) — all missing interval
            checkpoints across the whole job matrix are written by one
            lockstep engine run instead of one scalar pass per
            (workload, warm-fingerprint).  Bit-exact with the scalar
            prewarm.  ``None`` (default) defers to ``REPRO_BATCH_WARM``.

    Returns:
        ``(results, report)`` — ``results`` is a list of
        :class:`~repro.sim.runner.SimResult` (or ``None`` for failed jobs
        under ``keep_going``) in job order, ``report`` a
        :class:`TimingReport` carrying the failure manifest.
    """
    jobs = list(jobs)
    cache = cache if cache is not None else default_cache()
    if max_workers is None:
        max_workers = default_jobs()
    if retries is None:
        retries = default_retries()
    if batch_warm is None:
        batch_warm = batch_warm_env_enabled()
    backoff = retry_backoff_base()
    if progress is None and _env_progress_enabled():
        progress = _stderr_progress
    started = time.perf_counter()
    total = len(jobs)

    # REPRO_TRACE: bypass the result cache so every job actually simulates
    # (a cache hit would silently produce no events), making the merged
    # event log a pure function of the job list — byte-identical between
    # serial and parallel runs, whatever the cache held beforehand.
    trace_spec = trace_spec_from_env()

    # Normalize to 5-tuples (workload, config, length, warmup, sampling).
    # Sampling is silently dropped where it cannot apply: under tracing
    # (the event log must cover the whole trace) and for VP configs (VP
    # tables train on pipeline events the functional gaps do not model).
    normalized = []
    for job in jobs:
        workload, config, length, warmup = job[:4]
        spec = job[4] if len(job) > 4 else None
        if spec is not None and (trace_spec is not None or config.vp.enabled):
            spec = None
        if spec is not None:
            spec = normalize_spec(spec)
        normalized.append((workload, config, length, warmup, spec))

    keys = [
        cache.key(w, c, lgth, wrm)
        + (sampling_suffix(spec) if spec is not None else "")
        for (w, c, lgth, wrm, spec) in normalized
    ]
    by_key = {}        # key -> SimResult (hits now, fills later; None=failed)
    pending = {}       # key -> job: deduplicated in-flight misses
    cache_hits = 0
    deduplicated = 0
    done = 0
    cache.pop_evictions()  # stale incidents from earlier runs are not ours
    for key, job in zip(keys, normalized):
        if key in by_key:
            deduplicated += 1
            done += 1
            if progress:
                progress(done, total, job[0], job[1].name, 0.0, "dedup")
            continue
        if key in pending:
            deduplicated += 1
            continue
        cached = cache.get(key) if trace_spec is None else None
        if cached is not None:
            by_key[key] = cached
            cache_hits += 1
            done += 1
            if progress:
                progress(done, total, job[0], job[1].name, 0.0, "cache")
        else:
            pending[key] = job

    # Expand sampled cells into per-interval work units.  Each interval is
    # an independently schedulable, independently cached job keyed
    # ``<cell-key>-iNNN``; the cell's aggregate is assembled (and cached
    # under the cell key) after the fan-out drains.  ``total`` grows so the
    # progress denominator counts interval units, not cells.
    store = default_checkpoint_store()
    failures = []
    interval_cells = {}  # cell_key -> {"spec", "interval_keys"}
    work = {}            # key -> 5-tuple handed to _PendingJob
    prewarm = {}         # (name, trace-or-None, length, fp) -> set(positions)
    for key, job in pending.items():
        workload, config, length, warmup, spec = job
        if spec is None:
            work[key] = job
            continue
        trace_length = length if isinstance(workload, str) else len(workload)
        plan = SamplingPlan(config, trace_length, warmup, spec)
        interval_keys = []
        for i in range(plan.samples):
            interval_key = key + "-i%03d" % i
            interval_keys.append(interval_key)
            cached = cache.get(interval_key)
            if cached is not None:
                by_key[interval_key] = cached
                done += 1
                total += 1
                if progress:
                    progress(done, total, job[0], config.name, 0.0, "cache")
                continue
            total += 1
            work[interval_key] = (workload, config, length, warmup, {
                "interval": {
                    "index": i,
                    "start": plan.starts[i],
                    "measure": plan.measure,
                    "ramp": plan.ramps[i],
                },
                "checkpoint_dir": store.directory if store is not None
                else None,
            })
            functional = plan.functionals[i]
            if store is not None and functional > 0:
                name = workload if isinstance(workload, str) else workload.name
                trace = None if isinstance(workload, str) else workload
                group = prewarm.setdefault(
                    (name, trace, trace_length, warm_fingerprint(config)),
                    (config, set()),
                )
                group[1].add(functional)
        total -= 1  # the cell itself is replaced by its interval units
        interval_cells[key] = {"spec": spec, "interval_keys": interval_keys}

    # Parent-side prewarm: ONE resumable functional pass per (workload,
    # warm-fingerprint) writes every missing interval checkpoint before the
    # fan-out, so shards only ever restore — a 9-config sweep warms each
    # workload once, a repeat sweep zero times.
    if store is not None:
        store.pop_evictions()
        ordered = sorted(prewarm.items(),
                         key=lambda item: (item[0][0], item[0][3]))

        def _warm_incident(name, config_name, reason):
            failures.append({
                "workload": name,
                "config": config_name,
                "job_index": -1,
                "classification": CLASS_CORRUPT_CHECKPOINT,
                "attempts": 1,
                "recovered": True,  # re-warmed on the spot
                "detail": reason,
                "root_cause": None,
            })

        if batch_warm and ordered:
            # Batched lane: every prewarm group becomes one lane of a
            # single SoA engine run — groups sharing a trace advance in
            # lockstep, lanes sharing cache geometry share one cache
            # advance.  Incidents are attributed back through the store
            # key (workload-length-functional-fingerprint).
            config_by_fp = {
                (name, fp): config.name
                for (name, _t, _l, fp), (config, _p) in ordered
            }
            ensure_checkpoints_batch(
                [(trace, name, config, trace_length, sorted(positions))
                 for (name, trace, trace_length, _fp), (config, positions)
                 in ordered],
                store,
            )
            for incident in store.pop_evictions():
                name, _length, _pos, fp = incident["key"].rsplit("-", 3)
                _warm_incident(name, config_by_fp.get((name, fp), "?"),
                               incident["reason"])
        else:
            for (name, trace, trace_length, _fp), (config, positions) \
                    in ordered:
                ensure_checkpoints(trace, name, config, trace_length,
                                   sorted(positions), store)
                for incident in store.pop_evictions():
                    _warm_incident(name, config.name, incident["reason"])

    trace_dir = None
    if trace_spec is not None and work:
        trace_dir = tempfile.mkdtemp(prefix="repro-trace-")

    def _trace_path(index):
        if trace_dir is None:
            return None
        return os.path.join(trace_dir, "job-%06d.jsonl" % index)

    miss_jobs = [
        _PendingJob(key, job, index, _trace_path(index))
        for index, (key, job) in enumerate(work.items())
    ]

    # Corrupt entries evicted during the scan above: record the incident,
    # flip it to recovered once the re-simulation lands.
    by_miss_key = {pj.key: pj for pj in miss_jobs}
    for incident in cache.pop_evictions():
        pj = by_miss_key.get(incident["key"])
        if pj is None:
            continue
        record = {
            "workload": pj.workload_name,
            "config": pj.config_name,
            "job_index": pj.index,
            "classification": CLASS_CORRUPT_CACHE,
            "attempts": 0,
            "recovered": False,
            "detail": incident["reason"],
            "root_cause": None,
        }
        pj.corrupt_record = record
        failures.append(record)

    def _record_success(pj, data, seconds):
        nonlocal done
        result = SimResult(data)
        if trace_spec is None:
            cache.put(pj.key, result)  # parent-only, incremental commit
        by_key[pj.key] = result
        done += 1
        if pj.corrupt_record is not None:
            pj.corrupt_record["recovered"] = True
            pj.corrupt_record["attempts"] = pj.tries + 1
        if pj.tries:
            # Recovered after failed attempts: an incident worth a record,
            # but not a terminal failure.
            failures.append({
                "workload": pj.workload_name,
                "config": pj.config_name,
                "job_index": pj.index,
                "classification": pj.last_class,
                "attempts": pj.tries + 1,
                "recovered": True,
                "detail": pj.last_detail,
                "root_cause": pj.last_root,
            })
        if progress:
            progress(done, total, data["workload"], data["config"],
                     seconds, "run")

    def _record_terminal(pj):
        nonlocal done
        failures.append({
            "workload": pj.workload_name,
            "config": pj.config_name,
            "job_index": pj.index,
            "classification": pj.last_class,
            "attempts": pj.tries,
            "recovered": False,
            "detail": pj.last_detail,
            "root_cause": pj.last_root,
        })
        by_key[pj.key] = None
        done += 1
        if progress:
            progress(done, total, pj.workload_name, pj.config_name,
                     0.0, "fail")

    def _record_aborted(pj, detail):
        """A SIGTERM drain stopped this job before it could finish."""
        nonlocal done
        failures.append({
            "workload": pj.workload_name,
            "config": pj.config_name,
            "job_index": pj.index,
            "classification": CLASS_ABORTED,
            "attempts": pj.tries,
            "recovered": False,
            "detail": detail,
            "root_cause": None,
        })
        by_key[pj.key] = None
        done += 1
        if progress:
            progress(done, total, pj.workload_name, pj.config_name,
                     0.0, "fail")

    workers = max(1, min(max_workers, len(miss_jobs)))
    drained = False
    try:
        if workers > 1:
            # Shard pool: long-lived supervised shard processes with
            # heartbeat health checks and trace-affine dispatch (see
            # repro.sim.scheduler).  Imported lazily — the scheduler
            # imports this module's job body.
            from repro.sim.scheduler import ShardPool

            def _on_retry(pj):
                if progress:
                    progress(done, total, pj.workload_name, pj.config_name,
                             0.0, "retry")

            pool = ShardPool(workers, job_timeout=job_timeout,
                             retries=retries, keep_going=keep_going)
            with _SignalGuard() as guard:
                pool.execute(miss_jobs, guard=guard,
                             on_success=_record_success,
                             on_terminal=_record_terminal,
                             on_aborted=_record_aborted,
                             on_retry=_on_retry)
                drained = guard.draining
                if guard.triggered:
                    raise KeyboardInterrupt
        else:
            # In-process path: no supervisor, identical results.  Crashes
            # injected here raise InjectedCrash (never os._exit) and are
            # retried in place; there is no watchdog — a hang would hang
            # the caller, which is exactly the serial contract.  SIGINT
            # keeps its default immediate KeyboardInterrupt (the serial
            # contract again); SIGTERM drains — the in-flight job finishes
            # and commits, the rest is marked aborted.
            with _SignalGuard(sigint=False) as guard:
                for pj in miss_jobs:
                    if guard.draining:
                        _record_aborted(
                            pj, "SIGTERM drain: job never started")
                        continue
                    while True:
                        item = (pj.key, pj.job, pj.trace_path,
                                pj.index, pj.tries + 1, False)
                        try:
                            _key, data, seconds = _run_job(item)
                        except WorkerError as err:
                            pj.tries += 1
                            pj.last_class = classify_failure(err.detail,
                                                             err.root_cause)
                            pj.last_detail = err.detail
                            pj.last_root = err.root_cause
                            if guard.draining:
                                _record_aborted(
                                    pj, "SIGTERM drain: retry abandoned "
                                    "after attempt %d" % pj.tries)
                                break
                            if (pj.last_class in RETRYABLE
                                    and pj.tries <= retries):
                                if progress:
                                    progress(done, total, pj.workload_name,
                                             pj.config_name, 0.0, "retry")
                                time.sleep(backoff * (2 ** (pj.tries - 1)))
                                continue
                            if keep_going:
                                _record_terminal(pj)
                                break
                            raise
                        else:
                            _record_success(pj, data, seconds)
                            break
                drained = guard.draining
        if trace_dir is not None:
            # Merge per-job event logs in job (not completion) order; the
            # result is byte-identical however many workers ran.
            with open(trace_spec.path, "wb") as merged:
                for pj in miss_jobs:
                    if os.path.exists(pj.trace_path):
                        with open(pj.trace_path, "rb") as part:
                            shutil.copyfileobj(part, merged)
        # Assemble sampled cells from their interval results.  Aggregation
        # consumes intervals in index order with a deterministic early-stop
        # rule, so the cell result is identical however many workers ran
        # (and identical to a serial simulate_sampled that stopped early).
        for cell_key, cell in interval_cells.items():
            datas = []
            for interval_key in cell["interval_keys"]:
                result = by_key.get(interval_key)
                if result is None:
                    datas = None  # an interval failed terminally
                    break
                datas.append(result.data)
            if datas is None:
                by_key[cell_key] = None
                continue
            result = SimResult(aggregate_intervals(datas, cell["spec"]))
            cache.put(cell_key, result)
            by_key[cell_key] = result
    finally:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)

    failures.sort(key=lambda record: (record["job_index"],
                                      record["recovered"]))
    report = TimingReport(
        wall_seconds=time.perf_counter() - started,
        jobs_total=total,
        jobs_simulated=len(miss_jobs),
        jobs_deduplicated=deduplicated,
        cache_hits=cache_hits,
        workers=workers if miss_jobs else 0,
        instructions_simulated=sum(
            by_key[pj.key].data["total_instructions"]
            for pj in miss_jobs
            if by_key.get(pj.key) is not None
        ),
        jobs_failed=sum(1 for r in failures if not r["recovered"]
                        and r["classification"] not in (CLASS_CORRUPT_CACHE,
                                                        CLASS_ABORTED)),
        failures=failures,
        drained=drained,
    )
    # Job order, not completion order: deterministic output.
    return [by_key.get(key) for key in keys], report


def run_suite_parallel(config, workloads, length, warmup,
                       cache=None, max_workers=None, progress=None,
                       job_timeout=None, retries=None, keep_going=False,
                       sampling=None, batch_warm=None):
    """Fan one config across ``workloads``; returns ``({name: SimResult},
    TimingReport)``.  Under ``keep_going``, failed workloads are simply
    absent from the mapping (the report's manifest names them).

    ``sampling`` is an optional interval-sampling spec (see
    :func:`~repro.sim.sampling.normalize_spec`); each workload's intervals
    then run as independent jobs sharing one warm-state checkpoint.
    """
    jobs = [(name, config, length, warmup, sampling) for name in workloads]
    results, report = run_jobs(jobs, cache=cache, max_workers=max_workers,
                               progress=progress, job_timeout=job_timeout,
                               retries=retries, keep_going=keep_going,
                               batch_warm=batch_warm)
    return {name: result for name, result in zip(workloads, results)
            if result is not None}, report


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

    ``sampling`` applies interval sampling to every non-VP cell; configs
    sharing warm-relevant parameters share checkpoints, so the whole
    matrix costs one functional warm per workload.
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
