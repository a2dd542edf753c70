"""The shard pool: the one parallel executor behind ``run_jobs``.

:func:`repro.sim.parallel.run_jobs` runs its cache misses in-process when
one worker suffices (the serial reference path) and through a
:class:`ShardPool` of ``REPRO_JOBS`` / ``--jobs`` / ``max_workers``
long-lived **shard** processes otherwise.  The pool has three parts:

- **Shards** (:func:`_shard_main`): long-lived children that loop
  ``recv job -> run -> send result``.  Each job runs through
  :func:`repro.sim.parallel._run_job`, looked up on the module at call
  time so a wrapper installed on that attribute (the perf harness's span
  hook) sees every job.  The wire protocol is ``("job", item)`` /
  ``("stop",)`` down and ``("ok", key, data, seconds)`` /
  ``("err", workload, config_name, detail, root_cause)`` up.
- **Trace affinity** (:meth:`ShardPool._next_ready`): the queue is the
  :class:`~repro.sim.parallel.Executor` lane queue, one lane per trace
  key ``(workload, length)``.  A free shard takes a job on the trace it
  already holds; else a job on a trace no other shard holds; else the
  queue head.  A shard keeps one trace resident by the executors' one
  rule, :meth:`~repro.sim.parallel.Executor.hold_trace`: it drops its
  ``build_workload`` memo when the trace key of its next job differs
  from the last one.  A sweep of C configs x K intervals over W
  workloads therefore builds about W traces, not C x K x W.  The parent
  prewarms every lane's checkpoints before fan-out, under the same rule,
  so it too holds one trace at a time.
- **Supervision** (:class:`ShardPool`): a selector loop over all shard
  pipes, with two liveness signals.  A job that outlives its watchdog
  deadline (see :func:`repro.sim.parallel.resolve_job_timeout`) has its
  shard killed; this is also what catches a frozen shard, since a
  stopped or stuck process never answers its job.  A shard whose pipe
  hits EOF has died.  Either way the slot respawns on the next loop
  pass and the in-flight attempt is charged to its job.  Job-level
  retry accounting (attempts, keep-going manifests) is the one
  :meth:`repro.sim.parallel.Executor._fail_attempt` the serial executor
  uses too, so results and manifests match it, and a shard that dies
  on every incarnation is bounded by ``REPRO_JOB_RETRIES`` alone.

Fault injection (``REPRO_FAULT``): ``crash``/``hang`` target jobs by
index as on the serial path (a crash hard-exits the shard), and
``kill_shard:shard=N:after=C`` / ``stop_shard:shard=N:after=C`` target
shards by id and incarnation so CI drives the respawn/requeue and
watchdog paths deterministically; see :mod:`repro.sim.faults`.
:mod:`repro.sim.chaos` proves the whole stack converges
byte-identically under injected faults.
"""

import multiprocessing
import os
import signal
import time
from multiprocessing.connection import wait as _wait_connections

from repro.sim import faults, parallel, settings
from repro.sim.parallel import (
    CLASS_CRASH, CLASS_TIMEOUT, Executor, WorkerError, classify_failure,
    resolve_job_timeout, trace_key,
)


#: Seconds the supervisor waits on the shard pipes per loop pass.
_TICK = 0.05


def _shard_main(shard_id, incarnation, conn, parent_fd=None):
    """Shard child body: loop ``recv job -> run -> send``.

    The parent sends ``("job", item)`` or ``("stop",)``; the shard answers
    every job with ``("ok", key, data, seconds)`` or ``("err", workload,
    config_name, detail, root_cause)``.

    Fault hooks fire at job receipt once enough jobs have finished:
    ``kill_shard`` hard-exits, so the supervisor sees pipe EOF;
    ``stop_shard`` sends the shard ``SIGSTOP``, so only the job's
    watchdog deadline can catch it.
    """
    if parent_fd is not None:
        # Fork start method: this child inherited a copy of its own
        # pipe's *parent* end.  Close it, or the child would hold its
        # peer open and never see EOF when the supervisor dies (e.g. a
        # kill -9 mid-commit), leaving an orphan shard blocked in recv.
        try:
            os.close(parent_fd)
        except OSError:
            pass
    # The supervisor owns shutdown.  A terminal Ctrl-C reaches the whole
    # process group, but only the supervisor acts on it; and a fork child
    # inherits the supervisor's flag-setting SIGTERM handler, which would
    # leave a SIGTERMed shard running.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    jobs_done = 0
    resident = None  # trace key of the last job
    fault, fault_after = (faults.shard_fault(shard_id, incarnation)
                          or (None, None))
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(message, tuple) or message[0] != "job":
                break  # ("stop",) or anything unexpected: exit cleanly
            if fault is not None and jobs_done >= fault_after:
                if fault == "kill_shard":
                    os._exit(32)  # a true crash: no goodbye on the pipe
                os.kill(os.getpid(), signal.SIGSTOP)
            item = message[1]
            resident = Executor.hold_trace(resident, trace_key(item[1]))
            try:
                # Looked up per call, never bound at import: a wrapper
                # installed on the module attribute must see every job.
                key, data, seconds = parallel._run_job(item)
                conn.send(("ok", key, data, seconds))
            except WorkerError as err:
                conn.send(("err", err.workload, err.config_name,
                           err.detail, err.root_cause))
            jobs_done += 1
    except BaseException:
        pass  # broken pipe / teardown: the parent sees EOF
    finally:
        try:
            conn.close()
        except OSError:
            pass


class _ShardSlot(object):
    """Supervisor-side state for one shard position in the pool."""

    __slots__ = ("index", "incarnation", "process", "conn", "job",
                 "deadline", "trace_key")

    def __init__(self, index):
        self.index = index
        self.incarnation = 0
        self.process = None
        self.conn = None
        self.job = None          # the in-flight pending job, if any
        self.deadline = None     # per-job watchdog deadline
        self.trace_key = None    # the trace this shard holds, if any


class ShardPool(Executor):
    """N supervised long-lived shards with trace-affine dispatch.

    :meth:`execute` runs a list of pending jobs to completion for
    :func:`repro.sim.parallel.run_jobs`; completion callbacks fire in the
    caller's thread, preserving the parent-side incremental cache commit.
    """

    def __init__(self, shards, job_timeout=None, retries=None,
                 keep_going=True):
        super(ShardPool, self).__init__(retries, keep_going)
        self.shards = max(1, int(shards))
        self.job_timeout = job_timeout
        #: Supervision events (spawn/respawn/death/watchdog), in order.
        self.events = []
        self._ctx = multiprocessing.get_context(settings.get("REPRO_MP_START"))
        self._slots = [_ShardSlot(i) for i in range(self.shards)]

    def _event(self, kind, slot, **extra):
        record = {"event": kind, "shard": slot.index,
                  "incarnation": slot.incarnation}
        record.update(extra)
        self.events.append(record)

    # -- shard lifecycle -------------------------------------------------

    def _spawn(self, slot):
        slot.incarnation += 1
        parent_conn, child_conn = self._ctx.Pipe()
        # Under fork the child inherits our parent_conn fd; hand it the
        # number so it can close the copy (see _shard_main).  Under spawn
        # nothing is inherited and fd numbers don't transfer: pass None.
        parent_fd = (parent_conn.fileno()
                     if self._ctx.get_start_method() == "fork" else None)
        process = self._ctx.Process(
            target=_shard_main,
            args=(slot.index, slot.incarnation, child_conn, parent_fd),
            daemon=True,
        )
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.job = None
        slot.deadline = None
        self._event("spawn" if slot.incarnation == 1 else "respawn", slot)

    def _kill_slot(self, slot):
        """SIGKILL a shard process and close its pipe (no accounting).

        One ``kill()``: a shard has no graceful exit to wait for, and
        SIGKILL ends a stopped shard or a fork child whose inherited
        SIGTERM handler has not been reset yet.
        """
        process, conn = slot.process, slot.conn
        slot.process = None
        slot.conn = None
        slot.trace_key = None  # its trace died with it
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is not None:
            if process.is_alive():
                process.kill()
            process.join()

    def _shard_died(self, slot):
        """Pipe EOF: the shard process is gone; requeue its job."""
        pj = slot.job
        slot.job = None
        slot.deadline = None
        process = slot.process
        exitcode = None
        if process is not None:
            process.join(1.0)
            exitcode = process.exitcode
        incarnation = slot.incarnation
        self._kill_slot(slot)
        self._event("shard_died", slot,
                    reason="process died (exit %s)" % exitcode)
        if pj is not None:
            self._fail_attempt(
                pj, CLASS_CRASH,
                "shard %d (incarnation %d) died (exit %s) while running "
                "attempt %d" % (slot.index, incarnation, exitcode,
                                pj.tries + 1),
                None)

    def _watchdog_kill(self, slot):
        """Per-job deadline blown: kill the shard, fail the attempt."""
        pj = slot.job
        slot.job = None
        slot.deadline = None
        self._kill_slot(slot)
        self._event("watchdog_kill", slot, job=pj.key)
        self._fail_attempt(
            pj, CLASS_TIMEOUT,
            "watchdog: attempt %d exceeded its %.1fs deadline; shard "
            "killed and respawned"
            % (pj.tries + 1,
               resolve_job_timeout(self.job_timeout, pj.job[2])),
            None)

    # -- dispatch --------------------------------------------------------

    def _next_ready(self, slot):
        """Pop the job free shard ``slot`` runs next, or None when the
        queue is empty.

        Trace affinity, in order: the head of the lane on the trace the
        shard already holds; else the head of a lane on a trace no other
        shard holds; else the queue head.  A retry sits at the front of
        its lane, so it goes out on the first free shard.
        """
        if not self._lanes:
            return None
        if slot.trace_key in self._lanes:
            key = slot.trace_key
        else:
            held = {other.trace_key for other in self._slots
                    if other is not slot}
            key = next((key for key in self._lanes if key not in held),
                       next(iter(self._lanes)))
        pj = self._lanes[key][0]
        self._take(key, pj)
        return pj

    def _dispatch(self, slot, pj, now):
        try:
            slot.conn.send(("job", pj.item(True)))
        except (OSError, ValueError):
            self._enqueue(pj, front=True)
            self._shard_died(slot)
            return
        slot.job = pj
        slot.trace_key = trace_key(pj.job)
        timeout = resolve_job_timeout(self.job_timeout, pj.job[2])
        slot.deadline = now + timeout if timeout is not None else None

    def _handle_message(self, slot, message):
        pj = slot.job
        slot.job = None
        slot.deadline = None
        if message[0] == "ok":
            self._on_success(pj, message[2], message[3])
        else:  # ("err", workload, config_name, detail, root_cause)
            detail, root_cause = message[3], message[4]
            self._fail_attempt(pj, classify_failure(detail, root_cause),
                               detail, root_cause)

    # -- the supervisor loop ---------------------------------------------

    def _busy_slots(self):
        return [slot for slot in self._slots if slot.job is not None]

    def _run_loop(self, guard):
        drain_deadline = None
        while self._fatal is None:
            if guard is not None and guard.triggered:
                break
            now = time.monotonic()
            draining = guard is not None and guard.draining
            if draining:
                if drain_deadline is None:
                    drain_timeout = settings.get("REPRO_DRAIN_TIMEOUT")
                    drain_deadline = now + drain_timeout
                self._abort_queued()
                busy = self._busy_slots()
                if not busy:
                    break
                if now >= drain_deadline:
                    for slot in busy:
                        pj = slot.job
                        slot.job = None
                        self._kill_slot(slot)
                        self._on_aborted(
                            pj, "SIGTERM drain: in-flight chunk exceeded "
                            "the %.1fs drain deadline; shard killed"
                            % drain_timeout)
                    break
            if not self._lanes and not self._busy_slots():
                break
            if self._lanes:
                # Respawn dead shards, then hand every free shard its
                # next job.
                for slot in self._slots:
                    if slot.process is None:
                        self._spawn(slot)
                for slot in self._slots:
                    if slot.process is None or slot.job is not None:
                        continue
                    pj = self._next_ready(slot)
                    if pj is None:
                        break
                    self._dispatch(slot, pj, now)
            by_conn = {slot.conn: slot for slot in self._slots
                       if slot.process is not None}
            for ready in _wait_connections(list(by_conn), timeout=_TICK):
                slot = by_conn[ready]
                if slot.conn is not ready:
                    continue  # killed while handling an earlier message
                try:
                    message = ready.recv()
                except (EOFError, OSError):
                    self._shard_died(slot)
                    continue
                self._handle_message(slot, message)
            # The per-job watchdog: the one detector of a stuck shard.
            now = time.monotonic()
            for slot in self._slots:
                if slot.job is not None and slot.deadline is not None \
                        and now >= slot.deadline:
                    self._watchdog_kill(slot)

    def _shutdown_shards(self):
        """Stop every shard: idle ones finish on ``("stop",)``; busy ones
        (an early exit on SIGINT or a fatal failure) are killed."""
        for slot in self._slots:
            if slot.process is None:
                continue
            if slot.job is not None:
                self._kill_slot(slot)
                continue
            try:
                slot.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 1.0
        for slot in self._slots:
            if slot.process is None:
                continue
            slot.process.join(max(0.0, deadline - time.monotonic()))
            self._kill_slot(slot)

    def execute(self, pending, guard=None, on_success=None, on_terminal=None,
                on_aborted=None, on_retry=None, on_lane=None):
        """Run ``pending`` jobs (pending-job protocol objects) to
        completion, firing the completion callbacks in this thread.
        ``on_lane`` fires for every lane, one resident trace at a time,
        before any shard starts.

        Raises the terminal :class:`WorkerError` after shutting the
        shards down when ``keep_going`` is False; with a ``guard``,
        honours SIGINT (stop now; the caller re-raises
        ``KeyboardInterrupt``) and SIGTERM (graceful drain — in-flight
        chunks finish, queued jobs abort).
        """
        self._bind(on_success, on_terminal, on_aborted, on_retry, on_lane)
        pending = list(pending)
        for pj in pending:
            self._enqueue(pj)
        for key in list(self._lanes):
            if guard is not None and (guard.triggered or guard.draining):
                break  # the run loop stops or drains at once
            self._enter_lane(key)
        # Never hold more shards than jobs: trim the pool so the respawn
        # path can't resurrect slots the workload cannot use.
        self._slots = self._slots[: max(1, min(self.shards, len(pending)))]
        for slot in self._slots:
            self._spawn(slot)
        try:
            self._run_loop(guard)
        finally:
            self._shutdown_shards()
        if self._fatal is not None:
            raise self._fatal
