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
  ``("err", workload, config_name, detail, root_cause)`` up, with
  ``("hb", shard_id)`` liveness beats every ``REPRO_HEARTBEAT_INTERVAL``
  seconds from a daemon thread.
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
  pipes.  A job that outlives its watchdog deadline (see
  :func:`repro.sim.parallel.resolve_job_timeout`) has its shard killed
  and respawned.  A shard that misses ``REPRO_HEARTBEAT_MISSES``
  consecutive heartbeats or whose pipe hits EOF is killed and its
  in-flight job requeued; a replacement is spawned with exponential
  backoff (``REPRO_RESPAWN_BACKOFF`` base seconds, doubling per
  consecutive failure), and a shard that dies :data:`CRASH_LOOP_LIMIT`
  times within :data:`CRASH_LOOP_WINDOW` seconds is **quarantined**:
  benched for the backoff period with an event on
  :attr:`ShardPool.events`.  Job-level retry accounting (attempts,
  backoff, keep-going manifests) is the one
  :meth:`repro.sim.parallel.Executor._fail_attempt` the serial executor
  uses too, so results and manifests match it.

Fault injection (``REPRO_FAULT``): ``crash``/``hang`` target jobs by
index as on the serial path (a crash hard-exits the shard), and
``kill_shard:shard=N:after=C`` / ``hang_heartbeat:shard=N:seconds=S``
target shards by id and incarnation so CI drives the
quarantine/respawn/requeue paths deterministically; see
:mod:`repro.sim.faults`.  :mod:`repro.sim.chaos` proves the whole stack
converges byte-identically under injected faults.
"""

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from multiprocessing.connection import wait as _wait_connections

from repro.sim import faults, parallel, settings
from repro.sim.parallel import (
    CLASS_CRASH, CLASS_TIMEOUT, Executor, WorkerError, classify_failure,
    resolve_job_timeout, trace_key,
)


#: Shard deaths within :data:`CRASH_LOOP_WINDOW` seconds that turn a
#: respawn into a crash-loop quarantine.
CRASH_LOOP_LIMIT = 3
CRASH_LOOP_WINDOW = 30.0


def _shard_main(shard_id, incarnation, conn, hb_interval, parent_fd=None):
    """Shard child body: loop ``recv job -> run -> send``, heartbeating.

    The parent sends ``("job", item)`` or ``("stop",)``; the shard answers
    every job with ``("ok", key, data, seconds)`` or ``("err", workload,
    config_name, detail, root_cause)`` and interleaves ``("hb", shard_id)``
    liveness beats from a daemon thread.  A send lock keeps the two
    writers from interleaving a message mid-frame.

    Fault hooks: ``kill_shard`` hard-exits at job receipt once enough
    jobs have finished; ``hang_heartbeat`` wedges the shard — no beats,
    no progress — so the supervisor's quarantine must fire.
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
    # turn ``terminate()`` into a no-op.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    send_lock = threading.Lock()
    stop = threading.Event()
    wedge_until = [0.0]  # heartbeats are suppressed until this monotonic time

    def _heartbeats():
        while not stop.is_set():
            time.sleep(hb_interval)
            if time.monotonic() < wedge_until[0]:
                continue
            try:
                with send_lock:
                    conn.send(("hb", shard_id))
            except (OSError, ValueError):
                return

    threading.Thread(target=_heartbeats, daemon=True).start()
    jobs_done = 0
    resident = None  # trace key of the last job
    kill_after = faults.shard_kill_after(shard_id, incarnation)
    hang = faults.shard_heartbeat_hang(shard_id, incarnation)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(message, tuple) or message[0] != "job":
                break  # ("stop",) or anything unexpected: exit cleanly
            if kill_after is not None and jobs_done >= kill_after:
                os._exit(32)  # a true crash: no goodbye on the pipe
            if hang is not None and jobs_done >= hang[0]:
                wedge_until[0] = time.monotonic() + hang[1]
                time.sleep(hang[1])
                hang = None
            item = message[1]
            resident = Executor.hold_trace(resident, trace_key(item[1]))
            try:
                # Looked up per call, never bound at import: a wrapper
                # installed on the module attribute must see every job.
                key, data, seconds = parallel._run_job(item)
                with send_lock:
                    conn.send(("ok", key, data, seconds))
            except WorkerError as err:
                with send_lock:
                    conn.send(("err", err.workload, err.config_name,
                               err.detail, err.root_cause))
            jobs_done += 1
    except BaseException:
        pass  # broken pipe / teardown: the parent sees EOF
    finally:
        stop.set()
        try:
            conn.close()
        except OSError:
            pass


class _ShardSlot(object):
    """Supervisor-side state for one shard position in the pool."""

    __slots__ = ("index", "incarnation", "process", "conn", "last_hb",
                 "job", "deadline", "down_until", "consecutive_failures",
                 "crash_times", "trace_key")

    def __init__(self, index):
        self.index = index
        self.incarnation = 0
        self.process = None
        self.conn = None
        self.last_hb = 0.0
        self.job = None          # the in-flight pending job, if any
        self.deadline = None     # per-job watchdog deadline
        self.down_until = 0.0    # respawn eligibility (monotonic)
        self.consecutive_failures = 0
        self.crash_times = deque()  # recent deaths, for crash-loop detection
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
        self.hb_interval = settings.get("REPRO_HEARTBEAT_INTERVAL")
        self.miss_limit = settings.get("REPRO_HEARTBEAT_MISSES")
        self.respawn_backoff = settings.get("REPRO_RESPAWN_BACKOFF")
        #: Supervision events (spawn/death/quarantine/watchdog), in order.
        self.events = []
        self._ctx = multiprocessing.get_context(settings.get("REPRO_MP_START"))
        self._slots = [_ShardSlot(i) for i in range(self.shards)]
        self._tick = min(0.05, self.hb_interval)

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
            args=(slot.index, slot.incarnation, child_conn,
                  self.hb_interval, parent_fd),
            daemon=True,
        )
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.last_hb = time.monotonic()
        slot.job = None
        slot.deadline = None
        self._event("spawn" if slot.incarnation == 1 else "respawn", slot)

    def _kill_slot(self, slot):
        """Terminate a shard process and close its pipe (no accounting)."""
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
                process.terminate()
                process.join(1.0)
                if process.is_alive():
                    process.kill()
                    process.join(1.0)
            else:
                process.join(0)

    def _bench(self, slot, now, reason, quarantined):
        """Record a death/quarantine and schedule the respawn backoff."""
        slot.consecutive_failures += 1
        slot.crash_times.append(now)
        while slot.crash_times and \
                slot.crash_times[0] < now - CRASH_LOOP_WINDOW:
            slot.crash_times.popleft()
        crash_looping = len(slot.crash_times) >= CRASH_LOOP_LIMIT
        delay = self.respawn_backoff * (
            2 ** min(slot.consecutive_failures - 1, 8))
        slot.down_until = now + delay
        self._event(
            "quarantine" if (quarantined or crash_looping) else "shard_died",
            slot, reason=reason, backoff_seconds=round(delay, 3),
            crash_loop=crash_looping,
        )

    def _shard_died(self, slot, now):
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
        self._bench(slot, now, "process died (exit %s)" % exitcode,
                    quarantined=False)
        if pj is not None:
            self._fail_attempt(
                pj, CLASS_CRASH,
                "shard %d (incarnation %d) died (exit %s) while running "
                "attempt %d" % (slot.index, incarnation, exitcode,
                                pj.tries + 1),
                None, now)

    def _quarantine(self, slot, now, reason):
        """Heartbeat-miss (or wedge) quarantine: kill, requeue, bench."""
        pj = slot.job
        slot.job = None
        slot.deadline = None
        incarnation = slot.incarnation
        self._kill_slot(slot)
        self._bench(slot, now, reason, quarantined=True)
        if pj is not None:
            self._fail_attempt(
                pj, CLASS_TIMEOUT,
                "shard %d (incarnation %d) quarantined (%s) while running "
                "attempt %d; job requeued" % (slot.index, incarnation,
                                              reason, pj.tries + 1),
                None, now)

    def _watchdog_kill(self, slot, now):
        """Per-job deadline blown: kill the shard, fail the attempt."""
        pj = slot.job
        slot.job = None
        slot.deadline = None
        self._kill_slot(slot)
        # The job hung, not the shard: respawn promptly, no crash-loop
        # penalty growth beyond the single slot restart.
        slot.down_until = now
        self._event("watchdog_kill", slot, job=pj.key if pj else None)
        if pj is not None:
            self._fail_attempt(
                pj, CLASS_TIMEOUT,
                "watchdog: attempt %d exceeded its %.1fs deadline; shard "
                "killed and respawned"
                % (pj.tries + 1,
                   resolve_job_timeout(self.job_timeout, pj.job[2])),
                None, now)

    # -- dispatch --------------------------------------------------------

    def _next_ready(self, slot, now):
        """Pop the job free shard ``slot`` runs next, or None.

        Trace affinity, in order: a job on the trace the shard already
        holds; else a job on a trace no other shard holds; else the
        queue head.  Jobs still backing off after a failed attempt are
        skipped.  Each step looks at whole lanes, never at every job.
        """
        held = {other.trace_key for other in self._slots if other is not slot}
        order = [slot.trace_key] if slot.trace_key in self._lanes else []
        order += [key for key in self._lanes if key not in held]
        order += list(self._lanes)
        for key in order:
            for pj in self._lanes[key]:
                if pj.next_start <= now:
                    self._take(key, pj)
                    return pj
        return None

    def _dispatch(self, slot, pj, now):
        try:
            slot.conn.send(("job", pj.item(True)))
        except (OSError, ValueError):
            self._enqueue(pj, front=True)
            self._shard_died(slot, now)
            return
        slot.job = pj
        slot.trace_key = trace_key(pj.job)
        timeout = resolve_job_timeout(self.job_timeout, pj.job[2])
        slot.deadline = now + timeout if timeout is not None else None

    def _handle_message(self, slot, message, now):
        kind = message[0]
        if kind == "hb":
            slot.last_hb = now
            return
        pj = slot.job
        slot.job = None
        slot.deadline = None
        slot.last_hb = now
        if pj is None:
            return  # late result from a job already requeued elsewhere
        if kind == "ok":
            slot.consecutive_failures = 0
            self._on_success(pj, message[2], message[3])
        else:  # ("err", workload, config_name, detail, root_cause)
            detail, root_cause = message[3], message[4]
            self._fail_attempt(pj, classify_failure(detail, root_cause),
                               detail, root_cause, now)

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
                # Respawn benched shards once their backoff elapses, then
                # hand every free shard its next job.
                for slot in self._slots:
                    if slot.process is None and now >= slot.down_until:
                        self._spawn(slot)
                for slot in self._slots:
                    if slot.process is None or slot.job is not None:
                        continue
                    pj = self._next_ready(slot, now)
                    if pj is None:
                        break
                    self._dispatch(slot, pj, now)
            by_conn = {slot.conn: slot for slot in self._slots
                       if slot.process is not None}
            if not by_conn:
                # Every shard benched and backing off: sleep to the next
                # respawn eligibility (capped to stay signal-responsive).
                soonest = min(slot.down_until for slot in self._slots)
                time.sleep(min(max(soonest - now, 0.0), self._tick) or 0.005)
                continue
            for ready in _wait_connections(list(by_conn), timeout=self._tick):
                slot = by_conn[ready]
                if slot.conn is not ready:
                    continue  # killed while handling an earlier message
                try:
                    message = ready.recv()
                except (EOFError, OSError):
                    self._shard_died(slot, time.monotonic())
                    continue
                self._handle_message(slot, message, time.monotonic())
            # Health checks: per-job watchdog, then heartbeat misses.
            now = time.monotonic()
            miss_window = self.hb_interval * self.miss_limit
            for slot in self._slots:
                if slot.process is None:
                    continue
                if slot.job is not None and slot.deadline is not None \
                        and now >= slot.deadline:
                    self._watchdog_kill(slot, now)
                    continue
                if now - slot.last_hb > miss_window:
                    self._quarantine(
                        slot, now,
                        "missed %d heartbeats (%.1fs silent)"
                        % (self.miss_limit, now - slot.last_hb))

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
