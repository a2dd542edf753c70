"""Reservation station: wakeup, select, and replay accounting.

The model collapses the 3-cycle wakeup/select/RF-read pipe (Stark et al.,
paper Fig. 6) into issue->ready offsets: an instruction selected at cycle C
with latency L makes its result consumable at C+L, which preserves
back-to-back dependent execution for 1-cycle ops (Fig. 7) and the 5-cycle
load-to-use path (Fig. 8) exactly.

Speculative wakeup is accounted for via *replay debt*: when a load turns
out slower than its dependents were told (L1 miss under a hit prediction,
or an RFP address mismatch), the dependents already woken must be cancelled
and re-dispatched.  That consumes scheduler bandwidth, so each such
dependent burns one future issue slot (paper §2.5: "this takes some
additional scheduler bandwidth for re-dispatches").

Selection is event-driven: each waiting instruction lives in exactly one
of three places — a *wakeup list* on the physical register whose producer
has not finished (``prf.waiters``), a :class:`~repro.core.wheel.TimingWheel`
slot when every operand has a known future ready cycle, or a seq-ordered
*ready heap* once it is issuable.  Completions push consumers along that
chain (``prf.write`` -> :meth:`wake_consumers`), so a cycle's select pops
ready work instead of re-scanning the window; cost scales with activity,
not occupancy.

There are two ready heaps: loads wait in ``ready_loads``, everything else
in ``ready``.  Select merges them by seq, so selection is oldest-first
across both, and once the cycle's load budget (``load_ports +
rfp_dedicated_ports``) is spent it stops popping loads altogether: a load
popped then could only be pushed back, so leaving it in its heap is the
same schedule with fewer heap operations (a stale or departed load it
would have re-parked or dropped is handled by whichever later pop reaches
it).

One wrinkle: a register's ready cycle can move *later* after consumers
were parked (a value-mispredicted load rewrites its destination at
validation; a hit-predicted load that missed completes late).  Ready-heap
pops therefore re-verify operand readiness against the live PRF and
re-park the entry when it turns out stale — the wheel slot is a lower
bound on the true wake cycle, never a promise.  The same check lets a due
wheel slot drain straight onto the ready heaps without re-deriving each
entry's wake cycle: an entry whose producer was re-timed meanwhile waits
stale in its ready heap until a pop re-checks it and re-parks it.  Being
stale, it cannot issue any earlier than it would from the wheel.
"""

import heapq

from repro.core import dyninstr as D
from repro.core.rename import INFINITY
from repro.core.wheel import TimingWheel

#: Budget index of the load class, whose ready entries have their own heap.
LOAD_FU = D.FU_INDEX["load"]


class ReservationStation(object):
    """Bounded pool of waiting instructions with oldest-first select."""

    def __init__(self, config, prf):
        self.config = config
        self.prf = prf
        #: The window in allocation order.  Departures are lazy (``in_rs``
        #: flips) and the list is compacted in one pass once dead entries
        #: pile up.
        self.entries = []
        self.replay_debt = 0
        self.issued_total = 0
        self.replay_issues_total = 0
        #: Observability hook; set by the core when tracing is enabled.
        self.tracer = None
        #: Per-cycle FU budget, indexed by D.FU_INDEX (config is immutable
        #: for a run); select copies it with a slice.
        self._budget_list = [
            config.alu_units, config.mul_units, config.fp_units,
            config.load_ports + config.rfp_dedicated_ports,
            config.store_ports,
        ]
        self._rs_entries = config.rs_entries
        self._issue_width = config.issue_width
        self._min_delay = config.sched_latency
        #: Entries currently waiting in the window.
        self.live = 0
        self._dead = 0
        #: Cycle of the most recent select — the boundary between "issuable
        #: now" (ready heap) and "issuable later" (timing wheel).
        self.now = -1
        #: Min-heaps of (seq, dyn) parked as issuable, or drained from a
        #: due wheel slot (possibly stale; see the module docstring):
        #: loads in ``ready_loads``, every other class in ``ready``.
        self.ready = []
        self.ready_loads = []
        #: Future wakeups: cycle -> entries whose operands become ready then.
        self.wheel = TimingWheel()
        prf.attach_scheduler(self)
        #: Invariant locals of the wakeup/select hot paths, packed once
        #: (all containers are mutated in place, never rebound).
        self._wake_inv = (
            prf.ready_cycle, prf.waiters, self._min_delay, self.ready,
            self.ready_loads, self.wheel.slots, self.wheel.cycles,
        )

    @property
    def full(self):
        return self.live >= self._rs_entries

    @property
    def occupancy(self):
        return self.live

    def allocate(self, dyn):
        if self.live >= self._rs_entries:
            raise RuntimeError("RS overflow")
        dyn.in_rs = True
        self.live += 1
        self.entries.append(dyn)
        self._evaluate(dyn)

    def discard(self, dyn):
        """Remove an entry if present (squash path)."""
        if dyn.in_rs:
            dyn.in_rs = False
            self.live -= 1
            self._dead += 1

    # ------------------------------------------------------------------
    # wakeup

    def _evaluate(self, dyn):
        """Park ``dyn`` wherever its operand state says it belongs.

        Exactly one destination: the wakeup list of the first operand whose
        producer has no completion time yet, the timing wheel at the cycle
        every operand becomes readable, or its ready heap when that cycle
        has already passed.
        """
        ready_cycle = self.prf.ready_cycle
        wake = dyn.dispatch_cycle + self._min_delay
        for preg in dyn.src_pregs:
            when = ready_cycle[preg]
            if when > wake:
                if when == INFINITY:
                    self.prf.waiters[preg].append(dyn)
                    return
                wake = when
        if wake <= self.now:
            heapq.heappush(
                self.ready_loads if dyn.is_load else self.ready, (dyn.seq, dyn)
            )
        else:
            self.wheel.schedule(wake, dyn)

    def wake_consumers(self, woken):
        """A register was written: re-park every consumer waiting on it.

        Called by :meth:`~repro.core.rename.PhysicalRegisterFile.write`.
        All simulation-time writes carry a ready cycle in the future, so
        the consumers land in the timing wheel (or another wakeup list),
        never directly in the current cycle's ready heaps.

        The body is :meth:`_evaluate` inlined per consumer — this runs for
        every dependence edge in the window, so the call overhead matters.
        """
        (ready_cycle, waiters, min_delay, ready, ready_loads, wheel_slots,
         wheel_cycles) = self._wake_inv
        now = self.now
        heappush = heapq.heappush
        DISPATCHED = D.DISPATCHED
        for dyn in woken:
            if not dyn.in_rs or dyn.state != DISPATCHED:
                continue
            wake = dyn.dispatch_cycle + min_delay
            parked = False
            for preg in dyn.src_pregs:
                when = ready_cycle[preg]
                if when > wake:
                    if when == INFINITY:
                        waiters[preg].append(dyn)
                        parked = True
                        break
                    wake = when
            if parked:
                continue
            if wake <= now:
                heappush(ready_loads if dyn.is_load else ready, (dyn.seq, dyn))
            else:
                slot = wheel_slots.get(wake)
                if slot is not None:
                    slot.append(dyn)
                else:
                    wheel_slots[wake] = [dyn]
                    heappush(wheel_cycles, wake)

    # ------------------------------------------------------------------
    # select

    def _select_event(self, cycle, try_issue):
        """Issue up to ``issue_width`` ready instructions, oldest first.

        ``try_issue(dyn, cycle)`` performs the operation-specific issue work
        and returns True when the instruction actually left the window
        (False = structural hazard such as a missing load port or a memory
        dependence the instruction must wait out; the entry stays).
        """
        issued = 0
        width = self._issue_width
        self.now = cycle
        (ready_cycle, _waiters, _min_delay, ready, ready_loads, wheel_slots,
         wheel_cycles) = self._wake_inv
        heappop = heapq.heappop
        heappush = heapq.heappush
        DISPATCHED = D.DISPATCHED
        if wheel_cycles and wheel_cycles[0] <= cycle:
            # Drain due wheel slots straight onto the ready heaps.  An
            # entry whose producer was re-timed after it was parked here
            # is stale: it waits in its ready heap until a pop re-checks
            # it and re-parks it (see the module docstring).  Slots are
            # drained whole; nothing re-parks at or before ``cycle``
            # because ``now == cycle`` here, so a drained slot never
            # regrows.
            while wheel_cycles and wheel_cycles[0] <= cycle:
                for dyn in wheel_slots.pop(heappop(wheel_cycles)):
                    if dyn.in_rs and dyn.state == DISPATCHED:
                        heappush(
                            ready_loads if dyn.is_load else ready,
                            (dyn.seq, dyn),
                        )
        while self.replay_debt > 0 and issued < width:
            self.replay_debt -= 1
            self.replay_issues_total += 1
            issued += 1
        if issued >= width or not (ready or ready_loads):
            return issued
        budget = self._budget_list[:]
        deferred = None
        departed = 0
        while issued < width:
            # Merge the two heaps by seq; loads only while the cycle's
            # load budget lasts (a load popped past it would be deferred).
            if ready_loads and budget[LOAD_FU] > 0:
                if ready and ready[0][0] < ready_loads[0][0]:
                    item = heappop(ready)
                else:
                    item = heappop(ready_loads)
            elif ready:
                item = heappop(ready)
            else:
                break
            dyn = item[1]
            if not dyn.in_rs or dyn.state != DISPATCHED:
                continue
            stale = False
            for preg in dyn.src_pregs:
                if ready_cycle[preg] > cycle:
                    # The producer was re-timed after this entry was parked
                    # (VP validation rewrite / late L1 miss): park it again
                    # at the corrected cycle.
                    stale = True
                    break
            if stale:
                self._evaluate(dyn)
                continue
            fu = dyn.fu_idx
            if budget[fu] <= 0:
                if deferred is None:
                    deferred = []
                deferred.append(item)
                continue
            if try_issue(dyn, cycle):
                budget[fu] -= 1
                issued += 1
                departed += 1
                dyn.in_rs = False
            else:
                # Structural hazard (no load port / memory-dependence gate):
                # stays issuable, competes again next cycle.
                if deferred is None:
                    deferred = []
                deferred.append(item)
        if deferred is not None:
            for item in deferred:
                heappush(ready_loads if item[1].is_load else ready, item)
        # The window counters move by deltas (a flush inside try_issue may
        # discard entries meanwhile), so one update per cycle is exact.
        self.issued_total += departed
        self.live -= departed
        self._dead += departed
        if self._dead > 256 and self._dead * 2 > len(self.entries):
            self.entries = [d for d in self.entries if d.in_rs]
            self._dead = 0
        return issued

    def invariant_violations(self):
        """Window-bookkeeping findings for :mod:`repro.core.invariants`.

        Entries depart lazily (``in_rs`` flips, ``live``/``_dead`` counters
        move, the list compacts later) — this re-derives the counters from
        the window and reports any drift.
        """
        out = []
        if self.replay_debt < 0:
            out.append("RS replay debt negative: %d" % self.replay_debt)
        alive = sum(1 for dyn in self.entries if dyn.in_rs)
        if alive != self.live:
            out.append(
                "RS live counter drift: counter says %d, window holds %d "
                "resident entries" % (self.live, alive)
            )
        if len(self.entries) - alive != self._dead:
            out.append(
                "RS dead counter drift: counter says %d, window holds %d "
                "departed entries" % (self._dead, len(self.entries) - alive)
            )
        if self.live > self._rs_entries:
            out.append(
                "RS over capacity: %d/%d" % (self.live, self._rs_entries)
            )
        return out

    def charge_replays(self, dest_preg):
        """Count current consumers of ``dest_preg`` as replayed dependents.

        Each waiting consumer burns one future issue slot, modelling the
        cancel-and-redispatch cost of a wrong speculative wakeup.
        """
        count = 0
        tracer = self.tracer
        # The lazily compacted window still holds departed entries; only
        # live waiting consumers are chargeable.  (An entry that issued
        # this very cycle cannot source ``dest_preg``: every charge site
        # fires before the charged register is written.)
        DISPATCHED = D.DISPATCHED
        for dyn in self.entries:
            if dyn.state == DISPATCHED and dest_preg in dyn.src_pregs:
                count += 1
                if tracer is not None:
                    tracer.replay(dyn, dest_preg)
        self.replay_debt += count
        return count

    def __repr__(self):
        return "<RS %d/%d debt=%d>" % (
            self.occupancy,
            self.config.rs_entries,
            self.replay_debt,
        )
