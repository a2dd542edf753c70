"""The out-of-order core: fetch, rename, schedule, execute, commit.

This is the execution-driven, cycle-level model the whole reproduction
stands on.  One :class:`OOOCore` simulates one trace under one
:class:`~repro.core.config.CoreConfig` and produces a
:class:`~repro.stats.counters.SimStats`.

Per-cycle phase order (chosen so same-cycle interactions resolve the way
the paper describes):

1. reset L1 port grants;
2. timed events (branch resolutions, value-misprediction flushes) — these
   must precede commit so a flush beats the faulting load's retirement;
3. commit (retire width, PT/VP training, store drain to L1);
4. issue/select — demand loads claim L1 ports at high priority;
5. RFP pump — prefetches claim leftover ports at lowest priority;
6. dispatch (rename/allocate; RFP packets are injected here, right after
   rename, where the load's ``prfid`` is known);
7. fetch (uop-cache frontend; DLVP-family predictors probe here).
"""

import heapq
from bisect import bisect_left, insort
from itertools import chain

from repro.core import dyninstr as D
from repro.core.dyninstr import DynInstr
from repro.core.frontend import Frontend
from repro.core.hit_miss import HitMissPredictor
from repro.core.invariants import check_core, format_report
from repro.core.lsq import LoadQueue, MemDepPredictor, StoreQueue
from repro.core.rename import INFINITY, PhysicalRegisterFile, RenameUnit
from repro.core.rob import ReorderBuffer
from repro.core.scheduler import ReservationStation
from repro.core.wheel import TimingWheel
from repro.isa.registers import NUM_ARCH_REGS
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.ports import LoadPortArbiter
from repro.rfp.engine import RFPEngine
from repro.stats.counters import SimStats
from repro.vp import build_predictor


class OOOCore(object):
    """A single-core, single-trace out-of-order pipeline simulation."""

    def __init__(self, trace, config, record_commits=False, tracer=None,
                 check_invariants=None):
        config.validate()
        self.trace = trace
        self.config = config
        #: Invariant-net sweep interval in cycles (0 = off).  ``None``
        #: defers to ``REPRO_CHECK_INVARIANTS`` so CLI flags and parallel
        #: workers pick the knob up from the environment.
        if check_invariants is None:
            # Imported here: the repro.sim package imports this module.
            from repro.sim import settings

            check_invariants = settings.get("REPRO_CHECK_INVARIANTS")
        self.invariant_interval = check_invariants
        #: Observability hook (:class:`~repro.obs.tracer.Tracer`) or None.
        #: Every use is guarded by ``if tracer is not None`` so the disabled
        #: path costs one pointer test per hook site.
        self.tracer = tracer
        self.hierarchy = MemoryHierarchy(config)
        #: Committed memory state; stores write here at retirement.
        self.memory = dict(trace.memory_image)
        self.prf = PhysicalRegisterFile(config.prf_entries)
        self.rename = RenameUnit(NUM_ARCH_REGS, self.prf)
        self.rob = ReorderBuffer(config.rob_entries)
        self.rs = ReservationStation(config, self.prf)
        #: Per-cycle select entry point, bound once.
        self._select = self.rs._select_event
        self.lq = LoadQueue(config.lq_entries)
        self.sq = StoreQueue(config.sq_entries)
        self.md = MemDepPredictor()
        self.ports = LoadPortArbiter(
            config.load_ports,
            config.rfp_dedicated_ports,
            config.rfp_shares_demand_ports,
        )
        self.hit_miss = (
            HitMissPredictor(config.hit_miss_entries)
            if config.hit_miss_predictor
            else None
        )
        self.frontend = Frontend(config, trace)
        self.rfp = (
            RFPEngine(config, self.hierarchy, self.sq, self.md, self.ports,
                      hit_miss=self.hit_miss)
            if config.rfp.enabled
            else None
        )
        if tracer is not None:
            self.frontend.tracer = tracer
            self.rs.tracer = tracer
            self.rob.tracer = tracer
            self.sq.tracer = tracer
            if self.rfp is not None:
                self.rfp.tracer = tracer
        self.vp = build_predictor(config)
        self.stats = SimStats()
        self.cycle = 0
        self.next_seq = 0
        #: Timed pipeline events (branch resolutions, VP flushes), keyed by
        #: fire cycle; same-cycle events fire in schedule order.
        self.events = TimingWheel()
        #: Criticality extension: the in-flight producer of each physical
        #: register.  Only the criticality filter reads it (through the
        #: critical-PC table), so it is kept only when that filter is on.
        self.preg_producer = {}
        track_critical = self.rfp is not None and config.rfp.criticality_filter
        self.warmup_instructions = 0
        self.warmup_snapshot = None
        #: Cycles elided by idle-cycle skipping (not a SimStats counter:
        #: final stats are identical with skipping on or off).
        self.idle_cycles_skipped = 0
        self.record_commits = record_commits
        self.committed = []
        #: Invariant locals of the per-cycle dispatch/commit loops, packed
        #: once: every container here is mutated in place for the core's
        #: lifetime, never rebound (``rs.entries`` and ``sq.senior`` are
        #: rebound by compaction/drain, so they are re-read per call).
        self._dispatch_inv = (
            self.stats, self.rob.entries, self.rob.num_entries, self.rs,
            self.rs._rs_entries, self.rs._min_delay,
            self.rs.ready, self.rs.ready_loads, self.rs.wheel.slots,
            self.rs.wheel.cycles,
            self.rename.rat, self.rename.free_list, self.prf.ready_cycle,
            self.prf.value, self.prf.waiters, self.prf, self.lq.entries,
            self.lq.num_entries, self.sq, self.rfp, self.vp, self.hit_miss,
            self.preg_producer, self.tracer, config.rename_width,
            heapq.heappush, track_critical,
        )
        self._commit_inv = (
            self.stats, self.rob.entries, config.retire_width, self.vp,
            self.rfp, self.tracer, self.rename.free_list,
            self.preg_producer if track_critical else None, record_commits,
            self.lq, self.md, self.frontend, self.memory, self.hierarchy,
        )

    # ==================================================================
    # driving

    def run(self, max_cycles=None):
        """Simulate until the trace drains; returns self."""
        limit = max_cycles or (400 * max(1, len(self.trace)) + 100000)
        frontend = self.frontend
        rob_entries = self.rob.entries
        step = self.step
        stats = self.stats
        # Idle-cycle skipping is counter-exact but invisible to the event
        # stream, so tracing forces full stepping.
        idle_skip = self.config.idle_skip and self.tracer is None
        # ``frontend.drained`` chains two properties; this loop tests it
        # every cycle, so read the cursor/buffer internals directly (both
        # objects are mutated in place, never rebound).
        cursor = frontend.cursor
        fetch_buffer = frontend.buffer
        # Invariant net: sweep every ``invariant_interval`` cycles between
        # steps (state is architecturally consistent only at cycle
        # boundaries).  Disabled (interval 0) this costs one falsy-int
        # test per iteration.
        inv_every = self.invariant_interval
        inv_next = self.cycle + inv_every if inv_every else 0
        while cursor.index < cursor.limit or fetch_buffer or rob_entries:
            if self.cycle > limit:
                head = rob_entries[0] if rob_entries else None
                # The wheels distinguish a stalled-event bug (an event is
                # scheduled but the loop never reaches it) from a true
                # scheduling deadlock (nothing is pending at all); the
                # invariant-net snapshot makes the hang actionable from
                # the failure manifest alone.
                pending = [self.events.next_cycle(), self.rs.wheel.next_cycle()]
                pending = [c for c in pending if c is not None]
                raise RuntimeError(
                    "simulation of workload %r under config %r exceeded "
                    "%d cycles at trace index %d (ROB head seq=%s; "
                    "timing wheel %s; likely deadlock)\n%s"
                    % (self.trace.name, self.config.name, limit,
                       frontend.cursor.index,
                       head.seq if head is not None else "<empty>",
                       "next event at cycle %d" % min(pending)
                       if pending else "empty",
                       format_report(self))
                )
            if inv_every and self.cycle >= inv_next:
                check_core(self)
                inv_next = self.cycle + inv_every
            if not idle_skip:
                step()
                continue
            before = (stats.instructions, stats.issued, self.next_seq,
                      frontend.fetched)
            step()
            if (stats.instructions, stats.issued, self.next_seq,
                    frontend.fetched) == before:
                self._skip_idle_cycles()
        if inv_every:
            check_core(self)  # final sweep over the drained machine
        self.stats.cycles = self.cycle
        return self

    def _skip_idle_cycles(self):
        """After a cycle with no visible progress, try to jump ``cycle``
        straight to the next cycle at which anything can happen.

        Delegates the (conservative) analysis to :meth:`_idle_wake`; when
        a wake cycle is proven, the per-cycle stall counters that would
        have ticked during the elided window are compensated exactly, so
        final stats are identical with skipping on or off.
        """
        found = self._idle_wake(self.cycle)
        if found is None:
            return
        wake, stall_attr, rfp_blocked = found
        skipped = wake - self.cycle
        if skipped <= 0:
            return
        stats = self.stats
        if stall_attr is not None:
            setattr(stats, stall_attr, getattr(stats, stall_attr) + skipped)
        if rfp_blocked:
            self.rfp.stats.blocked_cycles += skipped
        self.idle_cycles_skipped += skipped
        self.cycle = wake

    def _idle_wake(self, cycle):
        """Earliest cycle >= ``cycle`` at which the pipeline can make
        progress, or None when idleness cannot be proven.

        Called only after a cycle in which nothing committed, issued,
        dispatched or fetched.  Every ambiguous case returns None — the
        loop falls back to plain stepping, so correctness never depends
        on this analysis being complete, only on it being conservative.

        Returns ``(wake, stall_attr, rfp_blocked)``: the jump target, the
        SimStats dispatch-stall counter that ticks once per elided cycle
        (or None), and whether the RFP queue head is blocked (its
        ``blocked_cycles`` counter also ticks per cycle).
        """
        if self.rs.replay_debt > 0:
            return None  # debt drains one issue slot per cycle
        candidates = []
        event_cycles = self.events.cycles
        if event_cycles:
            when = event_cycles[0]
            if when <= cycle:
                return None  # an event fires next step
            candidates.append(when)
        rob_entries = self.rob.entries
        if rob_entries:
            head = rob_entries[0]
            if head.state == D.COMPLETED:
                if head.complete_cycle <= cycle:
                    return None  # the head retires next step
                candidates.append(head.complete_cycle)
            # A DISPATCHED head is covered by the scheduler scan below.

        # -- scheduler wakeups ------------------------------------------
        ready_cycle = self.prf.ready_cycle
        sched_latency = self.config.sched_latency
        DISPATCHED = D.DISPATCHED
        rs = self.rs
        # The scheduler's own timing wheel holds every entry with a known
        # future wake; a slot is a lower bound on the true wake (a
        # re-timed producer re-parks the entry on pop), so jumping to it
        # is conservative — at worst the loop re-skips from there.
        # Waiting entries (producer still executing) need no bound of
        # their own: the producer's wake covers them.  Only the ready
        # heaps — entries parked as issuable, or drained from the wheel
        # and possibly stale — need per-entry analysis.
        if rs.wheel.cycles:
            candidates.append(rs.wheel.cycles[0])
        for _seq, dyn in chain(rs.ready, rs.ready_loads):
            if dyn.state != DISPATCHED or not dyn.in_rs:
                continue
            wake = dyn.dispatch_cycle + sched_latency
            pending = False
            for preg in dyn.src_pregs:
                ready = ready_cycle[preg]
                if ready == INFINITY:
                    # Woken by a producer that is itself in this window
                    # (or chained to one); the producer's own wake is a
                    # candidate, so this entry needs no bound of its own.
                    pending = True
                    break
                if ready > wake:
                    wake = ready
            if pending:
                continue
            if wake <= cycle:
                # Ready now, yet nothing issued this cycle: in an idle
                # cycle (all ports/FUs free) only the memory-dependence
                # gate explains that.  The gating older store's execution
                # is covered by its own wakeup candidate.
                if (
                    dyn.is_load
                    and self.md.predict_conflict(dyn.pc)
                    and self.sq.has_older_unexecuted(dyn.seq)
                ):
                    continue
                return None
            candidates.append(wake)

        # -- frontend ---------------------------------------------------
        frontend = self.frontend
        if frontend.blocked_branch_index is None and not frontend.cursor.exhausted:
            if cycle < frontend.stall_until:
                candidates.append(frontend.stall_until)
            elif len(frontend.buffer) < frontend.buffer_capacity:
                return None  # fetch proceeds next cycle
            # else: buffer full — unblocks only after dispatch drains it.
        # A blocked mispredicted branch resolves via a "branch" event,
        # which is already a candidate.

        # -- dispatch ---------------------------------------------------
        stall_attr = None
        if frontend.buffer:
            ready_at, instr = frontend.buffer[0]
            if ready_at > cycle:
                candidates.append(ready_at)
            elif self.rob.full:
                stall_attr = "stall_rob"
            elif self.rs.full:
                stall_attr = "stall_rs"
            elif instr.is_load and self.lq.full:
                stall_attr = "stall_lq"
            elif instr.is_store and self.sq.full(cycle):
                stall_attr = "stall_sq"
                if self.sq.senior:
                    # A senior store releasing its slot unblocks dispatch.
                    candidates.append(min(self.sq.senior))
            elif instr.dst is not None and not self.rename.free_list:
                stall_attr = "stall_prf"
            else:
                return None  # dispatch succeeds next cycle

        # -- RFP queue head ---------------------------------------------
        rfp = self.rfp
        rfp_blocked = False
        if rfp is not None and rfp.queue:
            packet = rfp.queue[0]
            dyn = packet.dyn
            if dyn.rfp_state != D.RFP_QUEUED or dyn.state != DISPATCHED:
                return None  # the pump pops the dead head next cycle
            addr = packet.predicted_addr
            if self.sq.peek_older_executed_match(dyn.seq, addr & ~7):
                return None  # the head forward-completes next cycle
            if self.md.predict_conflict(dyn.pc) and self.sq.has_older_unexecuted(
                dyn.seq
            ):
                rfp_blocked = True
            elif rfp.rfp_config.drop_on_tlb_miss and not self.hierarchy.dtlb.probe(
                addr
            ):
                return None  # the head is dropped next cycle
            elif (
                self.hierarchy.mshr.occupancy
                >= self.hierarchy.mshr.num_entries - rfp.mshr_reserve
                and self.hierarchy.probe_level(addr) not in ("L1", "MSHR")
            ):
                # MSHR back-pressure: occupancy only changes via another
                # hierarchy access, none of which can happen before the
                # wake candidates computed above.
                rfp_blocked = True
            elif self.ports.rfp_dedicated_ports > 0 or self.ports.rfp_shares_demand_ports:
                return None  # the head wins a free port next cycle
            # else: a port-less RFP shape — the head waits for its load,
            # whose wake is covered above.  (Only the untracked per-cycle
            # port-denial counter diverges across the elided window.)

        if not candidates:
            return None
        wake = min(candidates)
        if wake <= cycle:
            return None
        return wake, stall_attr, rfp_blocked

    def step(self):
        """Advance the pipeline one cycle."""
        cycle = self.cycle
        if self.tracer is not None:
            self.tracer.now = cycle
        # -- ports.begin_cycle (inlined: runs every cycle) -------------
        ports = self.ports
        ports._cycle = cycle
        ports._demand_used = 0
        ports._rfp_dedicated_used = 0
        ports._rfp_shared_used = 0
        events = self.events
        if events.cycles and events.cycles[0] <= cycle:
            self._process_events(cycle)
        self._commit(cycle)
        self._select(cycle, self._try_issue)
        rfp = self.rfp
        if rfp is not None and rfp.queue:
            rfp.step(cycle)
        self._dispatch(cycle)
        if self.vp is not None:
            self.frontend.fetch(cycle, self._fetch_hook)
        else:
            self.frontend.fetch(cycle)
        self.cycle = cycle + 1

    def _fetch_hook(self, instr, cycle, path_history):
        self.vp.on_fetch(
            instr, cycle, self.ports, self.hierarchy, self.memory, path_history
        )

    # ==================================================================
    # events

    def _process_events(self, cycle):
        for kind, dyn in self.events.pop_due(cycle):
            if dyn.state == D.SQUASHED:
                continue
            if kind == "branch":
                self.frontend.branch_resolved(dyn.instr.index, cycle)
            elif kind == "vp_flush":
                self._flush_vp(dyn, cycle)
            else:
                raise RuntimeError("unknown event kind %r" % kind)

    # ==================================================================
    # commit

    def _commit(self, cycle):
        """Retire up to ``retire_width`` completed instructions.

        Per-instruction bookkeeping (the old ``_commit_one``) is inlined
        into the retire loop — commit runs once per committed instruction,
        so the shared locals are hoisted out of it, and the hoists
        themselves are skipped entirely on cycles with nothing to retire.
        """
        sq = self.sq
        if sq.senior:
            # -- sq.drain ----------------------------------------------
            sq.senior = [t for t in sq.senior if t > cycle]
        rob_entries = self.rob.entries
        if not rob_entries:
            return 0
        head = rob_entries[0]
        if head.state != D.COMPLETED or head.complete_cycle > cycle:
            return 0
        retired = 0
        (stats, _rob_entries, retire_width, vp, rfp, tracer, free_list,
         preg_producer, record_commits, lq, md, frontend, memory,
         hierarchy) = self._commit_inv
        COMPLETED = D.COMPLETED
        while retired < retire_width:
            head = rob_entries[0] if rob_entries else None
            if head is None or head.state != COMPLETED or head.complete_cycle > cycle:
                break
            if (
                head.is_load
                and head.vp_predicted
                and vp is not None
                and head.vp_probe_value != "ssbf-done"
            ):
                # EPP-style retirement re-execution check (one-shot).
                head.vp_probe_value = "ssbf-done"
                penalty = vp.retire_reexecute_penalty(head)
                if penalty:
                    stats.retire_reexecutions += 1
                    head.complete_cycle = cycle + penalty
                    break
            rob_entries.popleft()
            dyn = head
            stats.instructions += 1
            instr = dyn.instr
            if tracer is not None:
                tracer.commit(cycle, dyn)
            dest_preg = dyn.dest_preg
            if dest_preg is not None:
                # -- rename.commit_free --------------------------------
                free_list.append(dyn.prev_preg)
                if preg_producer is not None and preg_producer.get(dest_preg) is dyn:
                    del preg_producer[dest_preg]
            if dyn.is_load:
                stats.loads += 1
                # -- lq.remove (incl. _index_drop) ---------------------
                lq.entries.remove(dyn)
                dyn.in_lq = False
                lst = lq._executed.get(dyn.word_addr)
                if lst:
                    i = bisect_left(lst, (dyn.seq,))
                    if i < len(lst) and lst[i][1] is dyn:
                        del lst[i]
                        if not lst:
                            del lq._executed[dyn.word_addr]
                # -- md.train_commit -----------------------------------
                tick = md._commit_tick + 1
                md._commit_tick = tick
                if tick % md.decay_period == 0:
                    index = (dyn.pc >> 2) % md.num_entries
                    if md.table[index] > 0:
                        md.table[index] -= 1
                path = frontend.path_history
                if rfp is not None:
                    rfp.on_load_commit(dyn, path)
                if vp is not None:
                    vp.on_load_commit(dyn, path)
                if record_commits:
                    self.committed.append((instr.index, dyn.value))
            elif dyn.is_store:
                stats.stores += 1
                memory[dyn.word_addr] = dyn.value
                release = hierarchy.store_commit(dyn.addr, cycle)
                sq.mark_senior(dyn, release)
            else:
                if dyn.is_branch:
                    stats.branches += 1
                    if instr.mispredicted:
                        stats.branch_mispredicts += 1
                if record_commits and dest_preg is not None:
                    self.committed.append((instr.index, dyn.value))
            if (
                self.warmup_instructions
                and stats.instructions == self.warmup_instructions
            ):
                self.warmup_snapshot = self.snapshot_counters()
            retired += 1
        return retired

    # ==================================================================
    # dispatch (rename + allocate + RFP injection + VP prediction)

    def _dispatch(self, cycle):
        """Rename + allocate up to ``rename_width`` instructions.

        This is the hottest per-instruction loop in the simulator, so the
        single-step helpers it used to call (``frontend.head_ready``,
        ``rename.rename_sources``/``allocate_dest``, ``rob.allocate``,
        ``rs.allocate`` and the scheduler's initial ``_evaluate`` parking)
        are inlined here verbatim; each inline site names the method it
        mirrors.  The local hoists below only pay off when something can
        actually dispatch, so empty/stalled-buffer cycles bail first.
        """
        frontend = self.frontend
        buffer = frontend.buffer
        if not buffer or buffer[0][0] > cycle:
            return 0
        (stats, rob_entries, rob_capacity, rs, rs_capacity,
         min_delay, rs_ready, rs_ready_loads, wheel_slots, wheel_cycles,
         rat, free_list, ready_cycle, prf_value, waiters, prf, lq_entries,
         lq_capacity, sq, rfp, vp, hit_miss, preg_producer, tracer, width,
         heappush, track_critical) = self._dispatch_inv
        rs_entries = rs.entries
        rs_now = rs.now
        seq = self.next_seq
        dispatched = 0
        while dispatched < width:
            # -- frontend.head_ready -----------------------------------
            if not buffer:
                break
            ready_at, instr = buffer[0]
            if ready_at > cycle:
                break
            if len(rob_entries) >= rob_capacity:
                stats.stall_rob += 1
                break
            if rs.live >= rs_capacity:
                stats.stall_rs += 1
                break
            is_load = instr.is_load
            is_store = instr.is_store
            if is_load and len(lq_entries) >= lq_capacity:
                stats.stall_lq += 1
                break
            if is_store and sq.full(cycle):
                stats.stall_sq += 1
                break
            dst = instr.dst
            if dst is not None and not free_list:
                stats.stall_prf += 1
                break
            buffer.popleft()
            dyn = DynInstr(instr, seq, cycle)
            seq += 1
            # -- rename.rename_sources ---------------------------------
            asrcs = instr.srcs
            n = len(asrcs)
            if n == 2:
                src_pregs = (rat[asrcs[0]], rat[asrcs[1]])
            elif n == 1:
                src_pregs = (rat[asrcs[0]],)
            elif n == 0:
                src_pregs = ()
            else:
                src_pregs = tuple(rat[r] for r in asrcs)
            dyn.src_pregs = src_pregs
            # -- rename.allocate_dest (incl. prf.mark_pending) ---------
            if dst is not None:
                new_preg = free_list.pop()
                dyn.dest_preg = new_preg
                dyn.prev_preg = rat[dst]
                rat[dst] = new_preg
                ready_cycle[new_preg] = INFINITY
                prf_value[new_preg] = 0
                if waiters[new_preg]:
                    waiters[new_preg] = []
            # -- rob.allocate ------------------------------------------
            if tracer is not None:
                tracer.sample_rob(len(rob_entries))
            rob_entries.append(dyn)
            # -- rs.allocate (incl. the initial _evaluate parking) -----
            dyn.in_rs = True
            rs_entries.append(dyn)
            rs.live += 1
            wake = cycle + min_delay
            parked = False
            for preg in src_pregs:
                when = ready_cycle[preg]
                if when > wake:
                    if when == INFINITY:
                        waiters[preg].append(dyn)
                        parked = True
                        break
                    wake = when
            if not parked:
                if wake <= rs_now:
                    heappush(rs_ready_loads if is_load else rs_ready,
                             (dyn.seq, dyn))
                else:
                    slot = wheel_slots.get(wake)
                    if slot is not None:
                        slot.append(dyn)
                    else:
                        wheel_slots[wake] = [dyn]
                        heappush(wheel_cycles, wake)
            if track_critical and (is_load or instr.is_branch):
                # Criticality extension: remember load PCs feeding address
                # computations or branch conditions.
                for preg in src_pregs:
                    producer = preg_producer.get(preg)
                    if producer is not None and producer.is_load:
                        rfp.mark_critical(producer.pc)
            if is_load:
                # -- lq.allocate ---------------------------------------
                dyn.in_lq = True
                lq_entries.append(dyn)
                predicted = False
                # Focused-VP-style gating: only value-predict loads expected
                # to hit the L1.  A predicted miss gains nothing at commit
                # (the validation access still bounds retirement) while its
                # early-woken dependents reorder the miss stream against
                # the ROB head.
                if vp is not None:
                    # The hook always runs (it maintains per-PC inflight
                    # counters); the gate only discards the prediction.
                    predicted, value = vp.on_load_dispatch(
                        dyn, cycle, frontend.path_history
                    )
                    if predicted and hit_miss is not None \
                            and not hit_miss.probe(instr.pc):
                        predicted = False
                    if predicted:
                        dyn.vp_predicted = True
                        dyn.vp_value = value
                        # Dependents may consume the prediction next cycle.
                        prf.write(dyn.dest_preg, value, cycle + 1)
                if rfp is not None:
                    rfp.on_load_dispatch(
                        dyn, cycle, frontend.path_history, inject=not predicted
                    )
            elif is_store:
                sq.allocate(dyn)
            if track_critical and dst is not None:
                preg_producer[dyn.dest_preg] = dyn
            if tracer is not None:
                # Emitted after the VP/RFP dispatch hooks so the event
                # payload reflects the final dispatch-time state.
                tracer.dispatch(cycle, dyn)
            dispatched += 1
        self.next_seq = seq
        return dispatched

    # ==================================================================
    # issue / execute

    def _try_issue(self, dyn, cycle):
        if dyn.is_load:
            return self._issue_load(dyn, cycle)
        if dyn.is_store:
            return self._issue_store(dyn, cycle)
        # ALU/branch path: operand reads and :meth:`_finish` are inlined
        # (this runs once per non-memory instruction).
        instr = dyn.instr
        prf = self.prf
        prf_value = prf.value
        src_pregs = dyn.src_pregs
        n = len(src_pregs)
        if n == 2:
            srcs = (prf_value[src_pregs[0]], prf_value[src_pregs[1]])
        elif n == 1:
            srcs = (prf_value[src_pregs[0]],)
        elif n == 0:
            srcs = ()
        else:
            srcs = tuple(prf_value[p] for p in src_pregs)
        value = dyn.evaluator(srcs, instr.imm)
        complete = cycle + dyn.latency
        # -- _finish ---------------------------------------------------
        dyn.state = D.COMPLETED
        dyn.issue_cycle = cycle
        dyn.complete_cycle = complete
        dyn.value = value
        preg = dyn.dest_preg
        if preg is not None:
            prf_value[preg] = value
            prf.ready_cycle[preg] = complete
            waiters = prf.waiters
            if waiters is not None:
                woken = waiters[preg]
                if woken:
                    waiters[preg] = []
                    self.rs.wake_consumers(woken)
        self.stats.issued += 1
        if self.tracer is not None:
            self.tracer.complete(dyn, cycle, complete)
        if dyn.is_branch and instr.mispredicted:
            self.events.schedule(complete, ("branch", dyn))
        return True

    def _resolve_load_value(self, dyn, store):
        if store is not None:
            return store.value
        return self.memory.get(dyn.word_addr, 0)

    def _issue_load(self, dyn, cycle):
        """Issue one demand load.

        Loads are the biggest slice of the dispatched mix, so the helpers
        on the common path (memory-dependence gate, store-forward probe,
        port claim, hit-miss predict/train, and
        :meth:`MemoryHierarchy.l1_hit`) are inlined; each block names the
        method it mirrors.  The other hierarchy shapes (DTLB miss, L1
        miss, a fill of this very line in flight) fall back to the full
        :meth:`MemoryHierarchy.load`.
        """
        pc = dyn.pc
        sq = self.sq
        # -- md.predict_conflict + memory-dependence gate --------------
        md = self.md
        if md.table[(pc >> 2) % md.num_entries] >= 2 and sq.has_older_unexecuted(
            dyn.seq
        ):
            dyn.md_waited = True
            return False
        word = dyn.word_addr
        # -- sq.older_executed_match -----------------------------------
        store = None
        lst = sq._executed.get(word)
        if lst:
            i = bisect_left(lst, (dyn.seq,)) - 1
            if i >= 0:
                store = lst[i][1]
                sq.forwards += 1

        # ---- RFP fast path --------------------------------------------
        rfp = self.rfp
        tracer = self.tracer
        if rfp is not None and dyn.rfp_state == D.RFP_INFLIGHT:
            if cycle >= dyn.rfp_bit_set_cycle:
                if tracer is not None:
                    tracer.rfp_spec_wakeup(dyn)
                if dyn.rfp_addr == dyn.addr:
                    fresh_seq = store.seq if store is not None else None
                    if fresh_seq == dyn.rfp_value_seq:
                        complete = max(dyn.rfp_complete_cycle, cycle + 1)
                        fully_hidden = dyn.rfp_complete_cycle <= cycle + 1
                        rfp.record_useful(dyn, fully_hidden)
                        dyn.rfp_state = D.RFP_USED
                        dyn.forward_src_seq = fresh_seq
                        dyn.served_level = "RFP"
                        if fully_hidden:
                            self.stats.loads_single_cycle += 1
                        if tracer is not None:
                            tracer.rfp_use(
                                cycle, dyn, cycle + 1 - dyn.rfp_complete_cycle
                            )
                        value = self._resolve_load_value(dyn, store)
                        self._finish_load(dyn, cycle, complete, value)
                        return True
                    # The address was right but a newer older-store executed
                    # after the prefetch read its data: data is stale; fall
                    # back to the normal path (no flush — the load has not
                    # used the data yet, §3.2.1).
                    rfp.record_stale(dyn)
                    dyn.rfp_state = D.RFP_WRONG
                    replays = self.rs.charge_replays(dyn.dest_preg)
                    self.stats.replay_issues += replays
                    if tracer is not None:
                        tracer.rfp_cancel(cycle, dyn, "stale", replays)
                else:
                    # Wrong predicted address: cancel the speculatively
                    # woken dependents (replay, not a flush) and re-access.
                    rfp.record_wrong(dyn)
                    dyn.rfp_state = D.RFP_WRONG
                    replays = self.rs.charge_replays(dyn.dest_preg)
                    self.stats.replay_issues += replays
                    if tracer is not None:
                        tracer.rfp_cancel(cycle, dyn, "wrong_addr", replays)
            else:
                # Load woke before the RFP-inflight bit was visible: the
                # load initiates its own access and the prefetch is wasted.
                rfp.stats.race_lost += 1
                dyn.rfp_state = D.RFP_DROPPED
                if tracer is not None:
                    tracer.rfp_drop(dyn, "race_lost")

        # ---- EPP path: predicted loads skip the validation access ------
        if (
            dyn.vp_predicted
            and self.vp is not None
            and not self.vp.wants_validation_access(dyn)
        ):
            value = self._resolve_load_value(dyn, store)
            dyn.forward_src_seq = store.seq if store is not None else None
            dyn.served_level = "VP"
            self._finish_load(dyn, cycle, cycle + 1, value)
            return True

        # ---- normal demand path (ports.claim_demand inlined) -----------
        ports = self.ports
        if ports._demand_used < ports.num_ports:
            ports._demand_used += 1
            ports.demand_grants += 1
        else:
            ports.demand_denies += 1
            return False
        if rfp is not None and dyn.rfp_state == D.RFP_QUEUED:
            rfp.note_load_issued_first(dyn)
        if store is not None:
            value = store.value
            complete = cycle + self.config.store_forward_latency
            dyn.forward_src_seq = store.seq
            dyn.served_level = "FWD"
            self.stats.load_forwards += 1
            if self.vp is not None:
                self.vp.note_forwarded(pc)
        else:
            # -- hit_miss.predict --------------------------------------
            hm = self.hit_miss
            if hm is not None:
                hm.predictions += 1
                hm_table = hm.table
                hm_index = (pc >> 2) % hm.num_entries
                predicted_hit = hm_table[hm_index] >= 2
            else:
                predicted_hit = True
            # -- hierarchy.l1_hit -------------------------------------
            # Both presence probes are side-effect free, so the LRU
            # touches and counters commit only when the whole fast path
            # is taken; otherwise MemoryHierarchy.load runs untouched.
            hier = self.hierarchy
            addr = dyn.addr
            dtlb = hier.dtlb
            page = addr >> 12
            tlb_set = dtlb.sets[page & dtlb.set_mask]
            level = None
            if page in tlb_set:
                l1 = hier.l1
                line = addr >> l1.line_shift
                l1_set = l1.sets[line & l1.set_mask]
                if line in l1_set:
                    mshr = hier.mshr
                    if cycle >= mshr.next_fill:
                        mshr.expire(cycle)
                    if line not in mshr.inflight:
                        tlb_set.pop(page)
                        tlb_set[page] = True
                        dtlb.hits += 1
                        l1_set[line] = l1_set.pop(line)
                        l1.stats.hits += 1
                        hier.loads_served["L1"] += 1
                        complete = cycle + hier._l1_serve
                        level = "L1"
            if level is None:
                complete, level = hier.load(addr, pc, cycle)
            dyn.served_level = level
            hit = level == "L1"
            if hm is not None:
                # -- hit_miss.train ------------------------------------
                counter = hm_table[hm_index]
                if (counter >= 2) != hit:
                    hm.mispredicts += 1
                if hit:
                    if counter < 3:
                        hm_table[hm_index] = counter + 1
                elif counter > 0:
                    hm_table[hm_index] = counter - 1
                if predicted_hit and not hit:
                    # Dependents were woken at hit timing; cancel + replay.
                    self.stats.hit_miss_mispredicts += 1
                    self.stats.replay_issues += self.rs.charge_replays(dyn.dest_preg)
                elif not predicted_hit and hit:
                    # Conservative wakeup: dependents re-traverse the
                    # scheduling pipe after data returns.
                    complete += self.config.sched_latency
            value = self.memory.get(word, 0)
        self._finish_load(dyn, cycle, complete, value)
        return True

    def _issue_store(self, dyn, cycle):
        """Store execution; operand reads, :meth:`_finish` and
        ``sq.note_executed`` are inlined."""
        prf = self.prf
        prf_value = prf.value
        src_pregs = dyn.src_pregs
        n = len(src_pregs)
        if n == 2:
            srcs = (prf_value[src_pregs[0]], prf_value[src_pregs[1]])
        elif n == 1:
            srcs = (prf_value[src_pregs[0]],)
        else:
            srcs = tuple(prf_value[p] for p in src_pregs)
        value = dyn.evaluator(srcs, dyn.instr.imm)
        complete = cycle + 1
        # -- _finish ---------------------------------------------------
        dyn.state = D.COMPLETED
        dyn.issue_cycle = cycle
        dyn.complete_cycle = complete
        dyn.value = value
        preg = dyn.dest_preg
        if preg is not None:
            prf_value[preg] = value
            prf.ready_cycle[preg] = complete
            waiters = prf.waiters
            if waiters is not None:
                woken = waiters[preg]
                if woken:
                    waiters[preg] = []
                    self.rs.wake_consumers(woken)
        self.stats.issued += 1
        if self.tracer is not None:
            self.tracer.complete(dyn, cycle, complete)
        # -- sq.note_executed ------------------------------------------
        insort(self.sq._executed.setdefault(dyn.word_addr, []), (dyn.seq, dyn))
        violator = self.lq.oldest_violation(dyn)
        if violator is not None:
            self.md.train_violation(violator.pc)
            self._flush_md(violator, cycle)
        return True

    def _finish(self, dyn, cycle, complete, value, write_reg=True):
        dyn.state = D.COMPLETED
        dyn.issue_cycle = cycle
        dyn.complete_cycle = complete
        dyn.value = value
        preg = dyn.dest_preg
        if write_reg and preg is not None:
            # -- prf.write (inlined: one call per issued instruction) --
            prf = self.prf
            prf.value[preg] = value
            prf.ready_cycle[preg] = complete
            waiters = prf.waiters
            if waiters is not None:
                woken = waiters[preg]
                if woken:
                    waiters[preg] = []
                    self.rs.wake_consumers(woken)
        self.stats.issued += 1
        if self.tracer is not None:
            self.tracer.complete(dyn, cycle, complete)

    def _finish_load(self, dyn, cycle, complete, value):
        """Load completion: :meth:`_finish` and ``lq.note_executed`` are
        inlined (one call per executed load), preserving their exact
        side-effect order."""
        vp_predicted = dyn.vp_predicted
        vp_correct = True
        if vp_predicted and self.vp is not None:
            vp_correct = self.vp.validate(dyn, value)
        dyn.state = D.COMPLETED
        dyn.issue_cycle = cycle
        dyn.complete_cycle = complete
        dyn.value = value
        preg = dyn.dest_preg
        # A correct value prediction already made the destination ready at
        # dispatch+1; re-writing it with the (later) load completion would
        # wrongly delay dependents.
        if preg is not None and not (vp_predicted and vp_correct):
            # -- prf.write ---------------------------------------------
            prf = self.prf
            prf.value[preg] = value
            prf.ready_cycle[preg] = complete
            waiters = prf.waiters
            if waiters is not None:
                woken = waiters[preg]
                if woken:
                    waiters[preg] = []
                    self.rs.wake_consumers(woken)
        stats = self.stats
        stats.issued += 1
        if self.tracer is not None:
            self.tracer.complete(dyn, cycle, complete)
        # -- lq.note_executed ------------------------------------------
        insort(self.lq._executed.setdefault(dyn.word_addr, []), (dyn.seq, dyn))
        if vp_predicted and not vp_correct:
            self.events.schedule(complete, ("vp_flush", dyn))
        stats.load_latency_sum += complete - cycle
        stats.load_latency_count += 1

    # ==================================================================
    # flushes and squashes

    def _squash_younger(self, seq, inclusive, reason=""):
        squashed = self.rob.squash_younger_than(seq, inclusive)
        tracer = self.tracer
        for dyn in squashed:  # youngest first — RAT walk-back depends on it
            self.stats.squashed_instructions += 1
            dyn.state = D.SQUASHED
            if tracer is not None:
                tracer.squash(dyn, reason)
            if dyn.dest_preg is not None:
                self.rename.unmap(dyn.instr.dst, dyn.dest_preg, dyn.prev_preg)
                if self.preg_producer.get(dyn.dest_preg) is dyn:
                    del self.preg_producer[dyn.dest_preg]
            self.rs.discard(dyn)
            if dyn.is_load:
                self.lq.remove(dyn)
                if self.rfp is not None:
                    self.rfp.on_load_squash(dyn)
                if self.vp is not None:
                    self.vp.on_load_squash(dyn)
            elif dyn.is_store:
                self.sq.remove(dyn)
        return squashed

    def _flush_md(self, load_dyn, cycle):
        """Memory-ordering violation: restart execution from the load."""
        self.stats.md_flushes += 1
        self._squash_younger(load_dyn.seq, inclusive=True, reason="md_flush")
        self.frontend.flush_rewind(
            load_dyn.instr.index, cycle + self.config.md_flush_penalty
        )

    def _flush_vp(self, load_dyn, cycle):
        """Value misprediction: squash the load's dependents and refetch.

        The load itself survives with its corrected value (already written
        to the PRF at completion).
        """
        self.stats.vp_flushes += 1
        self._squash_younger(load_dyn.seq, inclusive=False, reason="vp_flush")
        self.frontend.flush_rewind(
            load_dyn.instr.index + 1, cycle + self.config.vp.flush_penalty
        )

    # ==================================================================
    # inspection

    def architectural_registers(self):
        """Committed architectural register values (pipeline must be
        drained, i.e. after :meth:`run`)."""
        return self.rename.architectural_values()

    def snapshot_counters(self):
        """Numeric counter snapshot used for warmup-window measurement."""
        snap = {
            "cycle": self.cycle,
            "stats": self.stats.counters(),
            "loads_served": dict(self.hierarchy.loads_served),
        }
        if self.rfp is not None:
            snap["rfp"] = self.rfp.stats.as_dict()
        return snap

    def __repr__(self):
        return "<OOOCore %s cycle=%d committed=%d>" % (
            self.config.name,
            self.cycle,
            self.stats.instructions,
        )
