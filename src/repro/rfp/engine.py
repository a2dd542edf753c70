"""The RFP engine: queue, arbitration, store handling, timing contract.

Life of a prefetch (paper §3.2–§3.4):

1. A load dispatches (post-rename, so its ``prfid`` is known).  The PT is
   looked up; if the PC is confident, a prefetch packet (predicted vaddr +
   prfid) enters the 64-entry RFP FIFO and the PT inflight counter bumps.
2. Each cycle the FIFO head bids for L1 load ports at the *lowest*
   priority.  Older RFP requests beat younger ones (FIFO).  Before probing
   the cache the packet scans older stores, youngest first: an executed
   matching store forwards its data; an unexecuted older store plus a
   "conflict" memory-dependence prediction blocks the packet.
3. On winning arbitration the packet probes the DTLB (dropped on a miss,
   §3.2.2) and accesses the L1 (continuing to L2/LLC/DRAM on a miss).  The
   RFP-inflight bit is set at the first L1-lookup cycle — exactly
   ``l1_latency - sched_latency`` cycles after grant, i.e. 3 cycles before
   a hit completes, so dependents woken at that instant reach execution
   just as the data lands (§3.3, Fig. 9).
4. The demand load, on waking, sees the bit and does not re-request a port;
   at execution it compares addresses.  Match -> the prefetched data is
   used and the L1 is never touched again.  Mismatch -> the speculatively
   woken dependents are cancelled (a normal scheduler replay, not a flush)
   and the load re-accesses the cache.
"""

from collections import deque

from repro.core import dyninstr as D
from repro.rfp.context import ContextPrefetcher
from repro.rfp.pat import PageAddressTable
from repro.rfp.prefetch_table import PrefetchTable


#: Counter fields of :class:`RFPStats`, explicit so the class can use
#: ``__slots__`` (these are bumped on the per-load hot path).
RFP_STAT_FIELDS = (
    "injected",            # packets created (72% of loads in paper)
    "executed",            # packets that won arbitration (48%)
    "useful",              # loads that consumed prefetched data (43.4%)
    "wrong_addr",          # executed but address mismatched (~5%)
    "md_stale",            # address right but a newer store intervened
    "full_hide",           # prefetch done before load dispatch (34.2%)
    "partial_hide",        # prefetch partially hid latency (9.2%)
    "dropped_load_first",
    "dropped_tlb",
    "dropped_squash",
    "dropped_queue_full",
    "dropped_l1_miss",
    "forwarded",           # prefetch served by store forwarding
    "blocked_cycles",      # head-of-queue blocked on MD conflict
    "race_lost",           # load issued in the grant->bit-set window
)


class RFPStats(object):
    """Counters behind Figs. 10–14 and the §5.2 timeliness analysis."""

    __slots__ = RFP_STAT_FIELDS

    def __init__(self):
        for name in RFP_STAT_FIELDS:
            setattr(self, name, 0)

    def as_dict(self):
        return {name: getattr(self, name) for name in RFP_STAT_FIELDS}

    def coverage(self, total_loads):
        return self.useful / total_loads if total_loads else 0.0


class _Packet(object):
    __slots__ = ("dyn", "predicted_addr", "enqueue_cycle")

    def __init__(self, dyn, predicted_addr, enqueue_cycle):
        self.dyn = dyn
        self.predicted_addr = predicted_addr
        self.enqueue_cycle = enqueue_cycle


class RFPEngine(object):
    """Drives RFP for one core instance.

    Args:
        config: the full :class:`~repro.core.config.CoreConfig`.
        hierarchy: the shared :class:`~repro.memory.hierarchy.MemoryHierarchy`.
        store_queue: the core's :class:`~repro.core.lsq.StoreQueue`.
        md: the core's :class:`~repro.core.lsq.MemDepPredictor`.
        ports: the core's :class:`~repro.memory.ports.LoadPortArbiter`.
    """

    def __init__(self, config, hierarchy, store_queue, md, ports, hit_miss=None):
        self.config = config
        self.rfp_config = config.rfp
        self.hierarchy = hierarchy
        self.store_queue = store_queue
        self.md = md
        self.ports = ports
        #: Optional hit-miss predictor: an RFP request is the load's proxy
        #: (§3.2.1), so its L1 outcome trains the predictor the load would
        #: have trained — otherwise covered load PCs starve the predictor.
        self.hit_miss = hit_miss
        pat = (
            PageAddressTable(config.rfp.pat_entries, config.rfp.pat_assoc)
            if config.rfp.use_pat
            else None
        )
        self.pat = pat
        self.pt = PrefetchTable(
            num_entries=config.rfp.pt_entries,
            assoc=config.rfp.pt_assoc,
            confidence_bits=config.rfp.confidence_bits,
            confidence_increment_prob=config.rfp.confidence_increment_prob,
            utility_bits=config.rfp.utility_bits,
            stride_bits=config.rfp.stride_bits,
            inflight_bits=config.rfp.inflight_bits,
            pat=pat,
            seed=config.seed,
        )
        self.context = (
            ContextPrefetcher(config.rfp.context_entries)
            if config.rfp.context_enabled
            else None
        )
        self.queue = deque()
        self.stats = RFPStats()
        #: RFP-inflight bit timing: the bit is set this many cycles after a
        #: packet wins arbitration (= first L1-lookup cycle), which is
        #: sched_latency cycles before an L1 hit completes.
        self.bit_set_offset = config.l1_latency - config.sched_latency
        #: Criticality extension: PCs of loads that feed addresses/branches.
        #: The core marks them only when ``criticality_filter`` is on:
        #: nothing else reads the table.
        self.critical_pcs = {}
        self._critical_cap = 4096
        #: MSHR entries kept free for demand misses: an RFP request that
        #: would miss the on-die L1/MSHR state holds while the miss file is
        #: nearly full (standard prefetch throttling).
        self.mshr_reserve = 4
        #: Observability hook; set by the core when tracing is enabled.
        self.tracer = None

    # ------------------------------------------------------------------
    # dispatch-side hooks

    def on_load_dispatch(self, dyn, cycle, path_history=0, inject=True):
        """Consider injecting a prefetch for a dispatching load.

        ``inject=False`` still updates the PT inflight counter (every
        dynamic instance of the PC must be counted for the address math)
        but suppresses the packet — used by the VP+RFP fusion, where a
        value-predicted load is not register-file prefetched.
        """
        eligible, predicted = self.pt.on_allocate(dyn.pc)
        if not inject:
            return
        if not eligible and self.context is not None:
            context_pred = self.context.predict(dyn.pc, path_history)
            if context_pred is not None:
                eligible, predicted = True, context_pred
        if not eligible:
            return
        tracer = self.tracer
        if tracer is not None:
            tracer.pt_hit(cycle, dyn, predicted)
        if self.rfp_config.criticality_filter and dyn.pc not in self.critical_pcs:
            return
        if len(self.queue) >= self.rfp_config.queue_entries:
            self.stats.dropped_queue_full += 1
            if tracer is not None:
                tracer.rfp_drop(dyn, "queue_full")
            return
        dyn.rfp_state = D.RFP_QUEUED
        self.queue.append(_Packet(dyn, predicted, cycle))
        self.stats.injected += 1
        if tracer is not None:
            tracer.rfp_inject(cycle, dyn, predicted)

    def on_load_commit(self, dyn, path_history=0):
        """Train the PT (and context table) with the retiring load."""
        self.pt.train(dyn.pc, dyn.addr, commit=True)
        if self.context is not None:
            self.context.train(dyn.pc, path_history, dyn.addr)
        tracer = self.tracer
        if tracer is not None:
            tracer.pt_train(dyn, dyn.addr)
            tracer.sample_tables(
                self.pt.occupancy(),
                self.pat.occupancy() if self.pat is not None else None,
            )

    def on_load_squash(self, dyn):
        """A load was squashed: drop its packet, fix the inflight counter."""
        self.pt.on_squash(dyn.pc)
        if dyn.rfp_state == D.RFP_QUEUED:
            dyn.rfp_state = D.RFP_DROPPED
            self.stats.dropped_squash += 1
            if self.tracer is not None:
                self.tracer.rfp_drop(dyn, "squash")

    def note_load_issued_first(self, dyn):
        """The demand load won the race; its queued packet is dead."""
        if dyn.rfp_state == D.RFP_QUEUED:
            dyn.rfp_state = D.RFP_DROPPED
            self.stats.dropped_load_first += 1
            if self.tracer is not None:
                self.tracer.rfp_drop(dyn, "load_first")

    def mark_critical(self, pc):
        """Criticality extension: remember a load PC that feeds an address
        computation or a branch condition."""
        if len(self.critical_pcs) >= self._critical_cap:
            self.critical_pcs.pop(next(iter(self.critical_pcs)))
        self.critical_pcs[pc] = True

    def invariant_violations(self):
        """RFP-side findings for :mod:`repro.core.invariants`."""
        out = []
        if len(self.queue) > self.rfp_config.queue_entries:
            out.append(
                "RFP queue over capacity: %d/%d"
                % (len(self.queue), self.rfp_config.queue_entries)
            )
        out.extend(self.pt.inflight_violations())
        return out

    # ------------------------------------------------------------------
    # the per-cycle pump

    def step(self, cycle):
        """Advance the RFP FIFO: issue as many packets as ports allow."""
        queue = self.queue
        while queue:
            packet = queue[0]
            dyn = packet.dyn
            if dyn.rfp_state != D.RFP_QUEUED:
                queue.popleft()  # dropped by squash or a losing race
                continue
            if dyn.state != D.DISPATCHED:
                dyn.rfp_state = D.RFP_DROPPED
                self.stats.dropped_load_first += 1
                if self.tracer is not None:
                    self.tracer.rfp_drop(dyn, "load_first")
                queue.popleft()
                continue
            addr = packet.predicted_addr
            word = addr & ~7
            # In-flight store handling (§3.2.1): forward from an executed
            # older store; block behind an unexecuted one when the MD
            # predictor says the load conflicts.
            store = self.store_queue.older_executed_match(dyn.seq, word)
            if store is not None:
                self._complete(dyn, addr, cycle, cycle + self.config.store_forward_latency,
                               value_seq=store.seq, source="FWD")
                self.stats.forwarded += 1
                queue.popleft()
                continue
            md = self.md
            if (
                md.table[(dyn.pc >> 2) % md.num_entries] >= 2  # md.predict_conflict
                and self.store_queue.has_older_unexecuted(dyn.seq)
            ):
                self.stats.blocked_cycles += 1
                break  # FIFO head blocks until the store resolves
            if self.rfp_config.drop_on_tlb_miss and not self.hierarchy.dtlb.probe(addr):
                dyn.rfp_state = D.RFP_DROPPED
                self.stats.dropped_tlb += 1
                if self.tracer is not None:
                    self.tracer.rfp_drop(dyn, "tlb_miss")
                queue.popleft()
                continue
            mshr = self.hierarchy.mshr
            if (
                len(mshr.inflight) >= mshr.num_entries - self.mshr_reserve  # occupancy
                and self.hierarchy.probe_level(addr) not in ("L1", "MSHR")
            ):
                self.stats.blocked_cycles += 1
                break  # would flood the MSHRs demand misses need; hold
            if not self.ports.claim_rfp():
                break  # no bandwidth this cycle; lowest priority means we wait
            hier = self.hierarchy
            complete = hier.l1_hit(addr, cycle)
            level = "L1"
            if complete is None:
                complete, level = hier.load(
                    addr, dyn.pc, cycle, fill_tlb=False, count_distribution=False
                )
            if self.hit_miss is not None:
                self.hit_miss.train(dyn.pc, level == "L1")
            if level != "L1" and not self.rfp_config.prefetch_on_l1_miss:
                dyn.rfp_state = D.RFP_DROPPED
                self.stats.dropped_l1_miss += 1
                if self.tracer is not None:
                    self.tracer.rfp_drop(dyn, "l1_miss")
                queue.popleft()
                continue
            self._complete(dyn, addr, cycle, complete, value_seq=None,
                           source=level)
            queue.popleft()

    def _complete(self, dyn, addr, grant_cycle, complete_cycle, value_seq,
                  source="L1"):
        """Record a packet that is now guaranteed to bring data."""
        dyn.rfp_state = D.RFP_INFLIGHT
        dyn.rfp_addr = addr
        dyn.rfp_complete_cycle = complete_cycle
        dyn.rfp_bit_set_cycle = grant_cycle + self.bit_set_offset
        dyn.rfp_value_seq = value_seq
        self.stats.executed += 1
        if self.tracer is not None:
            self.tracer.rfp_issue(grant_cycle, dyn, addr, source)
            self.tracer.rfp_arrive(dyn)

    # ------------------------------------------------------------------
    # use-side accounting (called by the core at load issue)

    def record_useful(self, dyn, fully_hidden):
        self.stats.useful += 1
        if fully_hidden:
            self.stats.full_hide += 1
            dyn.rfp_full_hide = True
        else:
            self.stats.partial_hide += 1

    def record_wrong(self, dyn):
        self.stats.wrong_addr += 1
        self.pt.on_misprediction(dyn.pc, dyn.addr)

    def record_stale(self, dyn):
        self.stats.md_stale += 1

    def __repr__(self):
        return "<RFPEngine queue=%d injected=%d useful=%d>" % (
            len(self.queue),
            self.stats.injected,
            self.stats.useful,
        )
