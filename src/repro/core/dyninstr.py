"""The in-flight dynamic instruction record.

A :class:`DynInstr` pairs a trace's
:class:`~repro.isa.instruction.StaticInstr` with the per-instance facts
(trace index, effective address, flag byte) and everything the pipeline
tracks about its in-flight life: renamed registers, issue/complete times,
RFP prefetch state, and value-prediction state.  Plain attributes with
``__slots__`` keep the per-instruction cost low — the simulator allocates
one of these per dispatched instruction.

Frequently read facts about the static instruction (``is_load``, ``pc``,
``latency``, ...) are copied into plain slots at construction instead of
being read through ``static``: the scheduler and LSQ read them millions of
times per run, and a slot load is cheaper than an attribute chain.
"""

# Instruction lifecycle states.
SQUASHED = -1
DISPATCHED = 0
ISSUED = 1
COMPLETED = 2

# RFP packet states (mirrors §3.2/§5.2 terminology).
RFP_NONE = 0       # no prefetch was injected for this load
RFP_QUEUED = 1     # packet injected, waiting in the RFP FIFO
RFP_INFLIGHT = 2   # packet won arbitration; RFP-inflight bit will set
RFP_DROPPED = 3    # packet cancelled (load won the race / TLB miss / squash)
RFP_USED = 4       # load consumed the prefetched data (useful)
RFP_WRONG = 5      # prefetched address mismatched; load re-accessed the L1


class DynInstr(object):
    """One dispatched instruction flowing through the OOO window."""

    __slots__ = (
        "static",
        "index",
        "flags",
        "seq",
        "state",
        "dest_preg",
        "prev_preg",
        "src_pregs",
        "dispatch_cycle",
        "complete_cycle",
        "value",
        "served_level",
        "forward_src_seq",
        # static-instruction facts (copied once at construction) and the
        # per-instance address
        "is_load",
        "is_store",
        "is_branch",
        "pc",
        "addr",
        "word_addr",
        "fu_class",
        "fu_idx",
        "latency",
        "evaluator",
        # residency flags: the event-driven scheduler and the LSQ indexes
        # delete lazily, so each queue marks occupancy here instead of
        # paying an O(n) list.remove per departure
        "in_rs",
        "in_lq",
        "in_sq",
        # RFP state
        "rfp_state",
        "rfp_addr",
        "rfp_bit_set_cycle",
        "rfp_complete_cycle",
        "rfp_value_seq",
        "rfp_full_hide",
        # value/address prediction state
        "vp_predicted",
        "vp_value",
        "vp_probe_value",
    )

    def __init__(self, static, index, addr, flags, seq, dispatch_cycle):
        self.static = static
        self.index = index
        self.flags = flags
        self.seq = seq
        self.state = DISPATCHED
        self.dest_preg = None
        self.prev_preg = None
        self.src_pregs = ()
        self.dispatch_cycle = dispatch_cycle
        self.complete_cycle = -1
        self.value = 0
        self.served_level = None
        self.forward_src_seq = None
        self.pc = static.pc
        (self.is_load, self.is_store, self.is_branch, self.fu_class,
         self.fu_idx, self.latency, self.evaluator) = static.facts
        if static.is_mem:
            self.addr = addr
            # The 8-byte-aligned word_addr is what store/load matching uses.
            self.word_addr = addr & ~7
        else:
            self.addr = self.word_addr = None
        self.in_rs = False
        self.in_lq = False
        self.in_sq = False
        self.rfp_state = RFP_NONE
        self.rfp_addr = None
        self.rfp_bit_set_cycle = -1
        self.rfp_complete_cycle = -1
        self.rfp_value_seq = None
        self.rfp_full_hide = False
        self.vp_predicted = False
        self.vp_value = 0
        self.vp_probe_value = None

    def __repr__(self):
        return "<DynInstr seq=%d #%d %r state=%d>" % (
            self.seq, self.index, self.static, self.state)
