"""The Tracer: typed pipeline events keyed by (cycle, seqnum).

Design constraints, in order:

1. **Zero overhead when disabled.**  The core never calls into this module
   unless a tracer was attached; every hook site is a single
   ``if tracer is not None`` pointer test.  There is no "null tracer"
   object — ``None`` *is* the disabled tracer.
2. **Determinism.**  A simulation is a pure function of (trace, config), so
   the emitted event stream is too.  Payloads are ints and strings only,
   and the exporter's sort key (cycle, seq, stage rank) is total for any
   one instruction's events, making the JSONL byte-identical across
   serial and parallel runs.
3. **Fig. 9 fidelity.**  RFP events carry the cycles the paper's schedule
   diagram names: the arbitration-win cycle, the RFP-inflight-bit set
   cycle (``l1_latency - sched_latency`` after the win), the data-arrival
   cycle, and the speculative-wakeup/cancel cycles.

Fetch is the one stage recorded indirectly: the frontend notes the fetch
cycle per trace index (sequence numbers do not exist until rename), and
the fetch event is emitted retroactively once the instruction dispatches
and receives its seqnum.  Wrong-path fetches that never dispatch therefore
produce no events — they have no seqnum to key by.
"""

from repro.obs import events as E
from repro.obs.metrics import MetricsRegistry
from repro.sim import settings


def parse_cycle_range(text):
    """Parse ``"A:B"`` (either end optional) into an inclusive (lo, hi).

    Returns ``None`` for empty input.  ``"100:"`` means cycles >= 100,
    ``":500"`` means cycles <= 500.
    """
    if not text:
        return None
    if ":" not in text:
        raise ValueError("cycle range must look like A:B, got %r" % text)
    lo_text, hi_text = text.split(":", 1)
    lo = int(lo_text) if lo_text else 0
    hi = int(hi_text) if hi_text else None
    if hi is not None and hi < lo:
        raise ValueError("cycle range %r is empty" % text)
    return (lo, hi)


class TraceSpec(object):
    """Where and what to trace, as resolved from the environment or CLI."""

    __slots__ = ("path", "loads_only")

    def __init__(self, path, loads_only=False):
        self.path = path
        self.loads_only = loads_only

    def build_tracer(self):
        return Tracer(metrics=MetricsRegistry(), loads_only=self.loads_only)

    def __repr__(self):
        return "<TraceSpec path=%r loads_only=%r>" % (self.path,
                                                      self.loads_only)


def trace_spec_from_env(environ=None):
    """Resolve the ``REPRO_TRACE`` knob into a :class:`TraceSpec` or None.

    - ``REPRO_TRACE`` unset, empty, or ``0``: tracing disabled.
    - ``REPRO_TRACE=1``: enabled, JSONL written to ``repro_trace.jsonl``.
    - ``REPRO_TRACE=<path>``: enabled, JSONL written to ``<path>``.

    A suite trace records every event of every job; ``repro trace
    --cycles/--filter`` windows and filters a single run.
    """
    value = settings.get("REPRO_TRACE", environ)
    if value in ("", "0"):
        return None
    return TraceSpec("repro_trace.jsonl" if value == "1" else value)


class Tracer(object):
    """Collects pipeline events and feeds the metrics registry.

    The core sets ``tracer.now`` once per cycle so hook sites without a
    cycle argument (scheduler replays, commit-side PT training, squash
    walks) can still stamp events correctly.
    """

    __slots__ = (
        "events",
        "metrics",
        "loads_only",
        "now",
        "_fetch_cycles",
        "_h_load_use",
        "_h_timeliness",
        "_h_pt_occ",
        "_h_pat_occ",
        "_h_rob_occ",
    )

    def __init__(self, metrics=None, loads_only=False):
        self.events = []
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.loads_only = loads_only
        self.now = 0
        self._fetch_cycles = {}
        self._h_load_use = self.metrics.histogram("load_to_use_latency")
        self._h_timeliness = self.metrics.histogram("rfp_timeliness")
        self._h_pt_occ = self.metrics.histogram("pt_occupancy")
        self._h_pat_occ = self.metrics.histogram("pat_occupancy")
        self._h_rob_occ = self.metrics.histogram("rob_occupancy")

    # ------------------------------------------------------------------
    # event plumbing

    def _emit(self, cycle, seq, ev, extra=None):
        """Record one event and count it in the metrics."""
        self.metrics.inc("events." + ev)
        event = {"cycle": cycle, "seq": seq, "ev": ev}
        if extra:
            event.update(extra)
        self.events.append(event)

    def _wants(self, dyn):
        return not self.loads_only or dyn.is_load

    # ------------------------------------------------------------------
    # frontend

    def note_fetch(self, cycle, instr):
        """Remember when a trace index was (last) fetched; the event itself
        is emitted at dispatch, once the instruction has a seqnum."""
        self._fetch_cycles[instr.index] = cycle

    # ------------------------------------------------------------------
    # per-instruction pipeline stages

    def dispatch(self, cycle, dyn):
        if not self._wants(dyn):
            return
        instr = dyn.instr
        seq = dyn.seq
        fetch_cycle = self._fetch_cycles.get(instr.index)
        if fetch_cycle is not None:
            self._emit(fetch_cycle, seq, E.FETCH, {"index": instr.index})
        self._emit(
            cycle,
            seq,
            E.RENAME,
            {
                "pc": instr.pc,
                "op": instr.op.name.lower(),
                "index": instr.index,
                "dest_preg": -1 if dyn.dest_preg is None else dyn.dest_preg,
            },
        )
        extra = {}
        if dyn.is_load or dyn.is_store:
            extra["addr"] = dyn.addr
        if dyn.vp_predicted:
            extra["vp"] = 1
        self._emit(cycle, seq, E.DISPATCH, extra)

    def complete(self, dyn, cycle, complete_cycle):
        """Issue + execute at ``cycle``, writeback at ``complete_cycle``."""
        if dyn.is_load:
            self._h_load_use.record(complete_cycle - cycle)
        if not self._wants(dyn):
            return
        seq = dyn.seq
        self._emit(cycle, seq, E.ISSUE, None)
        extra = {"fu": dyn.fu_class}
        if dyn.served_level is not None:
            extra["served"] = dyn.served_level
        self._emit(cycle, seq, E.EXECUTE, extra)
        self._emit(complete_cycle, seq, E.WRITEBACK, {"value": dyn.value})

    def commit(self, cycle, dyn):
        if self._wants(dyn):
            self._emit(cycle, dyn.seq, E.COMMIT, None)

    def squash(self, dyn, reason):
        if self._wants(dyn):
            self._emit(self.now, dyn.seq, E.SQUASH, {"reason": reason})

    def replay(self, dyn, preg):
        """A waiting consumer of ``preg`` was speculatively woken and must
        re-traverse the scheduler (cancel + re-dispatch)."""
        if self._wants(dyn):
            self._emit(self.now, dyn.seq, E.REPLAY, {"preg": preg})

    def store_drain(self, dyn, release_cycle):
        if self._wants(dyn):
            self._emit(release_cycle, dyn.seq, E.STORE_DRAIN, None)

    # ------------------------------------------------------------------
    # RFP lifecycle (all RFP events belong to loads; never filtered)

    def pt_hit(self, cycle, dyn, predicted_addr):
        self._emit(cycle, dyn.seq, E.PT_HIT, {"pred_addr": predicted_addr})

    def pt_train(self, dyn, addr):
        self._emit(self.now, dyn.seq, E.PT_TRAIN, {"pc": dyn.pc, "addr": addr})

    def rfp_inject(self, cycle, dyn, predicted_addr):
        self._emit(cycle, dyn.seq, E.RFP_INJECT, {"pred_addr": predicted_addr})

    def rfp_issue(self, cycle, dyn, addr, source):
        self._emit(cycle, dyn.seq, E.RFP_ISSUE, {"addr": addr, "source": source})

    def rfp_arrive(self, dyn):
        self._emit(
            dyn.rfp_complete_cycle,
            dyn.seq,
            E.RFP_ARRIVE,
            {"bit_set_cycle": dyn.rfp_bit_set_cycle},
        )

    def rfp_spec_wakeup(self, dyn):
        """Dependents woken by the RFP-inflight bit (paper Fig. 9: timed so
        they reach execute exactly as the prefetched data lands)."""
        self._emit(
            dyn.rfp_bit_set_cycle,
            dyn.seq,
            E.RFP_SPEC_WAKEUP,
            {"data_cycle": dyn.rfp_complete_cycle},
        )

    def rfp_use(self, cycle, dyn, slack):
        self._h_timeliness.record(slack)
        self._emit(cycle, dyn.seq, E.RFP_USE, {"slack": slack})

    def rfp_cancel(self, cycle, dyn, reason, replays):
        self._emit(
            cycle,
            dyn.seq,
            E.RFP_CANCEL,
            {
                "reason": reason,
                "replays": replays,
                "pred_addr": dyn.rfp_addr,
                "addr": dyn.addr,
            },
        )

    def rfp_drop(self, dyn, reason):
        self._emit(self.now, dyn.seq, E.RFP_DROP, {"reason": reason})

    # ------------------------------------------------------------------
    # occupancy sampling (histograms only; no events)

    def sample_rob(self, occupancy):
        self._h_rob_occ.record(occupancy)

    def sample_tables(self, pt_occupancy, pat_occupancy):
        self._h_pt_occ.record(pt_occupancy)
        if pat_occupancy is not None:
            self._h_pat_occ.record(pat_occupancy)

    def __repr__(self):
        return "<Tracer %d events now=%d>" % (len(self.events), self.now)
