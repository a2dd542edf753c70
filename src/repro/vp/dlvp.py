"""DLVP: load value prediction via path-based address prediction (MICRO'17).

DLVP predicts a load's *address* at fetch, probes the L1 with it, and uses
the probed data as a value prediction once the load allocates.  The paper's
Fig. 16 dissects why this converts so few loads on a modern core; we model
every stage of that waterfall:

1. *Address predictable* — the path-indexed table knows a stable stride
   (comparable population to RFP's PT).
2. *High confidence* (APHC) — flush cost demands saturation, cutting
   eligibility to ~49%.
3. *no-FWD filter* — loads likely to be store-forwarded must not predict
   (in-flight stores make the probed data stale), ~45%.
4. *Port available* — probes only launch on a free L1 port, ~22%.
5. *Probe timely* — the probed data must arrive before the load allocates;
   with a 5-cycle L1 and a ~4-cycle uop-cache frontend, only ~11% make it.

The probe reads *committed* memory state (``read_word``, the core's
:meth:`~repro.core.core.OOOCore.committed_word`): in-flight stores are
invisible to a fetch-time probe, so a store committing between probe and
execution shows up as a value mismatch at validation and costs a flush.
"""

from repro.vp.base import ConfidenceCounter, ValuePredictor


class _AddrEntry(object):
    __slots__ = ("last_addr", "stride", "confidence", "inflight", "valid")

    def __init__(self, confidence):
        self.last_addr = 0
        self.stride = 0
        self.confidence = confidence
        self.inflight = 0
        self.valid = False


class _Probe(object):
    __slots__ = ("complete_cycle", "value")

    def __init__(self, complete_cycle, value):
        self.complete_cycle = complete_cycle
        self.value = value


class DLVPPredictor(ValuePredictor):
    """Path-based address predictor + fetch-time L1 probe."""

    name = "dlvp"

    def __init__(self, config):
        super(DLVPPredictor, self).__init__(config)
        self.entries = config.vp.table_entries
        self.table = {}
        self.nofwd = {}
        self.nofwd_entries = config.vp.nofwd_entries
        self.pending_probes = {}
        # Fig. 16 waterfall counters.
        self.loads_seen = 0
        self.ap_predictable = 0
        self.ap_high_conf = 0
        self.aphc_nofwd = 0
        self.probed = 0
        self.probe_timely = 0
        self.port_denied = 0

    def _index(self, pc, path):
        return ((pc >> 2) ^ ((path & 0xFFFF) * 0x9E3779B1)) % self.entries

    def _entry(self, pc, path, create=False):
        index = self._index(pc, path)
        entry = self.table.get(index)
        if entry is None and create:
            entry = _AddrEntry(
                ConfidenceCounter(
                    self.vp_config.confidence_max,
                    self.vp_config.confidence_increment_prob,
                    self.rng,
                )
            )
            self.table[index] = entry
        return entry

    # ------------------------------------------------------------------

    def on_fetch(self, static, index, cycle, ports, hierarchy, read_word,
                 path):
        if not static.is_load:
            return
        self.loads_seen += 1
        entry = self._entry(static.pc, path)
        if entry is None or not entry.valid:
            return
        self.ap_predictable += 1
        if not entry.confidence.saturated:
            return
        self.ap_high_conf += 1
        if self.is_blacklisted(static.pc):
            return
        if (static.pc >> 2) % self.nofwd_entries in self.nofwd:
            return
        self.aphc_nofwd += 1
        if not ports.claim_rfp():
            self.port_denied += 1
            return
        predicted = entry.last_addr + entry.stride * (entry.inflight + 1)
        if predicted < 0:
            return
        self.probed += 1
        result = hierarchy.load(
            predicted, static.pc, cycle, fill_tlb=False, count_distribution=False
        )
        value = read_word(predicted & ~7)
        self.pending_probes[index] = _Probe(result.complete, value)

    def on_load_dispatch(self, dyn, cycle, path):
        entry = self._entry(dyn.pc, path, create=True)
        entry.inflight += 1
        probe = self.pending_probes.pop(dyn.index, None)
        if probe is None:
            return False, 0
        if probe.complete_cycle > cycle:
            return False, 0  # the uop-cache frontend left no run-ahead
        self.probe_timely += 1
        return True, probe.value

    def note_forwarded(self, pc):
        key = (pc >> 2) % self.nofwd_entries
        if len(self.nofwd) >= self.nofwd_entries:
            self.nofwd.pop(next(iter(self.nofwd)))
        self.nofwd[key] = True

    def on_load_commit(self, dyn, path):
        self.decay_blacklist(dyn.pc)
        entry = self._entry(dyn.pc, path, create=True)
        if entry.inflight > 0:
            entry.inflight -= 1
        addr = dyn.addr
        if entry.valid:
            stride = addr - entry.last_addr
            if stride == entry.stride:
                entry.confidence.strengthen()
            else:
                entry.stride = stride
                entry.confidence.reset()
        else:
            entry.valid = True
        entry.last_addr = addr

    def on_load_squash(self, dyn):
        entry = self.table.get(self._index(dyn.pc, 0))
        # Path at squash time is unknowable here; inflight counters are
        # conservatively repaired only when the same table entry is found.
        if entry is not None and entry.inflight > 0:
            entry.inflight -= 1
        self.pending_probes.pop(dyn.index, None)

    def waterfall(self):
        """Fig. 16's coverage waterfall, as fractions of all loads."""
        total = self.loads_seen or 1
        return {
            "AP": self.ap_predictable / total,
            "APHC": self.ap_high_conf / total,
            "APHC+noFWD": self.aphc_nofwd / total,
            "Probed (port)": self.probed / total,
            "ProbeSuccess": self.probe_timely / total,
        }

    def stats_dict(self):
        stats = super(DLVPPredictor, self).stats_dict()
        stats["waterfall"] = self.waterfall()
        return stats
