"""The Composite value predictor (Sheikh & Hower, HPCA'19).

An "intelligent fusion of EVES and DLVP" (paper §5.3): the EVES component
predicts values directly; loads EVES cannot cover fall through to the DLVP
address-prediction path.  Both components train on every load.
"""

from repro.vp.base import ValuePredictor
from repro.vp.dlvp import DLVPPredictor
from repro.vp.eves import EVESPredictor


class CompositePredictor(ValuePredictor):
    """EVES-first fusion with DLVP fallback."""

    name = "composite"

    def __init__(self, config):
        super(CompositePredictor, self).__init__(config)
        self.eves = EVESPredictor(config)
        self.dlvp = DLVPPredictor(config)
        self.eves_used = 0
        self.dlvp_used = 0

    def on_fetch(self, static, index, cycle, ports, hierarchy, read_word,
                 path):
        self.dlvp.on_fetch(static, index, cycle, ports, hierarchy,
                           read_word, path)

    def on_load_dispatch(self, dyn, cycle, path):
        predicted, value = self.eves.on_load_dispatch(dyn, cycle, path)
        if predicted:
            self.eves_used += 1
            # Discard any pending probe; EVES wins the fusion.
            self.dlvp.pending_probes.pop(dyn.index, None)
            return True, value
        predicted, value = self.dlvp.on_load_dispatch(dyn, cycle, path)
        if predicted:
            self.dlvp_used += 1
            return True, value
        return False, 0

    def validate(self, dyn, actual_value):
        correct = super(CompositePredictor, self).validate(dyn, actual_value)
        if not correct:
            # Both components must see the suppression: either might have
            # produced the next prediction for this PC.
            self.eves.blacklist[dyn.pc] = self.BLACKLIST_PENALTY
            self.dlvp.blacklist[dyn.pc] = self.BLACKLIST_PENALTY
        return correct

    def note_forwarded(self, pc):
        self.dlvp.note_forwarded(pc)

    def on_load_commit(self, dyn, path):
        self.eves.on_load_commit(dyn, path)
        self.dlvp.on_load_commit(dyn, path)

    def on_load_squash(self, dyn):
        self.eves.on_load_squash(dyn)
        self.dlvp.on_load_squash(dyn)

    def stats_dict(self):
        stats = super(CompositePredictor, self).stats_dict()
        stats["eves_used"] = self.eves_used
        stats["dlvp_used"] = self.dlvp_used
        return stats
