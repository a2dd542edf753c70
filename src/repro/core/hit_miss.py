"""Load hit-miss predictor (Yoaz et al., baseline assumption in §2.5).

Predicts whether a load will hit the L1 so its dependents can be woken
speculatively at L1-hit latency.  A mispredicted "hit" forces the already
woken dependents to be cancelled and re-dispatched, which costs scheduler
bandwidth (charged by the core as replay issues).
"""


class HitMissPredictor(object):
    """PC-indexed 2-bit saturating hit-miss predictor.

    Counter semantics: >= 2 predicts hit.  Initialised to 3 (strongly hit),
    matching the empirical prior that ~93% of loads hit the L1 (Fig. 2).
    The core's demand-load issue predicts (counting ``predictions``) and
    trains the table in place; the RFP engine trains via :meth:`train`.
    """

    def __init__(self, num_entries=1024):
        self.num_entries = num_entries
        self.table = [3] * num_entries
        self.predictions = 0
        self.mispredicts = 0

    def _index(self, pc):
        return (pc >> 2) % self.num_entries

    def probe(self, pc):
        """Prediction without statistics (side consumers, e.g. VP gating)."""
        return self.table[self._index(pc)] >= 2

    def train(self, pc, hit):
        """Update with the actual outcome; tracks mispredict count."""
        index = self._index(pc)
        predicted_hit = self.table[index] >= 2
        if predicted_hit != hit:
            self.mispredicts += 1
        counter = self.table[index]
        if hit:
            if counter < 3:
                self.table[index] = counter + 1
        else:
            if counter > 0:
                self.table[index] = counter - 1

    def __repr__(self):
        return "<HitMissPredictor %d entries>" % self.num_entries
