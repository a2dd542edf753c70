"""Shared predictor plumbing: probabilistic confidence and the hook surface."""

import random


class ConfidenceCounter(object):
    """Probabilistic saturating confidence counter.

    Value predictors need *very* high confidence before speculating because
    a misprediction costs a pipeline flush (paper §2.1).  Probabilistic
    increments (Seznec's FPC trick) emulate a much deeper counter in a few
    bits: with increment probability p, saturation takes ~max/p correct
    observations.
    """

    __slots__ = ("value", "maximum", "increment_prob", "_rng")

    def __init__(self, maximum, increment_prob, rng):
        self.value = 0
        self.maximum = maximum
        self.increment_prob = increment_prob
        self._rng = rng

    @property
    def saturated(self):
        return self.value >= self.maximum

    def strengthen(self):
        if self.value < self.maximum and self._rng.random() < self.increment_prob:
            self.value += 1

    def reset(self):
        self.value = 0


class ValuePredictor(object):
    """Base class defining the hook surface the core drives.

    Subclasses override the hooks they need; every hook is a no-op here so
    the core can call them unconditionally.
    """

    name = "base"

    #: Dynamic instances a mispredicting PC is suppressed for.  A flush
    #: costs a pipeline's worth of work, so one mistake must gate a PC for
    #: a long time — this is how real value predictors keep their *used*
    #: accuracy far above their raw table accuracy.
    BLACKLIST_PENALTY = 512

    def __init__(self, config):
        self.config = config
        self.vp_config = config.vp
        self.rng = random.Random(config.seed ^ 0x5EED)
        self.predictions = 0
        self.correct = 0
        self.mispredictions = 0
        self.blacklist = {}

    # -- fetch stage (address predictors probe the cache here) ----------
    def on_fetch(self, static, index, cycle, ports, hierarchy, read_word,
                 path):
        """Called for every fetched instruction (``static`` at trace
        position ``index``) before it reaches rename.  ``read_word(addr)``
        returns the committed value of an 8-byte-aligned word."""

    # -- dispatch stage ---------------------------------------------------
    def on_load_dispatch(self, dyn, cycle, path):
        """Return ``(predicted, value)``; ``predicted`` means the load's
        destination register may be marked ready with ``value`` now."""
        return False, 0

    # -- execute stage ------------------------------------------------------
    def validate(self, dyn, actual_value):
        """Compare a prediction against the resolved value.

        Returns True when correct.  The core flushes on False, and the
        delinquent PC is blacklisted so it cannot flush again soon.
        """
        self.predictions += 1
        if dyn.vp_value == actual_value:
            self.correct += 1
            return True
        self.mispredictions += 1
        self.blacklist[dyn.pc] = self.BLACKLIST_PENALTY
        return False

    def is_blacklisted(self, pc):
        return self.blacklist.get(pc, 0) > 0

    def decay_blacklist(self, pc):
        """Called once per committed load; drains the PC's suppression."""
        penalty = self.blacklist.get(pc, 0)
        if penalty:
            if penalty <= 1:
                del self.blacklist[pc]
            else:
                self.blacklist[pc] = penalty - 1

    def note_forwarded(self, pc):
        """A load at ``pc`` was store-forwarded (feeds no-FWD style filters)."""

    # -- commit / squash ----------------------------------------------------
    def on_load_commit(self, dyn, path):
        """Train with the retiring load's actual value/address."""

    def on_load_squash(self, dyn):
        """Fix any inflight counters for a squashed load."""

    def wants_validation_access(self, dyn):
        """Whether a predicted load still performs its demand L1 access.

        True for classic VP/DLVP (the validation bandwidth the paper calls
        out); EPP overrides this to False and pays at retirement instead.
        """
        return True

    def retire_reexecute_penalty(self, dyn):
        """Extra commit-time stall for this load (EPP's SSBF false
        positives); 0 for everyone else."""
        return 0

    def stats_dict(self):
        return {
            "name": self.name,
            "predictions": self.predictions,
            "correct": self.correct,
            "mispredictions": self.mispredictions,
        }
