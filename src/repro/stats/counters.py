"""Per-simulation counters and the result record a run produces."""

#: Every counter one simulation run maintains.  Kept as an explicit tuple
#: (rather than introspecting ``__dict__``) so :class:`SimStats` can use
#: ``__slots__`` — the core increments these inline every cycle, and slot
#: access is measurably cheaper than dict-backed attributes.
SIM_STAT_FIELDS = (
    "cycles",
    "instructions",
    "loads",
    "stores",
    "branches",
    "branch_mispredicts",
    "load_forwards",
    # Flush accounting.
    "md_flushes",
    "vp_flushes",
    "squashed_instructions",
    # Scheduler behaviour.
    "issued",
    "replay_issues",
    "hit_miss_mispredicts",
    # Load latency accounting (cycles from issue to data ready).
    "load_latency_sum",
    "load_latency_count",
    # Loads that executed effectively in a single cycle thanks to RFP.
    "loads_single_cycle",
    # Dispatch stalls by cause (diagnosis aid).
    "stall_rob",
    "stall_rs",
    "stall_lq",
    "stall_sq",
    "stall_prf",
    # EPP retirement re-executions.
    "retire_reexecutions",
)


class SimStats(object):
    """Everything one simulation run counts.

    The core increments these inline; experiment harnesses read them via
    :meth:`as_dict` / the convenience properties.
    """

    __slots__ = SIM_STAT_FIELDS

    def __init__(self):
        for name in SIM_STAT_FIELDS:
            setattr(self, name, 0)

    @property
    def ipc(self):
        return self.instructions / self.cycles if self.cycles else 0.0

    def counters(self):
        """Raw counter values only (no derived metrics) — the snapshot the
        warmup-window measurement subtracts."""
        return {name: getattr(self, name) for name in SIM_STAT_FIELDS}

    def __repr__(self):
        return "<SimStats ipc=%.3f cycles=%d instrs=%d>" % (
            self.ipc,
            self.cycles,
            self.instructions,
        )
