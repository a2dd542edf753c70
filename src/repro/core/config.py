"""Core and feature configuration (the paper's Table 2 plus RFP/VP knobs).

Two reference configurations are provided:

- :func:`baseline` — parameters similar to Intel Tiger Lake (the paper's
  baseline): 5-wide, 5-cycle 48KB L1D with 2 load ports, 352-entry ROB.
- :func:`baseline_2x` — the paper's "futuristic up-scaled" core: 10-wide,
  all execution resources doubled, higher L1 bandwidth.

Every experiment in the evaluation is expressed as a delta over one of
these via :func:`dataclasses.replace`-style copies (`CoreConfig.evolve`).

A config is the whole of what a result depends on besides the workload,
its trace window and the sampling plan.  The one setting that reaches into it is
``REPRO_FF``: it is the default of :attr:`CoreConfig.fast_forward`, read
once when a config is built.  Copies keep the value they were built with.
"""

import dataclasses
from dataclasses import dataclass, field


@dataclass
class RFPConfig:
    """Register File Prefetch parameters (paper §3, Table 1)."""

    enabled: bool = False
    #: Prefetch Table geometry.
    pt_entries: int = 1024
    pt_assoc: int = 8
    #: Confidence counter width in bits (Fig. 17 sweeps 1..4).
    confidence_bits: int = 1
    #: Probability of incrementing confidence on a stride repeat (paper: 1/16).
    confidence_increment_prob: float = 1.0 / 16.0
    utility_bits: int = 2
    stride_bits: int = 8
    inflight_bits: int = 7
    #: Use the 64-entry Page Address Table storage optimisation (§3.5).
    use_pat: bool = True
    pat_entries: int = 64
    pat_assoc: int = 4
    #: RFP request FIFO depth.
    queue_entries: int = 64
    #: Add the path-based context prefetcher alongside the stride PT (§5.5.3).
    context_enabled: bool = False
    context_entries: int = 1024
    #: Pipeline simplifications (§3.2.2 / §5.5.5).
    drop_on_tlb_miss: bool = True
    prefetch_on_l1_miss: bool = True
    #: Extension (paper future work): only prefetch loads flagged critical.
    criticality_filter: bool = False


@dataclass
class VPConfig:
    """Value/address prediction parameters (paper §5.3–§5.4)."""

    enabled: bool = False
    #: One of "eves", "dlvp", "composite", "epp".
    kind: str = "eves"
    table_entries: int = 8192
    #: Confidence needed before a value prediction is used (probabilistic
    #: saturating counter; high threshold = the paper's "very high accuracy":
    #: ~60 consecutive correct observations before the first prediction).
    confidence_max: int = 15
    confidence_increment_prob: float = 0.25
    #: Pipeline flush penalty for a value/address misprediction (paper: 20).
    flush_penalty: int = 20
    #: DLVP-specific: entries in the no-forward (store-conflict) filter.
    nofwd_entries: int = 1024
    #: EPP-specific: Store Sequence Bloom Filter false-positive probability,
    #: causing load re-execution at retirement (paper §2.2).
    epp_ssbf_false_positive_rate: float = 0.02


def _fast_forward_default():
    # Imported here: the repro.sim package imports this module.
    from repro.sim import settings

    return settings.get("REPRO_FF")


@dataclass
class CoreConfig:
    """Full core + memory + feature configuration."""

    name: str = "baseline"

    # ---- pipeline widths ------------------------------------------------
    fetch_width: int = 5
    rename_width: int = 5
    issue_width: int = 5
    retire_width: int = 5
    #: Fetch-to-allocate latency with the uop-cache frontend (short; this is
    #: exactly the paper's argument for why fetch-time address predictors
    #: have little run-ahead).
    frontend_latency: int = 4
    #: Wakeup + select + RF-read/scoreboard (Stark et al.): 3 cycles.
    sched_latency: int = 3

    # ---- window sizes ---------------------------------------------------
    rob_entries: int = 352
    rs_entries: int = 128
    lq_entries: int = 128
    sq_entries: int = 72
    #: Unified physical register file (int + vector files folded together;
    #: every modelled uop writes one destination, so the PRF must exceed the
    #: ROB for the ROB to be the binding window resource, as on real cores
    #: where many uops carry no renamed destination).
    prf_entries: int = 416

    # ---- functional units ----------------------------------------------
    alu_units: int = 4
    mul_units: int = 1
    fp_units: int = 2
    load_ports: int = 2
    store_ports: int = 2
    #: Extra L1 ports reserved for RFP only (Fig. 14's dedicated-port study).
    rfp_dedicated_ports: int = 0
    rfp_shares_demand_ports: bool = True

    # ---- memory hierarchy -----------------------------------------------
    line_bytes: int = 64
    l1_size: int = 48 * 1024
    l1_assoc: int = 12
    l1_latency: int = 5
    l1_mshrs: int = 16
    l2_size: int = 1280 * 1024
    l2_assoc: int = 20
    l2_latency: int = 14
    llc_size: int = 3 * 1024 * 1024
    llc_assoc: int = 12
    llc_latency: int = 40
    dram_latency: int = 200
    dram_max_per_window: int = 4
    dram_window: int = 8
    dtlb_entries: int = 64
    dtlb_assoc: int = 4
    dtlb_walk_latency: int = 30
    l2_prefetcher_enabled: bool = True
    l2_prefetcher_entries: int = 64
    l2_prefetcher_degree: int = 4
    #: DCU-style next-line L1 prefetch on demand misses (TGL baseline).
    l1_next_line_prefetch: bool = True

    # ---- speculation ----------------------------------------------------
    branch_redirect_penalty: int = 17
    md_flush_penalty: int = 20
    #: Store-to-load forward latency (resolved in the L1 pipeline).
    store_forward_latency: int = 5
    #: Hit-miss predictor (Yoaz et al.) present in the baseline.
    hit_miss_predictor: bool = True
    hit_miss_entries: int = 1024

    # ---- features ---------------------------------------------------------
    rfp: RFPConfig = field(default_factory=RFPConfig)
    vp: VPConfig = field(default_factory=VPConfig)

    # ---- two-speed simulation -------------------------------------------
    #: Execute most of the warmup region on the in-order functional warmer
    #: (:class:`repro.emu.warmup.FunctionalWarmer`) instead of the detailed
    #: core — the standard sampled-simulation methodology.  The measured
    #: region is always simulated in full detail; see EXPERIMENTS.md.
    #: Defaults to ``REPRO_FF`` (on unless set to 0) at construction.
    fast_forward: bool = field(default_factory=_fast_forward_default)
    #: Jump the detailed loop over provably idle cycles (ROB stalled on a
    #: long-latency miss, nothing can issue/dispatch/fetch) instead of
    #: spinning ``step()``.  Counter-exact: final stats are identical with
    #: skipping on or off.
    idle_skip: bool = True

    #: Oracle latency overrides for Fig. 1, e.g. {"L1": 1} serves every L1
    #: hit at register-file latency.
    oracle_overrides: dict = field(default_factory=dict)

    #: Deterministic seed for the model's probabilistic counters.
    seed: int = 0xC0FFEE

    def evolve(self, **changes):
        """Return a copy with ``changes`` applied (nested rfp/vp accepted
        as dicts of field overrides)."""
        rfp_changes = changes.pop("rfp", None)
        vp_changes = changes.pop("vp", None)
        new = dataclasses.replace(self, **changes)
        if rfp_changes is not None:
            if isinstance(rfp_changes, RFPConfig):
                new.rfp = rfp_changes
            else:
                new.rfp = dataclasses.replace(self.rfp, **rfp_changes)
        else:
            new.rfp = dataclasses.replace(self.rfp)
        if vp_changes is not None:
            if isinstance(vp_changes, VPConfig):
                new.vp = vp_changes
            else:
                new.vp = dataclasses.replace(self.vp, **vp_changes)
        else:
            new.vp = dataclasses.replace(self.vp)
        new.oracle_overrides = dict(
            changes.get("oracle_overrides", self.oracle_overrides)
        )
        return new

    def validate(self):
        """Sanity-check parameter relationships; raises ValueError."""
        if self.sched_latency < 1:
            raise ValueError("sched_latency must be >= 1")
        if self.l1_latency <= self.sched_latency:
            raise ValueError(
                "RFP timing requires l1_latency (%d) > sched_latency (%d)"
                % (self.l1_latency, self.sched_latency)
            )
        if self.prf_entries <= 40:
            raise ValueError("physical register file too small")
        for attr in ("fetch_width", "rename_width", "issue_width", "retire_width"):
            if getattr(self, attr) < 1:
                raise ValueError("%s must be >= 1" % attr)
        return self

    def table2_rows(self):
        """Rows for the paper's Table 2 (core parameters)."""
        return [
            ("Core width", "%d-wide fetch/rename/retire" % self.fetch_width),
            ("ROB / RS", "%d / %d entries" % (self.rob_entries, self.rs_entries)),
            ("Load / Store queue", "%d / %d entries" % (self.lq_entries, self.sq_entries)),
            ("Physical registers", str(self.prf_entries)),
            ("Scheduling pipeline", "%d cycles (wakeup/select/RF read)" % self.sched_latency),
            ("L1D", "%dKB %d-way, %d cycles, %d load ports"
             % (self.l1_size // 1024, self.l1_assoc, self.l1_latency, self.load_ports)),
            ("L2", "%dKB %d-way, %d cycles"
             % (self.l2_size // 1024, self.l2_assoc, self.l2_latency)),
            ("LLC", "%dMB %d-way, %d cycles"
             % (self.llc_size // (1024 * 1024), self.llc_assoc, self.llc_latency)),
            ("DRAM", "%d cycles" % self.dram_latency),
            ("DTLB", "%d-entry %d-way, %d-cycle walk"
             % (self.dtlb_entries, self.dtlb_assoc, self.dtlb_walk_latency)),
            ("Branch redirect", "%d cycles" % self.branch_redirect_penalty),
            ("VP flush penalty", "%d cycles" % self.vp.flush_penalty),
        ]


def baseline(**overrides):
    """The paper's baseline: a Tiger-Lake-like 5-wide core."""
    return CoreConfig(name="baseline").evolve(**overrides).validate()


def baseline_2x(**overrides):
    """The paper's futuristic up-scaled core: 10-wide, resources doubled."""
    config = CoreConfig(
        name="baseline-2x",
        fetch_width=10,
        rename_width=10,
        issue_width=10,
        retire_width=10,
        rob_entries=704,
        rs_entries=256,
        lq_entries=256,
        sq_entries=144,
        prf_entries=832,
        alu_units=8,
        mul_units=2,
        fp_units=4,
        load_ports=4,
        store_ports=4,
        l1_mshrs=32,
    )
    return config.evolve(**overrides).validate()
