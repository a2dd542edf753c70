"""Single-simulation runner producing a serialisable :class:`SimResult`.

Measurement protocol: counters are snapshotted when ``warmup`` instructions
have committed, and the reported ("measured") numbers are deltas over the
post-warmup window — predictors and caches are warm, matching how
architecture papers measure region IPC.

How a run is split is decided only in :mod:`repro.sim.sampling`:
:func:`simulate` runs the one-sample
:class:`~repro.sim.sampling.SamplingPlan` and :func:`simulate_interval`
one interval of a K-sample plan; a whole K-sample cell is a sweep job of
:func:`repro.sim.parallel.run_jobs`, which runs and aggregates its
intervals.  One private tail, :func:`_run_window`, runs every window:
warm or restore, detailed ramp, fetch limit, run, result.

Two-speed execution: when ``config.fast_forward`` is on, most of the
warmup window is executed by the in-order
:class:`~repro.emu.warmup.FunctionalWarmer` (which warms caches, TLB,
hit-miss predictor, RFP tables and the memory-dependence predictor), the
detailed core re-simulates the last
:data:`~repro.sim.sampling.FF_DETAIL_RAMP` warmup instructions to refill
the pipeline, and only then does measurement start — at exactly the same
instruction count as a full-detail run.  The plan runs value-predictor
configs and ``fast_forward=False`` configs in full detail; so does a run
given a tracer, whose event log must cover the whole trace.
"""

from repro.core.config import baseline
from repro.core.core import OOOCore
from repro.sim.defaults import DEFAULT_LENGTH, DEFAULT_WARMUP
from repro.sim.sampling import SamplingPlan
from repro.workloads.suite import build_workload, workload_category

#: Result-schema / core-semantics version, mixed into every ResultCache
#: fingerprint.  Bump this whenever :class:`SimResult` gains/changes fields
#: or the core's timing semantics change, so stale on-disk results from an
#: older simulator become cache misses instead of wrong answers.
SCHEMA_VERSION = 4


class SimResult(object):
    """Flat, JSON-friendly record of one simulation."""

    def __init__(self, data):
        self.data = data

    @classmethod
    def from_core(cls, core, workload_name, category):
        final = core.snapshot_counters()
        if core.warmup_instructions and core.warmup_snapshot is None:
            raise RuntimeError(
                "empty measurement window: warmup=%d but only %d instructions "
                "committed for workload %r under config %r — lower warmup or "
                "lengthen the trace"
                % (
                    core.warmup_instructions,
                    final["stats"]["instructions"],
                    workload_name,
                    core.config.name,
                )
            )
        start = core.warmup_snapshot or {
            "cycle": 0,
            "stats": {k: 0 for k in final["stats"]},
            "loads_served": {k: 0 for k in final["loads_served"]},
            "rfp": {k: 0 for k in final.get("rfp", {})},
        }
        cycles = final["cycle"] - start["cycle"]
        stats = {
            key: final["stats"][key] - start["stats"].get(key, 0)
            for key in final["stats"]
        }
        loads_served = {
            key: final["loads_served"][key] - start["loads_served"].get(key, 0)
            for key in final["loads_served"]
        }
        data = {
            "workload": workload_name,
            "category": category,
            "config": core.config.name,
            "cycles": cycles,
            "instructions": stats["instructions"],
            "ipc": stats["instructions"] / cycles if cycles else 0.0,
            "stats": stats,
            "loads_served": loads_served,
            "total_cycles": final["cycle"],
            "total_instructions": final["stats"]["instructions"],
        }
        if core.warmup_instructions and (
            cycles <= 0 or stats["instructions"] <= 0
        ):
            raise RuntimeError(
                "empty measurement window: warmup=%d left %d instructions / "
                "%d cycles to measure for workload %r under config %r — "
                "lower warmup or lengthen the trace"
                % (
                    core.warmup_instructions,
                    stats["instructions"],
                    cycles,
                    workload_name,
                    core.config.name,
                )
            )
        if "rfp" in final:
            rfp_start = start.get("rfp", {})
            data["rfp"] = {
                key: final["rfp"][key] - rfp_start.get(key, 0)
                for key in final["rfp"]
            }
        if core.vp is not None:
            data["vp"] = core.vp.stats_dict()
        return cls(data)

    # -- convenience accessors -------------------------------------------

    @property
    def ipc(self):
        return self.data["ipc"]

    @property
    def workload(self):
        return self.data["workload"]

    @property
    def category(self):
        return self.data["category"]

    @property
    def stats(self):
        return self.data["stats"]

    @property
    def rfp(self):
        return self.data.get("rfp")

    @property
    def loads(self):
        return self.data["stats"]["loads"]

    def rfp_fraction(self, counter):
        """An RFP counter as a fraction of committed loads."""
        loads = self.loads or 1
        return self.data.get("rfp", {}).get(counter, 0) / loads

    @property
    def coverage(self):
        """Fraction of loads usefully prefetched (the paper's coverage)."""
        return self.rfp_fraction("useful")

    def load_distribution(self):
        """Fractions of loads served per hierarchy level plus forwarding."""
        served = dict(self.data["loads_served"])
        served["FWD"] = self.stats.get("load_forwards", 0)
        served["RFP"] = self.data.get("rfp", {}).get("useful", 0)
        total = sum(served.values()) or 1
        return {level: count / total for level, count in served.items()}

    def as_dict(self):
        return self.data

    def __repr__(self):
        return "<SimResult %s/%s ipc=%.3f>" % (
            self.data["workload"],
            self.data["config"],
            self.ipc,
        )


def simulate(
    workload,
    config=None,
    length=DEFAULT_LENGTH,
    warmup=DEFAULT_WARMUP,
    max_cycles=None,
    tracer=None,
    check_invariants=None,
):
    """Simulate ``workload`` (suite name or a Trace) under ``config``.

    Returns a :class:`SimResult` measured over the post-warmup window.

    Tracing: pass a :class:`~repro.obs.tracer.Tracer` to collect the
    run's events (``repro trace`` does); its metrics snapshot lands in
    ``result.data["obs"]``.  Nothing attaches one implicitly.

    Invariant net: ``check_invariants`` is a sweep interval in cycles for
    :mod:`repro.core.invariants` (0 disables; None defers to
    ``REPRO_CHECK_INVARIANTS``).  The sweep only observes state, so results
    are identical with checking on or off.
    """
    config = config or baseline()
    trace, name, category = _resolve_trace(workload, length)
    plan = SamplingPlan(config, len(trace), warmup, {"samples": 1})
    start = plan.starts[0]
    # An event trace must cover the whole trace.
    ramp = start if tracer is not None else plan.ramps[0]
    core = OOOCore(trace, config, tracer=tracer,
                   check_invariants=check_invariants)
    result, _outcome = _run_window(core, name, category, start, plan.measure,
                                   ramp, None, max_cycles)
    if tracer is not None:
        result.data["obs"] = tracer.metrics.snapshot()
    return result


def _resolve_trace(workload, length):
    if isinstance(workload, str):
        return (build_workload(workload, length=length), workload,
                workload_category(workload))
    return workload, workload.name, workload.category


def _run_window(core, name, category, start, measure, ramp, store,
                max_cycles):
    """Run one measurement window on a freshly built ``core``.

    The first ``start - ramp`` instructions are warmed functionally
    (restored from ``store`` when it holds them), the detailed core
    re-simulates the ``ramp`` instructions before ``start``, and the
    fetch limit ``start + measure`` lets the pipeline drain after exactly
    the measured instructions.  Returns ``(result, checkpoint outcome)``.
    """
    from repro.sim import checkpoint

    functional = start - ramp
    outcome = checkpoint.warm_or_restore(
        core, name, core.config, len(core.trace), functional, store
    )
    core.warmup_instructions = ramp
    core.frontend.cursor.limit = start + measure
    core.run(max_cycles=max_cycles)
    result = SimResult.from_core(core, name, category)
    result.data["fast_forward"] = {
        "enabled": functional > 0,
        "functional_instructions": functional,
        "detailed_warmup": ramp,
    }
    result.data["idle_skipped_cycles"] = core.idle_cycles_skipped
    return result, outcome


def simulate_interval(
    workload,
    config=None,
    length=DEFAULT_LENGTH,
    start=0,
    measure=None,
    ramp=0,
    index=0,
    checkpoint_store=None,
    max_cycles=None,
):
    """Simulate ONE sampling interval of ``workload`` under ``config``.

    The interval measures the ``measure`` instructions beginning at trace
    position ``start``: the first ``start - ramp`` instructions are
    functionally fast-forwarded (restored from ``checkpoint_store`` when a
    matching warm-state checkpoint exists, warmed and checkpointed
    otherwise), the detailed core re-simulates the ``ramp``-instruction
    pipeline-refill window, and the fetch limit is lowered to
    ``start + measure`` so the pipeline drains naturally after exactly the
    measured instructions — no mid-flight stop, identical commit timing to
    a longer run over the same prefix.

    ``checkpoint_store`` is a :class:`~repro.sim.checkpoint.CheckpointStore`
    or None (always warm functionally: the storeless reference).  Returns
    a :class:`SimResult` whose data carries ``interval`` metadata.
    """
    config = config or baseline()
    trace, name, category = _resolve_trace(workload, length)
    if measure is None:
        measure = len(trace) - start
    if measure < 1 or start < 0 or start + measure > len(trace):
        raise ValueError(
            "interval [%d, %d) does not fit a %d-instruction trace"
            % (start, start + measure, len(trace))
        )
    if ramp < 0 or ramp > start:
        raise ValueError(
            "detailed ramp %d does not fit before interval start %d"
            % (ramp, start)
        )
    result, outcome = _run_window(OOOCore(trace, config), name, category,
                                  start, measure, ramp, checkpoint_store,
                                  max_cycles)
    result.data["interval"] = {
        "index": index,
        "start": start,
        "measure": measure,
        "ramp": ramp,
        "functional": start - ramp,
        "checkpoint": outcome,
    }
    return result
