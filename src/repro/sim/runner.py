"""Single-simulation runner producing a serialisable :class:`SimResult`.

Measurement protocol: counters are snapshotted when ``warmup`` instructions
have committed, and the reported ("measured") numbers are deltas over the
post-warmup window — predictors and caches are warm, matching how
architecture papers measure region IPC.

How a run is split is decided only in :mod:`repro.sim.sampling`:
:func:`simulate` runs the one-sample
:class:`~repro.sim.sampling.SamplingPlan`, :func:`simulate_interval` one
interval of a K-sample plan, and :func:`simulate_sampled` a K-sample plan
it then aggregates.  One private tail, :func:`_run_window`, runs every
window: warm or restore, detailed ramp, fetch limit, run, result.

Two-speed execution: when ``config.fast_forward`` is on, most of the
warmup window is executed by the in-order
:class:`~repro.emu.warmup.FunctionalWarmer` (which warms caches, TLB,
hit-miss predictor, RFP tables and the memory-dependence predictor), the
detailed core re-simulates the last ``config.ff_detail_ramp`` warmup
instructions to refill the pipeline, and only then does measurement start —
at exactly the same instruction count as a full-detail run.  The plan
runs value-predictor configs and ``REPRO_FF=0`` in full detail; so does a
tracer (``REPRO_TRACE`` or an explicit one) or ``record_commits``, whose
output must cover the whole trace.
"""

from repro.core.config import baseline
from repro.core.core import OOOCore
from repro.obs.export import sort_events, write_jsonl
from repro.obs.tracer import trace_spec_from_env
from repro.sim import settings
from repro.sim.defaults import DEFAULT_LENGTH, DEFAULT_WARMUP
from repro.sim.sampling import (
    SamplingPlan, aggregate_intervals, ci_target_met, normalize_spec,
    sampling_applies,
)
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
    record_commits=False,
    max_cycles=None,
    tracer=None,
    check_invariants=None,
):
    """Simulate ``workload`` (suite name or a Trace) under ``config``.

    Returns a :class:`SimResult` measured over the post-warmup window.

    Tracing: pass an explicit :class:`~repro.obs.tracer.Tracer` to collect
    events yourself (the ``trace`` CLI and the parallel engine do), or set
    ``REPRO_TRACE=<path>`` to have this function attach one and write the
    sorted JSONL event log to ``<path>`` when the run drains.  Either way
    the metrics snapshot lands in ``result.data["obs"]``.

    Invariant net: ``check_invariants`` is a sweep interval in cycles for
    :mod:`repro.core.invariants` (0 disables; None defers to
    ``REPRO_CHECK_INVARIANTS``).  The sweep only observes state, so results
    are identical with checking on or off.
    """
    config = config or baseline()
    trace, name, category = _resolve_trace(workload, length)
    env_spec = None
    if tracer is None:
        env_spec = trace_spec_from_env()
        if env_spec is not None:
            tracer = env_spec.build_tracer()
    plan = SamplingPlan(config, len(trace), warmup, {"samples": 1})
    start = plan.starts[0]
    # Commit logs and event traces must cover the whole trace.
    ramp = start if record_commits or tracer is not None else plan.ramps[0]
    core = OOOCore(trace, config, record_commits=record_commits, tracer=tracer,
                   check_invariants=check_invariants)
    result, _outcome = _run_window(core, name, category, start, plan.measure,
                                   ramp, None, max_cycles)
    if record_commits:
        result.data["committed"] = core.committed
    if tracer is not None:
        result.data["obs"] = tracer.metrics.snapshot()
    if env_spec is not None:
        write_jsonl(sort_events(tracer.events), env_spec.path)
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
    checkpoint_store="default",
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

    ``checkpoint_store`` is a :class:`~repro.sim.checkpoint.CheckpointStore`,
    None (always warm functionally), or ``"default"`` for the shared store.
    Returns a :class:`SimResult` whose data carries ``interval`` metadata.
    """
    from repro.sim import checkpoint

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
    if checkpoint_store == "default":
        checkpoint_store = checkpoint.default_checkpoint_store()
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


def simulate_sampled(
    workload,
    config=None,
    length=DEFAULT_LENGTH,
    warmup=DEFAULT_WARMUP,
    samples=10,
    interval_length=None,
    ci_target=None,
    confidence=None,
    min_samples=None,
    checkpoint_store="default",
    max_cycles=None,
    batch_warm=None,
):
    """Estimate ``workload``'s IPC from ``samples`` short detailed intervals.

    SMARTS-style sampled simulation: the measured region is covered by
    ``samples`` systematically placed intervals (see
    :class:`~repro.sim.sampling.SamplingPlan`), every interval boundary's
    warm state comes from one shared functional pass through the checkpoint
    store, and the reported IPC is the per-interval mean with a Student-t
    confidence interval (``result.data["ipc_ci"]``).

    Adaptive mode: with ``ci_target`` set (relative half-width, e.g. 0.01
    for 1%), intervals are simulated in order and measurement stops as soon
    as — after ``min_samples`` intervals — the CI is tight enough.  The
    stopping rule is deterministic, so a parallel sweep that simulates all
    intervals aggregates to the identical result.

    With ``samples=1`` (and no ``interval_length``) the plan degenerates to
    the standard two-speed single-window run and the result's measured
    counters match :func:`simulate` exactly.

    A request :func:`~repro.sim.sampling.sampling_applies` refuses (a
    value-predictor config, or ``REPRO_TRACE`` set) returns the
    full-window :func:`simulate` result instead — the same result, and
    the same event log, that :func:`repro.sim.parallel.run_jobs` gives
    the sampled job.

    ``batch_warm`` routes the shared functional pass through the batched
    SoA engine (:mod:`repro.emu.batch`) instead of the scalar warmer —
    bit-exact, and faster whenever several positions (or, via
    :func:`repro.sim.parallel.run_jobs`, several configs) share the trace.
    ``None`` defers to ``REPRO_BATCH_WARM``.
    """
    from repro.sim import checkpoint

    config = config or baseline()
    if not sampling_applies(config, trace_spec_from_env() is not None):
        return simulate(workload, config, length=length, warmup=warmup,
                        max_cycles=max_cycles)
    trace, name, _category = _resolve_trace(workload, length)
    spec = {"samples": samples, "interval_length": interval_length,
            "ci_target": ci_target}
    if confidence is not None:
        spec["confidence"] = confidence
    if min_samples is not None:
        spec["min_samples"] = min_samples
    spec = normalize_spec(spec)
    plan = SamplingPlan(config, len(trace), warmup, spec)
    if checkpoint_store == "default":
        checkpoint_store = checkpoint.default_checkpoint_store()
    if batch_warm is None:
        batch_warm = settings.get("REPRO_BATCH_WARM")
    if checkpoint_store is not None:
        checkpoint.ensure_checkpoints(
            trace, name, config, len(trace), plan.checkpoint_positions(),
            checkpoint_store,
            engine="batch" if batch_warm else "scalar",
        )

    interval_datas = []
    for i in range(plan.samples):
        interval = simulate_interval(
            trace,
            config,
            start=plan.starts[i],
            measure=plan.measure,
            ramp=plan.ramps[i],
            index=i,
            checkpoint_store=checkpoint_store,
            max_cycles=max_cycles,
        )
        interval_datas.append(interval.data)
        if ci_target_met([d["ipc"] for d in interval_datas], spec):
            break
    return SimResult(aggregate_intervals(interval_datas, spec))
