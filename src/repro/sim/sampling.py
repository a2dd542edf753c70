"""SMARTS-style interval sampling: plan, confidence intervals, aggregation.

Statistical sampling (Wunderlich et al., SMARTS) replaces one long detailed
measurement window with ``K`` short detailed intervals separated by
functional fast-forward gaps.  Per-interval IPCs are treated as a sample
from the workload's phase distribution; the reported IPC is their mean with
a Student-t confidence interval, and in adaptive mode measurement stops as
soon as the CI half-width falls below a target fraction of the mean.

This module is pure planning and arithmetic — no simulation:

- :class:`SamplingPlan` places the intervals: systematic sampling with
  stride ``(length - warmup) // K``, each interval preceded by a detailed
  pipeline-refill ramp (``config.ff_detail_ramp``) and reached by
  functional fast-forward from instruction zero (restored from the
  checkpoint store when possible).  A one-sample plan is also the
  warmup split of every plain :func:`~repro.sim.runner.simulate` run, so
  the effective-warmup clamp and fast-forward eligibility live only here.
- :func:`sampling_applies` decides whether a sampled request is run as
  sampled at all (not for VP configs, not under tracing).
- :func:`t_critical` / :func:`mean_ci` are a scipy-free Student-t: a
  hardcoded two-sided critical-value table (the classic printed table) with
  conservative round-down for untabulated degrees of freedom.
- :func:`aggregate_intervals` folds per-interval results into one
  result-shaped dict carrying ``ipc_ci`` + ``intervals`` fields, applying
  the adaptive early-stop rule deterministically (intervals are considered
  in index order, so serial and parallel runs aggregate identically).

The actual interval execution lives in ``repro.sim.runner`` (
``simulate_interval`` / ``simulate_sampled``) and the fan-out across
workers in ``repro.sim.parallel``.
"""

import math

from repro.sim import settings

#: Default relative CI half-width target for adaptive mode (1%).
DEFAULT_CI_TARGET = 0.01
DEFAULT_CONFIDENCE = 0.95
#: Adaptive mode never stops before this many intervals: a 2-sample CI is
#: wildly unstable (t(1) = 12.7) and would stop on lucky pairs.
DEFAULT_MIN_SAMPLES = 3

# Two-sided Student-t critical values, indexed [confidence][df].  The
# classic printed table: df 1..30 then 40/50/60/80/100/120.  For an
# untabulated df the next *lower* tabulated row is used — a slightly wider
# (conservative) interval, never a narrower one.
_T_TABLE = {
    0.90: {
        1: 6.314, 2: 2.920, 3: 2.353, 4: 2.132, 5: 2.015, 6: 1.943,
        7: 1.895, 8: 1.860, 9: 1.833, 10: 1.812, 11: 1.796, 12: 1.782,
        13: 1.771, 14: 1.761, 15: 1.753, 16: 1.746, 17: 1.740, 18: 1.734,
        19: 1.729, 20: 1.725, 21: 1.721, 22: 1.717, 23: 1.714, 24: 1.711,
        25: 1.708, 26: 1.706, 27: 1.703, 28: 1.701, 29: 1.699, 30: 1.697,
        40: 1.684, 50: 1.676, 60: 1.671, 80: 1.664, 100: 1.660, 120: 1.658,
    },
    0.95: {
        1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
        7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
        13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
        19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064,
        25: 2.060, 26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
        40: 2.021, 50: 2.009, 60: 2.000, 80: 1.990, 100: 1.984, 120: 1.980,
    },
    0.99: {
        1: 63.657, 2: 9.925, 3: 5.841, 4: 4.604, 5: 4.032, 6: 3.707,
        7: 3.499, 8: 3.355, 9: 3.250, 10: 3.169, 11: 3.106, 12: 3.055,
        13: 3.012, 14: 2.977, 15: 2.947, 16: 2.921, 17: 2.898, 18: 2.878,
        19: 2.861, 20: 2.845, 21: 2.831, 22: 2.819, 23: 2.807, 24: 2.797,
        25: 2.787, 26: 2.779, 27: 2.771, 28: 2.763, 29: 2.756, 30: 2.750,
        40: 2.704, 50: 2.678, 60: 2.660, 80: 2.639, 100: 2.626, 120: 2.617,
    },
}

#: Large-sample (normal) limits, used only for df beyond the table's 120.
_T_INF = {0.90: 1.645, 0.95: 1.960, 0.99: 2.576}


def t_critical(df, confidence=DEFAULT_CONFIDENCE):
    """Two-sided Student-t critical value for ``df`` degrees of freedom.

    Only the tabulated confidence levels (0.90 / 0.95 / 0.99) are
    supported; an untabulated ``df`` rounds *down* to the next tabulated
    row, widening the interval slightly rather than narrowing it.
    """
    if confidence not in _T_TABLE:
        raise ValueError(
            "unsupported confidence level %r (tabulated: %s)"
            % (confidence, ", ".join("%.2f" % c for c in sorted(_T_TABLE)))
        )
    if df < 1:
        raise ValueError("t_critical needs df >= 1, got %r" % (df,))
    table = _T_TABLE[confidence]
    if df > 120:
        return _T_INF[confidence]
    if df in table:
        return table[df]
    return table[max(d for d in table if d <= df)]


def mean_ci(values, confidence=DEFAULT_CONFIDENCE):
    """Sample mean and two-sided CI half-width of ``values``.

    Returns ``(mean, half_width)``; ``half_width`` is None for a single
    value (no variance estimate exists).
    """
    values = list(values)
    if not values:
        raise ValueError("mean_ci of an empty sample")
    n = len(values)
    mean = math.fsum(values) / n
    if n == 1:
        return mean, None
    variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    half = t_critical(n - 1, confidence) * math.sqrt(variance / n)
    return mean, half


# ---------------------------------------------------------------------------
# spec handling


def normalize_spec(spec):
    """Fill a user-level sampling spec with defaults; validate fields.

    A spec is a dict with ``samples`` (required, K >= 1) and optional
    ``interval_length`` (detailed instructions per interval; None = the
    full stride), ``ci_target`` (relative half-width for adaptive early
    stop; None = fixed-K), ``confidence`` and ``min_samples``.
    """
    samples = int(spec["samples"])
    if samples < 1:
        raise ValueError("sampling needs samples >= 1, got %d" % samples)
    interval_length = spec.get("interval_length")
    if interval_length is not None:
        interval_length = int(interval_length)
        if interval_length < 1:
            raise ValueError(
                "interval_length must be >= 1, got %d" % interval_length
            )
    ci_target = spec.get("ci_target")
    if ci_target is not None:
        ci_target = float(ci_target)
        if not 0.0 < ci_target < 1.0:
            raise ValueError(
                "ci_target is a relative half-width in (0, 1), got %r"
                % (ci_target,)
            )
    confidence = float(spec.get("confidence", DEFAULT_CONFIDENCE))
    if confidence not in _T_TABLE:
        raise ValueError(
            "unsupported confidence level %r (tabulated: %s)"
            % (confidence, ", ".join("%.2f" % c for c in sorted(_T_TABLE)))
        )
    min_samples = int(spec.get("min_samples", DEFAULT_MIN_SAMPLES))
    return {
        "samples": samples,
        "interval_length": interval_length,
        "ci_target": ci_target,
        "confidence": confidence,
        "min_samples": max(1, min_samples),
    }


def sampling_suffix(spec):
    """Filesystem-safe cache-key suffix encoding a normalized spec.

    Appended to the result cache's fingerprinted key so sampled and
    full-detail results for the same cell never collide, and specs that
    aggregate differently (adaptive target, confidence) miss each other.
    """
    spec = normalize_spec(spec)
    return "-sK%d-n%s-t%s-c%s-m%d" % (
        spec["samples"],
        spec["interval_length"] if spec["interval_length"] is not None else 0,
        ("%g" % spec["ci_target"]) if spec["ci_target"] is not None else "off",
        "%g" % spec["confidence"],
        spec["min_samples"],
    )


def sampling_applies(config, traced):
    """Whether a sampled request for ``config`` is run as sampled.

    Not for value-predictor configs (VP tables train on pipeline events
    the functional warmer does not model) and not when ``traced`` (the
    event log must cover the whole trace).  A refused request runs the
    full window instead — :func:`~repro.sim.runner.simulate_sampled` and
    :func:`~repro.sim.parallel.run_jobs` both ask here, so a sampled
    ``run`` and a sampled ``suite`` cell give the same result.  The same
    rule makes :class:`SamplingPlan` keep a VP config's warmup detailed.
    """
    return not (traced or config.vp.enabled)


class SamplingPlan(object):
    """Where the K measurement intervals of one cell sit in the trace.

    Systematic placement over the measured region (everything past the
    effective warmup window — ``warmup`` clamped to half the trace):
    interval ``i`` measures ``measure`` instructions starting at
    instruction ``starts[i]``, reached by functionally fast-forwarding
    ``functionals[i]`` instructions (the checkpointable position) and
    then re-simulating a ``ramps[i]``-long detailed pipeline-refill ramp.
    Fast-forward needs ``config.fast_forward``, ``REPRO_FF`` and
    :func:`sampling_applies`; without it every ramp reaches back to
    instruction zero (full detail, no checkpoints).

    With ``samples == 1`` and no ``interval_length`` the plan is the
    two-speed single-window split :func:`~repro.sim.runner.simulate`
    runs: one interval covering the whole measured region.
    """

    __slots__ = ("samples", "warmup_effective", "stride", "measure",
                 "starts", "ramps", "functionals")

    def __init__(self, config, length, warmup, spec):
        spec = normalize_spec(spec)
        samples = spec["samples"]
        warmup_effective = min(warmup, max(0, length // 2))
        stride = (length - warmup_effective) // samples
        if stride < 1:
            raise ValueError(
                "cannot place %d sampling intervals in a %d-instruction "
                "measured region (trace length %d, warmup %d)"
                % (samples, length - warmup_effective, length, warmup)
            )
        ff_ok = (
            config.fast_forward
            and sampling_applies(config, traced=False)
            and settings.get("REPRO_FF")
        )
        self.samples = samples
        self.warmup_effective = warmup_effective
        self.stride = stride
        self.measure = min(spec["interval_length"] or stride, stride)
        self.starts = []
        self.ramps = []
        self.functionals = []
        for i in range(samples):
            start = warmup_effective + i * stride
            ramp = min(config.ff_detail_ramp, start) if ff_ok else start
            self.starts.append(start)
            self.ramps.append(ramp)
            self.functionals.append(start - ramp)

    def checkpoint_positions(self):
        """Distinct nonzero functional positions (checkpoint keys)."""
        return sorted({f for f in self.functionals if f > 0})


def ci_target_met(ipcs, spec):
    """The deterministic adaptive-stop rule over per-interval ``ipcs``.

    True when ``spec`` sets a ``ci_target``, at least ``min_samples``
    intervals are in, and the CI half-width is at most ``ci_target`` times
    the mean.  A serial run stops simulating on the first prefix that
    meets it; aggregation truncates a run-them-all sweep to that prefix.
    """
    if spec["ci_target"] is None or len(ipcs) < spec["min_samples"]:
        return False
    mean, half = mean_ci(ipcs, spec["confidence"])
    return half is not None and mean > 0 and half <= spec["ci_target"] * mean


def aggregate_intervals(interval_datas, spec):
    """Fold per-interval result dicts into one sampled cell result.

    ``interval_datas`` must be in interval-index order (each carries the
    ``interval`` metadata attached by ``simulate_interval``).  Adaptive
    mode (``ci_target`` set) keeps the shortest prefix that meets
    :func:`ci_target_met`, so a serial early-stopped run and a parallel
    run-them-all sweep aggregate to the identical result.

    The aggregate is result-shaped (same keys a plain ``simulate`` result
    has) plus ``ipc_ci``, ``intervals`` and ``sampling`` fields.  Reported
    IPC is the *mean of per-interval IPCs* (the SMARTS estimator), which
    for a single interval equals instructions/cycles exactly.
    """
    spec = normalize_spec(spec)
    if not interval_datas:
        raise ValueError("aggregate_intervals needs at least one interval")
    ipcs = [d["ipc"] for d in interval_datas]
    used = next((interval_datas[:k] for k in range(1, len(ipcs))
                 if ci_target_met(ipcs[:k], spec)), interval_datas)
    mean, half = mean_ci([d["ipc"] for d in used], spec["confidence"])
    first = used[0]
    cycles = sum(d["cycles"] for d in used)
    instructions = sum(d["instructions"] for d in used)
    stat_keys = list(first["stats"])
    data = {
        "workload": first["workload"],
        "category": first["category"],
        "config": first["config"],
        "cycles": cycles,
        "instructions": instructions,
        "ipc": mean,
        "stats": {
            key: sum(d["stats"].get(key, 0) for d in used)
            for key in stat_keys
        },
        "loads_served": {
            key: sum(d["loads_served"].get(key, 0) for d in used)
            for key in first["loads_served"]
        },
        "total_cycles": sum(d["total_cycles"] for d in used),
        "total_instructions": sum(d["total_instructions"] for d in used),
    }
    if "rfp" in first:
        data["rfp"] = {
            key: sum(d.get("rfp", {}).get(key, 0) for d in used)
            for key in first["rfp"]
        }
    data["fast_forward"] = {
        "enabled": any(
            d.get("fast_forward", {}).get("enabled", False) for d in used
        ),
        "functional_instructions": sum(
            d.get("fast_forward", {}).get("functional_instructions", 0)
            for d in used
        ),
        "detailed_warmup": sum(
            d.get("fast_forward", {}).get("detailed_warmup", 0) for d in used
        ),
    }
    data["idle_skipped_cycles"] = sum(
        d.get("idle_skipped_cycles", 0) for d in used
    )
    data["ipc_ci"] = {
        "mean": mean,
        "half_width": half,
        "relative_half_width": (half / mean) if half is not None and mean > 0
        else None,
        "confidence": spec["confidence"],
        "intervals_used": len(used),
        "intervals_planned": spec["samples"],
        "ci_target": spec["ci_target"],
    }
    data["intervals"] = [
        {
            "index": d["interval"]["index"],
            "start": d["interval"]["start"],
            "measure": d["interval"]["measure"],
            "ipc": d["ipc"],
            "cycles": d["cycles"],
            "instructions": d["instructions"],
        }
        for d in used
    ]
    data["sampling"] = dict(spec)
    return data
