"""Shared experiment plumbing for the benchmark harness.

:func:`run_suite` runs one config over a suite slice; its defaults come
from ``REPRO_WORKLOADS``, ``REPRO_LENGTH``, ``REPRO_WARMUP`` and
``REPRO_JOBS`` (see :mod:`repro.sim.settings` and the README's settings
table).
"""

from repro.sim import settings
from repro.sim.parallel import run_matrix
from repro.stats.report import geomean, speedup
from repro.workloads.suite import workload_names


def run_suite(config, workloads=None, length=None, warmup=None,
              jobs=None, cache=None, progress=None,
              job_timeout=None, retries=None, keep_going=False,
              sampling=None):
    """Run (cache-backed) every workload under ``config``.

    Uncached (workload, config) pairs go through
    :func:`repro.sim.parallel.run_jobs`; results are identical to serial
    execution regardless of worker count.

    Args:
        workloads: suite workload names (else the first
            ``REPRO_WORKLOADS`` of the suite).
        length, warmup: trace length and warmup (else ``REPRO_LENGTH`` /
            ``REPRO_WARMUP``).
        jobs: worker count (else ``REPRO_JOBS``); 1 runs in-process.
        sampling: optional interval-sampling spec (``{"samples": K, ...}``,
            see :func:`~repro.sim.sampling.normalize_spec`): measure K
            short detailed intervals per workload from shared warm-state
            checkpoints and report mean IPC ± CI instead of one long
            detailed window.

    Returns {workload_name: SimResult}.
    """
    if workloads is None:
        workloads = workload_names()[:settings.get("REPRO_WORKLOADS")]
    length = length if length is not None else settings.get("REPRO_LENGTH")
    warmup = warmup if warmup is not None else settings.get("REPRO_WARMUP")
    (results,), _ = run_matrix(
        [config], workloads, length, warmup,
        cache=cache, max_workers=jobs, progress=progress,
        job_timeout=job_timeout, retries=retries, keep_going=keep_going,
        sampling=sampling,
    )
    return results


def suite_speedup(feature_results, baseline_results):
    """Per-category and overall geomean speedups plus per-workload ratios.

    Returns ``(per_workload, per_category, overall)``.  Workloads present
    on only one side (a keep-going run dropped the other cell) are skipped
    — a partial sweep still yields figures for every healthy pair.
    """
    per_workload = {}
    per_category_values = {}
    for name, result in feature_results.items():
        base = baseline_results.get(name)
        if base is None:
            continue
        ratio = speedup(result.ipc, base.ipc)
        per_workload[name] = ratio
        per_category_values.setdefault(result.category, []).append(ratio)
    per_category = {
        category: geomean(values)
        for category, values in sorted(per_category_values.items())
    }
    overall = geomean(list(per_workload.values()))
    return per_workload, per_category, overall


def mean_fraction(results, numerator_counter):
    """Average an RFP counter as a fraction of loads across results."""
    values = [r.rfp_fraction(numerator_counter) for r in results.values()]
    return sum(values) / len(values) if values else 0.0
