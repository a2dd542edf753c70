"""Shared experiment arithmetic for the CLI and the benchmark harness.

Sweeps themselves run through :func:`repro.sim.parallel.run_matrix`; this
module folds their ``{workload: SimResult}`` maps into the paper's
speedup and fraction summaries.
"""

from repro.stats.report import geomean, speedup


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
