"""Shared machinery for the per-figure/table benchmark harness.

Every benchmark regenerates one of the paper's tables or figures: it runs
(or reads from the on-disk result cache) the 65-workload suite under the
relevant configurations, prints the same rows/series the paper reports,
writes them to ``benchmarks/results/<name>.txt``, and asserts the *shape*
of the result (who wins, roughly by how much) — not absolute numbers,
since the substrate is this repo's simulator, not Intel's.

Suite runs fan uncached (workload, config) pairs out over the
:mod:`repro.sim.parallel` worker pool, so a cold-cache figure regeneration
scales with the core count.  Environment knobs: ``REPRO_WORKLOADS`` (int or
"all"), ``REPRO_LENGTH``, ``REPRO_WARMUP``, ``REPRO_JOBS`` (workers; 1 =
serial), ``REPRO_PROGRESS`` (stream per-job lines to stderr) — see
:mod:`repro.sim.settings`.
"""

import os

from repro.core.config import baseline
from repro.sim import settings
from repro.sim.experiments import mean_fraction, suite_speedup
from repro.sim.parallel import run_matrix
from repro.stats.report import format_table, geomean
from repro.workloads.suite import workload_names

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

RFP_ON = {"rfp": {"enabled": True}}


def rfp_baseline(**extra):
    return baseline(**{**RFP_ON, **extra})


def suite(config):
    """Cached (and parallel, see module docstring) run of the whole suite
    under ``config``."""
    return suite_matrix(config)[0]


def suite_matrix(*configs):
    """Run several configs through one shared worker pool.

    Prefer this over consecutive :func:`suite` calls in figures that sweep
    configurations: a single (config x workload) job matrix keeps every
    worker busy across config boundaries.  Returns one ``{workload:
    SimResult}`` dict per config, in argument order.
    """
    results, _ = run_matrix(
        list(configs),
        workload_names()[: settings.get("REPRO_WORKLOADS")],
        settings.get("REPRO_LENGTH"),
        settings.get("REPRO_WARMUP"),
    )
    return results


def emit(name, text):
    """Print a result block and persist it under benchmarks/results/."""
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name + ".txt"), "w") as handle:
        handle.write(text + "\n")


def speedup_block(title, feature_results, baseline_results):
    """Per-category + overall speedup table (the Fig. 10/12 format)."""
    per_wl, per_cat, overall = suite_speedup(feature_results, baseline_results)
    rows = [(cat, "%+.2f%%" % ((value - 1) * 100)) for cat, value in per_cat.items()]
    rows.append(("ALL (geomean)", "%+.2f%%" % ((overall - 1) * 100)))
    return per_wl, per_cat, overall, format_table(
        ["category", "speedup"], rows, title=title
    )


def pct(x):
    return "%.1f%%" % (100.0 * x)
