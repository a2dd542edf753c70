"""One benchmark sweep, run as a fresh process by ``run.py``.

Usage: ``python sweep.py SPEC.json`` with the private stores already named
in ``REPRO_CACHE_DIR`` / ``REPRO_CHECKPOINT_DIR`` and the worker count in
``REPRO_JOBS``.  SPEC names the config set, the workloads, the trace
shape, the job-order seed and the mode:

- ``sweep``: copy the pristine checkpoint store in (if any), then call
  :func:`repro.sim.parallel.run_matrix` once and write the sweep's wall
  time, result digest, stores, memory and model numbers to ``out``;
  with ``spans_dir`` set, the sweep is traced (see ``spans.py``).
- ``probe``: do the same set-up, then stop where the sweep would start.
- ``fill``: write the sampled sweep's checkpoints into a pristine store.

Every mode writes ``sweep_start`` (``time.monotonic()``, the system-wide
``CLOCK_MONOTONIC``) so the parent can time set-up from process launch.
"""

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

#: Sampling plan of the sampled workloads, pinned here rather than read
#: from the simulator's defaults so the benchmark's work stays fixed.
SAMPLING = {"samples": 4, "interval_length": 800}


def build_configs(kind):
    """``fig10``: baseline and baseline with RFP.  ``sweep6``: those plus
    the Fig. 14 dedicated-port, Fig. 18 PT-size and Fig. 12 up-scaled-core
    points — three warm fingerprints per workload."""
    from repro.core.config import baseline, baseline_2x

    rfp = {"enabled": True}
    configs = [baseline(name="baseline"), baseline(name="rfp", rfp=rfp)]
    if kind == "sweep6":
        configs += [
            baseline(name="rfp-ded2", rfp=rfp, rfp_dedicated_ports=2),
            baseline(name="rfp-pt256", rfp={"enabled": True, "pt_entries": 256}),
            baseline_2x(name="baseline-2x"),
            baseline_2x(name="baseline-2x-rfp", rfp=rfp),
        ]
    elif kind != "fig10":
        raise ValueError("unknown config set %r" % (kind,))
    return configs


def _dir_bytes(path):
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def digest(per_config, configs):
    """sha256 of the canonical JSON of every cell's result."""
    cells = {
        config.name: {name: result.data for name, result in results.items()}
        for config, results in zip(configs, per_config)
    }
    text = json.dumps(cells, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def model_metrics(per_config, configs, names):
    """Simulated-machine numbers: identical for any simulator-only change."""
    from repro.stats.report import geomean

    by_name = {config.name: results for config, results in zip(configs, per_config)}
    # Sorted, so float sums do not depend on the seed's submission order.
    cells = sorted(
        (result.data for results in per_config for result in results.values()),
        key=lambda d: (d["config"], d["workload"]),
    )
    base, rfp = by_name["baseline"], by_name["rfp"]
    gain_pct = (geomean([rfp[n].ipc / base[n].ipc for n in names]) - 1.0) * 100.0
    halfwidths = [
        d["ipc_ci"]["relative_half_width"]
        for d in cells
        if d.get("ipc_ci") and d["ipc_ci"]["relative_half_width"] is not None
    ]
    return {
        "model.cycles": sum(d["cycles"] for d in cells),
        "model.instructions": sum(d["instructions"] for d in cells),
        "model.ipc_geomean": geomean([d["ipc"] for d in cells]),
        "model.rfp_coverage": statistics.mean(
            rfp[n].data["rfp"]["useful"] / rfp[n].data["stats"]["loads"] for n in names
        ),
        "model.rfp_gain_pct": gain_pct,
        "model.idle_skipped_cycles": sum(d.get("idle_skipped_cycles", 0) for d in cells),
        "model.ci_rel_halfwidth": statistics.median(halfwidths) if halfwidths else 0.0,
    }


def fill(spec):
    """Write every checkpoint the sampled sweep restores, one warm pass per
    (workload, warm fingerprint), into ``REPRO_CHECKPOINT_DIR``."""
    from repro.sim.checkpoint import CheckpointStore, ensure_checkpoints
    from repro.sim.sampling import SamplingPlan

    store = CheckpointStore(os.environ["REPRO_CHECKPOINT_DIR"])
    for config in build_configs(spec["configs"]):
        plan = SamplingPlan(config, spec["length"], spec["warmup"], SAMPLING)
        for name in spec["names"]:
            ensure_checkpoints(
                None, name, config, spec["length"], plan.checkpoint_positions(), store
            )


def sweep(spec):
    from repro.sim.parallel import run_matrix

    rng = random.Random(spec["seed"])
    configs = build_configs(spec["configs"])
    names = list(spec["names"])
    # The seed fixes the order cells are submitted in; results must not
    # depend on it.
    rng.shuffle(configs)
    rng.shuffle(names)
    sampling = SAMPLING if spec["sampled"] else None
    if spec.get("pristine"):
        shutil.copytree(spec["pristine"], os.environ["REPRO_CHECKPOINT_DIR"])
    recorder = None
    if spec.get("spans_dir"):
        from spans import SpanRecorder

        recorder = SpanRecorder(spec["spans_dir"])
        recorder.install()
    start = time.monotonic()
    if spec["mode"] == "probe":
        return {"sweep_start": start}
    begin = time.perf_counter()
    per_config, report = run_matrix(
        configs, names, spec["length"], spec["warmup"], sampling=sampling
    )
    wall = time.perf_counter() - begin
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out = {
        "sweep_start": start,
        "sweep_s": wall,
        "digest": digest(per_config, configs),
        "cells": sum(len(results) for results in per_config),
        "expected_cells": len(configs) * len(names),
        "expected_jobs": len(configs) * len(names) * (SAMPLING["samples"] if sampling else 1),
        "jobs_total": report.jobs_total,
        "jobs_simulated": report.jobs_simulated,
        "cache_hits": report.cache_hits,
        "jobs_failed": report.jobs_failed,
        "jobs_aborted": sum(1 for r in report.failures if r["classification"] == "aborted"),
        "workers": report.workers,
        "peak_rss_mb": rss_kb / 1024.0,
        "store_mb": (
            _dir_bytes(os.environ["REPRO_CACHE_DIR"])
            + _dir_bytes(os.environ["REPRO_CHECKPOINT_DIR"])
        )
        / 1e6,
        "model": model_metrics(per_config, configs, spec["names"]),
    }
    if recorder is not None:
        from spans import layer_metrics

        recorder.merge_dir()
        out["layers"] = layer_metrics(recorder, wall, max(1, report.workers))
        out["missing"] = recorder.missing
    return out


def main(argv):
    with open(argv[1]) as handle:
        spec = json.load(handle)
    if spec["mode"] == "fill":
        fill(spec)
        out = {"sweep_start": time.monotonic()}
    else:
        out = sweep(spec)
    with open(spec["out"], "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
