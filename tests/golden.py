"""Golden result digests: the regression net for the detailed core.

Every cell of a fixed (mode x config x workload) grid is simulated through
:func:`repro.sim.parallel.run_matrix` with private, empty result and
checkpoint stores, and its result is reduced to the sha256 of its
canonical JSON (``json.dumps(result.data, sort_keys=True,
separators=(",", ":"))``, the form the perf harness hashes).  The
committed digests in ``golden_digests.json`` pin those bytes: a change
that moves any simulated number shows up as a named cell.

Two grids, one per cost tier:

- ``quick``: 4 workloads at length 8000 / warmup 1000 (32 cells), plus
  the sha256 of the JSONL event stream (a
  :class:`~repro.obs.tracer.Tracer`'s sorted events, the bytes ``repro
  trace --format jsonl -o`` writes) of two of its cells.  Checked by ``tests/test_golden.py``.
- ``suite``: all 65 workloads at length 40000 / warmup 20000 (520
  cells).  Checked in CI.

Each grid runs 4 configs (the Fig. 10 pair, Fig. 15's composite VP and
Fig. 12's up-scaled core with RFP) in 2 modes: the full post-warmup
window, and interval sampling with K=4, N=800.  VP configs always run
the full window, so their two modes agree.

Usage, from the repository root::

    PYTHONPATH=src python tests/golden.py --check quick
    PYTHONPATH=src python tests/golden.py --check suite --jobs 2
    PYTHONPATH=src python tests/golden.py --write suite --jobs 2

``--check`` exits 1 and names every differing digest.  ``--write``
replaces the grid's digests in the data file; a change that does so
must say in its description which numbers moved and why.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from unittest import mock

DATA_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")

#: Interval-sampling plan of the sampled mode.
SAMPLING = {"samples": 4, "interval_length": 800}

MODES = (("full", None), ("sampled", SAMPLING))

QUICK_WORKLOADS = ("spec06_mcf", "spec06_namd", "spec17_xz", "tpce")

#: Configs whose traced event stream is pinned (on the first quick workload).
TRACED_CONFIGS = ("rfp", "vp-composite")


def grid(name):
    """``(workloads, length, warmup)`` of the named grid."""
    from repro.workloads.suite import workload_names

    if name == "quick":
        return QUICK_WORKLOADS, 8000, 1000
    if name == "suite":
        return tuple(workload_names()), 40000, 20000
    raise ValueError("unknown grid %r" % (name,))


def configs():
    from repro.core.config import baseline, baseline_2x

    rfp = {"enabled": True}
    return [
        baseline(name="baseline"),
        baseline(name="rfp", rfp=rfp),
        baseline(name="vp-composite", vp={"enabled": True, "kind": "composite"}),
        baseline_2x(name="baseline-2x-rfp", rfp=rfp),
    ]


def sha256_json(data):
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_digests(name, jobs=1):
    """``{"<mode>/<config>/<workload>": sha256}`` for every cell of a grid."""
    from repro.sim.cache import ResultCache
    from repro.sim.parallel import run_matrix

    names, length, warmup = grid(name)
    cfgs = configs()
    out = {}
    for mode, sampling in MODES:
        with tempfile.TemporaryDirectory(prefix="repro-golden-") as tmp:
            with mock.patch.dict(os.environ, REPRO_CHECKPOINT_DIR=os.path.join(tmp, "ckpt")):
                per_config, report = run_matrix(
                    cfgs,
                    names,
                    length,
                    warmup,
                    cache=ResultCache(os.path.join(tmp, "results")),
                    max_workers=jobs,
                    sampling=sampling,
                )
        if report.jobs_failed:
            raise RuntimeError("%d %s-grid jobs failed" % (report.jobs_failed, name))
        for config, results in zip(cfgs, per_config):
            for workload in names:
                key = "%s/%s/%s" % (mode, config.name, workload)
                out[key] = sha256_json(results[workload].data)
    return out


def traced_digests():
    """sha256 of the JSONL event stream of the traced quick cells."""
    from repro.obs.export import dump_jsonl, sort_events
    from repro.obs.tracer import Tracer
    from repro.sim.runner import simulate

    names, length, warmup = grid("quick")
    by_name = {config.name: config for config in configs()}
    out = {}
    for config_name in TRACED_CONFIGS:
        tracer = Tracer()
        simulate(names[0], by_name[config_name], length=length, warmup=warmup,
                 tracer=tracer)
        text = dump_jsonl(sort_events(tracer.events))
        out["%s/%s" % (config_name, names[0])] = hashlib.sha256(
            text.encode("utf-8")).hexdigest()
    return out


def compute(name, jobs=1):
    """Every digest the data file pins for a grid."""
    digests = {"cells": cell_digests(name, jobs)}
    if name == "quick":
        digests["traced"] = traced_digests()
    return digests


def load():
    with open(DATA_PATH) as handle:
        return json.load(handle)


def mismatches(expected, actual):
    """One line per digest that differs or is missing on either side."""
    lines = []
    for section in sorted(set(expected) | set(actual)):
        want = expected.get(section, {})
        got = actual.get(section, {})
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                lines.append(
                    "%s %s: expected %s, got %s"
                    % (section, key, want.get(key, "<none>"), got.get(key, "<none>"))
                )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="Check or write the golden result digests.")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", metavar="GRID", choices=("quick", "suite"))
    action.add_argument("--write", metavar="GRID", choices=("quick", "suite"))
    parser.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    args = parser.parse_args(argv)
    name = args.check or args.write
    actual = compute(name, args.jobs)
    if args.write:
        data = load() if os.path.exists(DATA_PATH) else {}
        data[name] = actual
        with open(DATA_PATH, "w") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("wrote %d %s-grid cell digests to %s" % (len(actual["cells"]), name, DATA_PATH))
        return 0
    bad = mismatches(load()[name], actual)
    for line in bad:
        print(line)
    total = sum(len(section) for section in actual.values())
    print("%s grid: %d of %d digests match" % (name, total - len(bad), total))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
