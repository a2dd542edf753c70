"""cProfile one config's two-speed runs over suite workloads.

A thin cProfile driver around :func:`repro.sim.runner.simulate` for engine
work: each profiled run functionally warms the first ``--warmup``
instructions (``FunctionalWarmer.warm``) and simulates the rest on the
detailed core (``OOOCore.run``), with no result cache in the way.  Traces
are built before profiling starts, so trace generation is not in the
profile.  For a single run, ``python -m cProfile -o FILE -m repro run
<workload> ...`` gives the same report; this script exists for
multi-workload aggregate profiles.

Usage::

    PYTHONPATH=src python benchmarks/profile_core.py
    PYTHONPATH=src python benchmarks/profile_core.py \
        --workloads spec06_mcf spec06_gcc --length 40000 --warmup 20000 \
        --sort tottime --limit 25 --out core.pstats

The first (unprofiled) pass builds the traces and warms allocator state so
the profile measures the simulation loop, not trace generation.
"""

import argparse
import cProfile
import pstats
import sys

from repro.core.config import baseline, baseline_2x
from repro.sim.runner import simulate
from repro.workloads.suite import build_workload

DEFAULT_WORKLOADS = ["spec06_perlbench", "spec06_bzip2", "spec06_gcc",
                     "spec06_mcf"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="cProfile the detailed core over suite workloads")
    parser.add_argument("--workloads", nargs="+", default=DEFAULT_WORKLOADS,
                        help="suite workload names (default: %s)"
                             % " ".join(DEFAULT_WORKLOADS))
    parser.add_argument("--length", type=int, default=40000)
    parser.add_argument("--warmup", type=int, default=20000)
    parser.add_argument("--core-2x", action="store_true",
                        help="profile the up-scaled Baseline-2x core")
    parser.add_argument("--rfp", action="store_true", help="enable RFP")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"],
                        help="pstats sort key (default cumulative)")
    parser.add_argument("--limit", type=int, default=30,
                        help="rows to print (default 30)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="dump raw stats to FILE (snakeviz/pstats "
                             "compatible)")
    args = parser.parse_args(argv)

    factory = baseline_2x if args.core_2x else baseline
    config = factory(rfp={"enabled": True}) if args.rfp else factory()
    traces = [build_workload(name, length=args.length)
              for name in args.workloads]

    # Untimed priming pass: trace generation above plus one simulation so
    # lazily built structures (opcode tables, static-instruction
    # snapshots) are charged to nobody.
    simulate(traces[0], config, length=args.length, warmup=args.warmup)

    profiler = cProfile.Profile()
    profiler.enable()
    for trace in traces:
        simulate(trace, config, length=args.length, warmup=args.warmup)
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.limit)
    if args.out:
        stats.dump_stats(args.out)
        print("raw profile -> %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
