"""Command-line interface: ``python -m repro <command>``.

Commands:
    run <workload>        simulate one workload, print IPC and RFP stats
    trace <workload>      simulate with event tracing, print pipeline view
    suite                 run a suite slice, print per-category speedups
    workloads             list the 65-workload suite
    storage               print Table 1's storage arithmetic
    params                print Table 2's core parameters
    cache-stats           report the on-disk result cache's size
    cache-clear           delete every cached simulation result
    checkpoint            manage the warm-state checkpoint store
    chaos                 seeded fault-injection campaign, byte-identity bar
"""

import argparse
import json
import os
import sys

from repro.core.config import RFPConfig, baseline, baseline_2x
from repro.obs.export import (
    dump_jsonl, pipeline_view, sort_events, window_events, write_jsonl,
)
from repro.obs.tracer import Tracer, parse_cycle_range
from repro.rfp.storage import storage_report
from repro.sim.cache import default_cache
from repro.sim.checkpoint import CheckpointStore
from repro.sim.defaults import DEFAULT_LENGTH, DEFAULT_WARMUP
from repro.sim.experiments import suite_speedup
from repro.sim.parallel import (
    MANIFEST_VERSION,
    format_failures,
    run_matrix,
)
from repro.sim.runner import simulate
from repro.sim.sampling import sampling_applies
from repro.stats.report import format_ipc_ci, format_table
from repro.workloads.suite import suite_table, workload_names


def _config_from_args(args):
    check = getattr(args, "check_invariants", None)
    if check is not None:
        # Through the environment, not a parameter: parallel workers and
        # every simulate() call in the process inherit the knob.
        os.environ["REPRO_CHECK_INVARIANTS"] = str(check)
    factory = baseline_2x if getattr(args, "core_2x", False) else baseline
    overrides = {}
    if getattr(args, "rfp", False):
        overrides["rfp"] = {"enabled": True}
    if getattr(args, "vp", None):
        overrides["vp"] = {"enabled": True, "kind": args.vp}
    if getattr(args, "fast_forward", None) is not None:
        overrides["fast_forward"] = args.fast_forward
    return factory(**overrides)


def _sampling_from_args(args):
    """The interval-sampling spec requested by --sample, or None."""
    if getattr(args, "sample", None) is None:
        return None
    spec = {"samples": args.sample}
    if getattr(args, "interval_length", None) is not None:
        spec["interval_length"] = args.interval_length
    if getattr(args, "confidence", None) is not None:
        spec["confidence"] = args.confidence
    return spec


def cmd_run(args):
    config = _config_from_args(args)
    sampling = _sampling_from_args(args)

    if sampling is not None:
        # A sampled cell is a one-cell sweep: result cache, checkpoint
        # store and REPRO_JOBS, exactly as in `repro suite --sample`.
        (results,), _report = run_matrix(
            [config], [args.workload], args.length, args.warmup,
            sampling=sampling)
        result = results[args.workload]
    else:
        result = simulate(args.workload, config, length=args.length,
                          warmup=args.warmup)
    rows = [
        ("workload", result.workload),
        ("category", result.category),
        ("config", config.name + (" +RFP" if args.rfp else "")
         + (" +VP:%s" % args.vp if args.vp else "")),
        ("IPC", format_ipc_ci(result.data)),
        ("cycles", str(result.data["cycles"])),
        ("instructions", str(result.data["instructions"])),
    ]
    if result.rfp is not None:
        rows += [
            ("RFP injected", "%.1f%% of loads" % (100 * result.rfp_fraction("injected"))),
            ("RFP executed", "%.1f%% of loads" % (100 * result.rfp_fraction("executed"))),
            ("RFP useful", "%.1f%% of loads" % (100 * result.coverage)),
        ]
    print(format_table(["metric", "value"], rows, title="simulation result"))
    return 0


def cmd_trace(args):
    config = _config_from_args(args)
    try:
        cycle_range = parse_cycle_range(args.cycles or "")
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    # Collect the full event stream and window at render time, so the
    # pipeline view can still label rows whose rename fell outside the
    # requested cycle window.
    tracer = Tracer(loads_only=(args.filter == "loads"))
    result = simulate(args.workload, config, length=args.length,
                      warmup=args.warmup, tracer=tracer)
    events = sort_events(tracer.events)
    if args.format == "jsonl":
        events = window_events(events, cycle_range)
        text = dump_jsonl(events)
    else:
        text = pipeline_view(events, cycle_range=cycle_range)
    if args.out:
        if args.format == "jsonl":
            write_jsonl(events, args.out)
        else:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        print("%d events -> %s" % (len(events), args.out))
    else:
        print(text)
    obs = result.data.get("obs", {})
    load_use = obs.get("histograms", {}).get("load_to_use_latency")
    if load_use and load_use.get("count"):
        print("load-to-use latency: mean %.1f, p50 %d, p99 %d cycles"
              % (load_use["mean"], load_use["p50"], load_use["p99"]),
              file=sys.stderr)
    return 0


def cmd_suite(args):
    config = _config_from_args(args)
    sampling = _sampling_from_args(args)
    names = workload_names()[: args.num] if args.num else workload_names()
    # Both sides of the ratio are measured the same way (--ff/--no-ff).  A
    # feature config sampling refuses (VP) runs its full window in full
    # detail, so then the baseline does too.
    split = sampling_applies(config)
    if not split:
        sampling = None
    base_config = (baseline_2x if args.core_2x else baseline)(
        fast_forward=config.fast_forward and split)
    print("Running %s workloads under %s..."
          % (args.num or "all", config.name))
    # One engine over the full (config x workload) matrix: the baseline and
    # feature runs share workers instead of draining sequentially.
    (base, feature), report = run_matrix(
        [base_config, config], names, args.length, args.warmup,
        max_workers=args.jobs, job_timeout=args.job_timeout,
        retries=args.retries, keep_going=args.keep_going,
        sampling=sampling,
    )
    _, per_cat, overall = suite_speedup(feature, base)
    rows = [(cat, "%+.2f%%" % ((v - 1) * 100)) for cat, v in per_cat.items()]
    if per_cat:
        rows.append(("ALL (geomean)", "%+.2f%%" % ((overall - 1) * 100)))
    print(format_table(["category", "speedup vs baseline"], rows))
    if sampling is not None:
        ipc_rows = [
            (name, format_ipc_ci(base[name].data), format_ipc_ci(feature[name].data))
            for name in names if name in base and name in feature
        ]
        print(format_table(["workload", "baseline IPC", "%s IPC" % config.name],
                           ipc_rows, title="sampled IPC (mean ± CI)"))
    print(report.format())
    if args.resume:
        print("resume: %d job(s) served from the cache, %d simulated"
              % (report.cache_hits, report.jobs_simulated))
    if report.failures:
        print(format_failures(report.failures), file=sys.stderr)
    if args.out:
        # Stable per-workload dump: the CI determinism job diffs the file
        # produced by --jobs 1 against --jobs 4 byte for byte.  Failed
        # cells (keep-going) are simply absent from their config's map;
        # the manifest names them.  A healthy run always writes
        # ``"failures": []`` so the bytes stay deterministic.
        payload = {
            "baseline": {name: base[name].as_dict()
                         for name in names if name in base},
            "feature": {name: feature[name].as_dict()
                        for name in names if name in feature},
            "failures": report.failures,
            "manifest_version": MANIFEST_VERSION,
        }
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.out)
    return 3 if report.jobs_failed else 0


def _store_rows(stats):
    """The rows ``cache-stats`` and ``checkpoint stats`` share, from a
    store's ``stats()``.

    ``stats()`` validates every entry and evicts corrupt ones first, so
    the entries/size rows are post-eviction totals — a corrupt entry
    shows up under "corrupt evicted", never in both.
    """
    return [
        ("directory", stats["directory"]),
        ("entries", str(stats["entries"])),
        ("size", "%.1f KB" % (stats["bytes"] / 1024.0)),
        ("corrupt evicted", str(stats["corrupt_evicted"])),
    ]


def cmd_cache_stats(_args):
    rows = _store_rows(default_cache().stats())
    print(format_table(["metric", "value"], rows,
                       title="result cache"))
    return 0


def cmd_cache_clear(_args):
    removed = default_cache().clear()
    print("removed %d cached result%s" % (removed, "" if removed == 1 else "s"))
    return 0


def cmd_checkpoint(args):
    store = CheckpointStore()
    if args.action == "list":
        paths = store.entry_paths()
        for path in paths:
            name = os.path.basename(path)[: -len(store.SUFFIX)]
            print("%s  %.1f KB" % (name, os.path.getsize(path) / 1024.0))
        print("%d checkpoint%s in %s"
              % (len(paths), "" if len(paths) == 1 else "s", store.directory))
    elif args.action == "stats":
        stats = store.stats()
        rows = _store_rows(stats) + [
            ("%s parts" % label, "%d (%.1f KB)" % (
                stats[kind + "_entries"], stats[kind + "_bytes"] / 1024.0))
            for kind, label in (("hierarchy", "hierarchy"), ("rfp", "RFP"))
        ]
        print(format_table(["metric", "value"], rows,
                           title="warm-state checkpoint store"))
    elif args.action == "clear":
        removed = store.clear()
        print("removed %d checkpoint%s" % (removed, "" if removed == 1 else "s"))
    elif args.action == "prune":
        if args.max_bytes is None:
            print("error: prune requires --max-bytes", file=sys.stderr)
            return 2
        removed = store.prune(args.max_bytes)
        print("pruned %d checkpoint%s (LRU) to fit %d bytes"
              % (removed, "" if removed == 1 else "s", args.max_bytes))
    return 0


def cmd_chaos(args):
    from repro.sim import chaos

    if args.sweep_child:
        return chaos.run_sweep(args)
    if args.seed is None:
        args.seed = chaos.DEFAULT_SEED
    return chaos.run_campaign(args)


def cmd_workloads(_args):
    rows = [(category, str(count), names)
            for category, count, names in suite_table()]
    print(format_table(["category", "count", "workloads"], rows,
                       title="Table 3: the 65-workload suite"))
    return 0


def cmd_storage(args):
    report = storage_report(RFPConfig(pt_entries=args.pt_entries))
    rows = [(name, fields, "%d b" % bits) for name, fields, bits in report["rows"]]
    rows.append(("PT total", "", "%.2f KB" % report["pt_kilobytes"]))
    rows.append(("everything", "", "%.2f KB" % report["total_kilobytes"]))
    print(format_table(["structure", "fields", "storage"], rows,
                       title="Table 1: RFP storage"))
    return 0


def cmd_params(args):
    config = baseline_2x() if args.core_2x else baseline()
    print(format_table(["parameter", "value"], config.table2_rows(),
                       title="Table 2: %s core parameters" % config.name))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sim_args(p):
        p.add_argument("--length", type=int, default=DEFAULT_LENGTH,
                       help="trace length in instructions")
        p.add_argument("--warmup", type=int, default=DEFAULT_WARMUP,
                       help="instructions excluded from measurement")
        p.add_argument("--rfp", action="store_true", help="enable RFP")
        p.add_argument("--vp", choices=["eves", "dlvp", "composite", "epp"],
                       help="enable a value predictor")
        p.add_argument("--core-2x", action="store_true",
                       help="use the up-scaled Baseline-2x core")
        p.add_argument("--ff", dest="fast_forward", action="store_true",
                       default=None,
                       help="functionally fast-forward the warmup window "
                            "(two-speed simulation; default unless "
                            "REPRO_FF=0)")
        p.add_argument("--no-ff", dest="fast_forward", action="store_false",
                       help="simulate the warmup window in full detail")
        p.add_argument("--check-invariants", nargs="?", const=64, type=int,
                       default=None, metavar="K",
                       help="sweep the microarchitectural invariant net "
                            "every K cycles (default 64; 0 disables)")

    def add_sampling_args(p):
        p.add_argument("--sample", type=int, default=None, metavar="K",
                       help="SMARTS-style interval sampling: measure K "
                            "short detailed intervals (warm state restored "
                            "from the checkpoint store) and report mean "
                            "IPC ± CI instead of one long detailed window")
        p.add_argument("--interval-length", type=int, default=None,
                       metavar="N",
                       help="measured instructions per interval (default: "
                            "the full inter-interval stride)")
        p.add_argument("--confidence", type=float, default=None,
                       choices=[0.90, 0.95, 0.99],
                       help="confidence level for the IPC CI (default 0.95)")

    run_parser = sub.add_parser("run", help="simulate one workload")
    run_parser.add_argument("workload")
    add_sim_args(run_parser)
    add_sampling_args(run_parser)
    run_parser.set_defaults(func=cmd_run)

    trace_parser = sub.add_parser(
        "trace", help="simulate one workload with event tracing")
    trace_parser.add_argument("workload")
    trace_parser.add_argument("--cycles", default=None, metavar="A:B",
                              help="restrict events to a cycle window "
                                   "(either end optional)")
    trace_parser.add_argument("--filter", choices=["loads"], default=None,
                              help="per-instruction events for loads only")
    trace_parser.add_argument("--format", choices=["pipeline", "jsonl"],
                              default="pipeline",
                              help="pipeline text view or raw JSONL events")
    trace_parser.add_argument("-o", "--out", default=None,
                              help="write to a file instead of stdout")
    add_sim_args(trace_parser)
    trace_parser.set_defaults(func=cmd_trace)

    suite_parser = sub.add_parser("suite", help="run a suite slice")
    suite_parser.add_argument("-n", "--num", type=int, default=None,
                              help="only the first N workloads")
    suite_parser.add_argument("-j", "--jobs", type=int, default=None,
                              help="worker processes: above 1, a supervised "
                                   "pool of long-lived shards (default: "
                                   "REPRO_JOBS or the CPU count)")
    suite_parser.add_argument("--out", default=None,
                              help="write per-workload result JSON to a file")
    suite_parser.add_argument("--keep-going", action="store_true",
                              help="record terminal job failures in a "
                                   "manifest and finish the rest of the "
                                   "matrix (exit code 3 when any job "
                                   "failed) instead of aborting")
    suite_parser.add_argument("--resume", action="store_true",
                              help="report how much of the matrix was "
                                   "served from the cache — with the "
                                   "incremental commit this makes a rerun "
                                   "after an interruption simulate only "
                                   "the unfinished jobs")
    suite_parser.add_argument("--job-timeout", type=float, default=None,
                              metavar="SECONDS",
                              help="watchdog deadline per job attempt "
                                   "(default derived from --length; 0 "
                                   "disables)")
    suite_parser.add_argument("--retries", type=int, default=None,
                              metavar="N",
                              help="retries for crashed or hung jobs "
                                   "(default REPRO_JOB_RETRIES or 2)")
    add_sim_args(suite_parser)
    add_sampling_args(suite_parser)
    suite_parser.set_defaults(func=cmd_suite)

    chaos_parser = sub.add_parser(
        "chaos", help="seeded fault-injection campaign over a sharded "
                      "sweep; asserts byte-identical convergence")
    chaos_parser.add_argument("--seed", type=int, default=None,
                              help="campaign seed (default: chaos module's "
                                   "pinned DEFAULT_SEED)")
    chaos_parser.add_argument("--dir", default="benchmarks/.chaos",
                              help="campaign working directory")
    chaos_parser.add_argument("--fresh", action="store_true",
                              help="delete the campaign directory first")
    chaos_parser.add_argument("-n", "--num", type=int, default=8,
                              help="workloads in the sweep (x 3 configs)")
    chaos_parser.add_argument("--shards", type=int, default=3,
                              help="shard-pool width of every sweep launch")
    chaos_parser.add_argument("--kills", type=int, default=3,
                              help="kill_shard launches")
    chaos_parser.add_argument("--hangs", type=int, default=1,
                              help="stop_shard launches (a SIGSTOPped "
                                   "busy shard the watchdog must catch)")
    chaos_parser.add_argument("--sigkills", type=int, default=1,
                              help="mid-write SIGKILL launches")
    chaos_parser.add_argument("--length", type=int, default=6000)
    chaos_parser.add_argument("--warmup", type=int, default=3000)
    chaos_parser.add_argument("--launch-timeout", type=float, default=300,
                              metavar="SECONDS",
                              help="hard deadline per launch; a launch "
                                   "that neither exits nor dies by then "
                                   "fails the campaign")
    chaos_parser.add_argument("--sample", type=int, default=2,
                              help="interval samples per cell (exercises "
                                   "the checkpoint store; 0 disables)")
    chaos_parser.add_argument("--out", default=None, help=argparse.SUPPRESS)
    chaos_parser.add_argument("--sweep-child", action="store_true",
                              help=argparse.SUPPRESS)
    chaos_parser.set_defaults(func=cmd_chaos)

    cache_stats_parser = sub.add_parser(
        "cache-stats", help="report the result cache's on-disk size")
    cache_stats_parser.set_defaults(func=cmd_cache_stats)

    cache_clear_parser = sub.add_parser(
        "cache-clear", help="delete every cached simulation result")
    cache_clear_parser.set_defaults(func=cmd_cache_clear)

    checkpoint_parser = sub.add_parser(
        "checkpoint", help="manage the warm-state checkpoint store")
    checkpoint_parser.add_argument(
        "action", choices=["list", "stats", "clear", "prune"],
        help="list entries, print store stats, delete everything, or "
             "LRU-evict down to --max-bytes")
    checkpoint_parser.add_argument(
        "--max-bytes", type=int, default=None,
        help="size budget for prune (least-recently-used entries go first)")
    checkpoint_parser.set_defaults(func=cmd_checkpoint)

    wl_parser = sub.add_parser("workloads", help="list the suite")
    wl_parser.set_defaults(func=cmd_workloads)

    storage_parser = sub.add_parser("storage", help="Table 1 storage")
    storage_parser.add_argument("--pt-entries", type=int, default=1024)
    storage_parser.set_defaults(func=cmd_storage)

    params_parser = sub.add_parser("params", help="Table 2 parameters")
    params_parser.add_argument("--core-2x", action="store_true")
    params_parser.set_defaults(func=cmd_params)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
