"""The repo's performance benchmark: a paper-figure sweep, cold and warm.

Three workloads run ``repro.sim.parallel.run_matrix`` over twelve suite
workloads (trace length 40000, warmup 20000); see README.md for why each
exists and which layer metric should move which end-to-end metric.

Every sweep is a fresh process (``sweep.py``) with private, empty
``REPRO_CACHE_DIR`` and ``REPRO_CHECKPOINT_DIR`` stores and no other
``REPRO_*`` setting except ``REPRO_JOBS``.  End-to-end metrics come from
untraced sweeps; per-layer metrics from one separate traced sweep.

Two ways to run it, from the repository root:

- a session: ``python benchmarks/perf/run.py [--runs 5] [--seed 1]`` runs
  every workload ``--runs`` times, interleaved, then one traced sweep per
  workload; prints every metric with its unit and the layer table, writes
  the session JSON (input of ``compare.py``) and appends a host-normalised
  record to ``benchmarks/perf/history.jsonl``;
- one run: ``python benchmarks/perf/run.py --workload W --seed S
  --seconds T --trace 0|1`` sweeps W until T seconds have passed (at least
  once) and prints one JSON line: end-to-end metrics, or with ``--trace 1``
  the per-layer metrics of an extra traced sweep.

Exit codes: 0 when every correctness check passed, 1 when one failed, 2
when the simulator sources are not next to the benchmark.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: Trace shape, pinned here so the benchmark's work never follows the
#: simulator's defaults.
LENGTH = 40000
WARMUP = 20000

#: Two workloads per paper category (both of the two Client workloads):
#: the ``random.Random(1)`` draw, in category order ISPEC06, ISPEC17,
#: FSPEC06, FSPEC17, Cloud, Client.  Pinned so every seed sweeps the same
#: work; the seed only permutes the order cells are submitted in.
NAMES = (
    "spec06_gcc", "spec06_omnetpp", "spec17_gcc", "spec17_xalancbmk",
    "spec06_zeusmp", "spec06_wrf", "spec17_blender", "spec17_nab",
    "memcached", "tpce", "sysmark", "geekbench",
)  # fmt: skip

#: The paper's Fig. 10 geomean RFP speedup (%), the accuracy reference.
PAPER_RFP_GAIN_PCT = 3.1

#: name -> (config set, sampled, REPRO_JOBS, starts from a warm store)
WORKLOADS = {
    "fig10-full": ("fig10", False, 1, False),
    "sweep-sampled-cold": ("sweep6", True, 1, False),
    "sweep-sampled-warm-j2": ("sweep6", True, 2, True),
}

#: Set-up is sampled at least this many times per run.
MIN_SETUPS = 5

#: Wall-clock budget of a single ``--workload`` run; it ends within 180 s.
RUN_BUDGET_S = 170.0


class CheckFailed(Exception):
    """A correctness check failed or a sweep process did not finish."""


def declared():
    """The metric declarations of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return bench["end_to_end"], bench["per_layer"]


class Bench(object):
    """One benchmark session: a work directory, a pristine checkpoint
    store (filled on first use) and the shape every sweep runs."""

    def __init__(self, names=NAMES, length=LENGTH, warmup=WARMUP, deadline=None):
        self.names = list(names)
        self.length = length
        self.warmup = warmup
        self.deadline = deadline
        self.work = os.path.join(HERE, ".work", "%d-%d" % (os.getpid(), time.time_ns()))
        os.makedirs(self.work)
        self._pristine = None
        self._serial = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()

    # -- sweep processes --------------------------------------------------

    def _launch(self, workload, mode, seed=1, spans=False, checkpoint_dir=None):
        """Run ``sweep.py`` in a fresh process with private stores; returns
        its output dict plus ``setup_s`` (launch to sweep start)."""
        kind, sampled, jobs, warm = WORKLOADS[workload]
        self._serial += 1
        base = os.path.join(self.work, "p%04d" % self._serial)
        os.makedirs(base)
        spec = {
            "mode": mode,
            "configs": kind,
            "sampled": sampled,
            "names": self.names,
            "length": self.length,
            "warmup": self.warmup,
            "seed": seed,
            "pristine": self.pristine() if warm and mode != "fill" else None,
            "spans_dir": base if spans else None,
            "out": os.path.join(base, "out.json"),
        }
        spec_path = os.path.join(base, "spec.json")
        with open(spec_path, "w") as handle:
            json.dump(spec, handle)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            # A fixed string-hash seed keeps dict layouts, and with them
            # the sweep's speed, the same from process to process.
            PYTHONHASHSEED="0",
            PYTHONPATH=SRC,
            REPRO_JOBS=str(jobs),
            REPRO_CACHE_DIR=os.path.join(base, "cache"),
            REPRO_CHECKPOINT_DIR=checkpoint_dir or os.path.join(base, "checkpoints"),
        )
        timeout = 600.0
        if self.deadline is not None:
            timeout = max(1.0, self.deadline - time.monotonic())
        with open(os.path.join(base, "stderr.txt"), "w+") as errors:
            launched = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "sweep.py"), spec_path],
                env=env,
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=errors,
                start_new_session=True,
            )
            try:
                code = proc.wait(timeout)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                # The sweep's own workers share its process group.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
            if code != 0:
                errors.seek(0)
                tail = errors.read()[-2000:]
                raise CheckFailed(
                    "%s %s sweep %s:\n%s"
                    % (workload, mode, "timed out" if code is None else "exited %d" % code, tail)
                )
        with open(spec["out"]) as handle:
            out = json.load(handle)
        out["setup_s"] = out["sweep_start"] - launched
        for store in ("cache", "checkpoints"):
            shutil.rmtree(os.path.join(base, store), ignore_errors=True)
        return out

    def pristine(self):
        """The warm workload's starting checkpoint store, filled once per
        session in its own process by the code under test."""
        if self._pristine is None:
            directory = os.path.join(self.work, "pristine")
            self._launch("sweep-sampled-cold", "fill", checkpoint_dir=directory)
            self._pristine = directory
        return self._pristine

    # -- one run ------------------------------------------------------------

    def run(self, workload, seed, seconds=0.0):
        """Sweep ``workload`` until ``seconds`` have passed (at least once),
        sample set-up at least :data:`MIN_SETUPS` times, check the outputs.

        Returns a dict with the run's end-to-end metrics (medians over its
        sweeps), job accounting, digest, model numbers and check errors.
        """
        sweeps = []
        until = time.monotonic() + seconds
        while not sweeps or time.monotonic() < until:
            sweeps.append(self._launch(workload, "sweep", seed))
        setups = [s["setup_s"] for s in sweeps]
        for _ in range(MIN_SETUPS - len(setups)):
            setups.append(self._launch(workload, "probe", seed)["setup_s"])
        errors = []
        for s in sweeps:
            errors.extend(sweep_errors(workload, s))
        digests = sorted({s["digest"] for s in sweeps})
        if len(digests) != 1:
            errors.append("%s: sweeps of one run disagree: %s" % (workload, digests))
        model = sweeps[0]["model"]
        return {
            "e2e": {
                "sweep_s": statistics.median(s["sweep_s"] for s in sweeps),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sweeps),
                "store_mb": statistics.median(s["store_mb"] for s in sweeps),
                "rfp_gain_err_pp": abs(model["model.rfp_gain_pct"] - PAPER_RFP_GAIN_PCT),
            },
            "attempted": sum(s["jobs_total"] for s in sweeps),
            "failed": sum(s["jobs_failed"] + s["jobs_aborted"] for s in sweeps),
            "digest": digests[0],
            "model": model,
            "errors": errors,
        }

    def traced(self, workload, seed, untraced_sweep_s, digest):
        """One traced sweep: its per-layer metrics and check errors."""
        out = self._launch(workload, "sweep", seed, spans=True)
        errors = sweep_errors(workload, out)
        if out["digest"] != digest:
            errors.append("%s: traced sweep digest differs from the untraced runs" % workload)
        layers = dict(out["layers"])
        layers.update(out["model"])
        layers["trace.overhead"] = out["sweep_s"] / untraced_sweep_s - 1.0
        return {"layers": layers, "sweep_s": out["sweep_s"], "missing": out["missing"]}, errors


def sweep_errors(workload, out):
    """Correctness checks on one sweep's accounting."""
    errors = []
    if out["jobs_simulated"] != out["expected_jobs"]:
        errors.append(
            "%s: %d jobs simulated, expected %d (silent cache hits?)"
            % (workload, out["jobs_simulated"], out["expected_jobs"])
        )
    if out["cache_hits"]:
        errors.append("%s: %d result-cache hits in a private store" % (workload, out["cache_hits"]))
    if out["jobs_failed"] or out["jobs_aborted"]:
        errors.append(
            "%s: %d jobs failed, %d aborted" % (workload, out["jobs_failed"], out["jobs_aborted"])
        )
    if out["cells"] != out["expected_cells"]:
        errors.append(
            "%s: %d of %d cells returned" % (workload, out["cells"], out["expected_cells"])
        )
    return errors


# -- one run (--workload) ------------------------------------------------------


def single_run(workload, seed, seconds, trace):
    end_to_end, per_layer = declared()
    with Bench(deadline=time.monotonic() + RUN_BUDGET_S) as bench:
        try:
            run = bench.run(workload, seed, seconds)
            errors = run["errors"]
            values = run["e2e"]
            declarations = end_to_end
            if trace:
                traced, traced_errors = bench.traced(
                    workload, seed, run["e2e"]["sweep_s"], run["digest"]
                )
                errors = errors + traced_errors
                values = traced["layers"]
                declarations = per_layer
        except CheckFailed as exc:
            print(str(exc), file=sys.stderr)
            return 1
    for error in errors:
        print("CHECK FAILED: " + error, file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declarations
        },
    }
    print(json.dumps(result))
    return 0 if not errors else 1


# -- a session ------------------------------------------------------------------


def calibrate():
    """Best of three timings of a fixed pure-Python loop (seconds)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1000000):
            acc = (acc + i * i) % 1000003
        best = min(best, time.perf_counter() - start)
    return best


def host_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {
        "rev": rev,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def session(runs=5, seed=1, seconds=0.0, names=NAMES, length=LENGTH, warmup=WARMUP):
    """Run every workload ``runs`` times, interleaved, then one traced sweep
    per workload; returns the session dict (see README.md)."""
    calib_before = calibrate()
    results = {w: {"runs": []} for w in WORKLOADS}
    errors = []
    with Bench(names, length, warmup) as bench:
        for _ in range(runs):
            for workload in WORKLOADS:
                run = bench.run(workload, seed, seconds)
                results[workload]["runs"].append(run)
                errors.extend(run["errors"])
        for workload in WORKLOADS:
            entry = results[workload]
            runs_ = entry.pop("runs")
            entry["e2e"] = {
                name: [r["e2e"][name] for r in runs_] for name in runs_[0]["e2e"]
            }
            entry["attempted"] = sum(r["attempted"] for r in runs_)
            entry["failed"] = sum(r["failed"] for r in runs_)
            entry["digest"] = runs_[0]["digest"]
            if len({r["digest"] for r in runs_}) != 1:
                errors.append("%s: runs disagree on the result digest" % workload)
            traced, traced_errors = bench.traced(
                workload, seed, statistics.median(entry["e2e"]["sweep_s"]), entry["digest"]
            )
            entry.update(traced)
            errors.extend(traced_errors)
    sampled = [w for w in WORKLOADS if WORKLOADS[w][1]]
    if len({results[w]["digest"] for w in sampled}) > 1:
        errors.append("sampled workloads disagree: restore or the executor changed results")
    calib_after = calibrate()
    info = host_info()
    info.update(
        seed=seed,
        runs=runs,
        calib_before_s=calib_before,
        calib_after_s=calib_after,
        workloads=results,
        errors=errors,
    )
    return info


def history_record(sess):
    """One host-normalised line of ``history.jsonl``."""
    calib = (sess["calib_before_s"] + sess["calib_after_s"]) / 2.0
    keys = ("rev", "cpu", "nproc", "python", "seed", "runs", "calib_before_s", "calib_after_s")
    record = {key: sess[key] for key in keys}
    record["time"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    record["workloads"] = {}
    for workload, entry in sess["workloads"].items():
        sweep_s = statistics.median(entry["e2e"]["sweep_s"])
        record["workloads"][workload] = {
            "sweep_s": sweep_s,
            "sweep_per_calib": sweep_s / calib,
            "digest": entry["digest"],
        }
    return record


def format_session(sess):
    """Every end-to-end metric (median, max, n) and the layer table."""
    end_to_end, per_layer = declared()
    lines = []
    for workload, entry in sess["workloads"].items():
        lines.append("== %s  (digest %s)" % (workload, entry["digest"][:16]))
        lines.append("  %-18s %-6s %12s %12s %3s" % ("metric", "unit", "median", "max", "n"))
        for d in end_to_end:
            values = entry["e2e"][d["name"]]
            lines.append(
                "  %-18s %-6s %12.6g %12.6g %3d"
                % (d["name"], d["unit"], statistics.median(values), max(values), len(values))
            )
        wall = entry["sweep_s"]
        lines.append("  layer table (traced sweep %.3f s):" % wall)
        for d in per_layer:
            value = entry["layers"][d["name"]]
            share = (
                "%6.1f%%" % (100.0 * value / wall) if d["unit"] == "s" and wall else ""
            )
            lines.append("    %-28s %-6s %14.6g %s" % (d["name"], d["unit"], value, share))
        if entry["missing"]:
            lines.append("    missing span targets: %s" % ", ".join(entry["missing"]))
    for error in sess["errors"]:
        lines.append("CHECK FAILED: " + error)
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=5, help="session runs per workload")
    parser.add_argument("--out", help="session JSON path (default benchmarks/perf/sessions/)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("run.py: no simulator sources at %s" % SRC, file=sys.stderr)
        return 2
    if args.workload:
        return single_run(args.workload, args.seed, args.seconds, args.trace)
    try:
        sess = session(runs=args.runs, seed=args.seed, seconds=args.seconds)
    except CheckFailed as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(format_session(sess))
    out = args.out or os.path.join(
        HERE, "sessions", "session-%s.json" % time.strftime("%Y%m%d-%H%M%S")
    )
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(sess, handle, indent=1, sort_keys=True)
    with open(os.path.join(HERE, "history.jsonl"), "a") as handle:
        handle.write(json.dumps(history_record(sess), sort_keys=True) + "\n")
    print("session written to %s" % out)
    return 0 if not sess["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
