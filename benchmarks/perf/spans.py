"""Span recording for the traced benchmark run, from outside the simulator.

The traced run replaces a fixed list of module- and class-level callables
(:data:`TARGETS`) with thin wrappers that add their ``perf_counter_ns``
duration to a per-name span: call count, total time, time covered by
wrapped callees, and the name of the first caller span.  A span's self
time is its total minus its children; a layer's ``_s`` metric is that
self time in host seconds.  Nothing under ``src/`` is modified.

Forked worker processes inherit the wrappers.  The job wrapper
(``repro.sim.parallel._run_job``) notices it runs in a child and appends
the job's span deltas as one JSON line to ``<spans_dir>/spans-<pid>.jsonl``;
the sweep process merges those files after the sweep (:meth:`merge_dir`).

A target that no longer exists (an engine deleted by a later change) is
reported as missing with a warning and its metrics read 0; the untraced
runs never import this module.
"""

import importlib
import json
import math
import os
import statistics
import time
import warnings

_clock = time.perf_counter_ns

#: (module, attribute path, span name, hook).  Hooks add work counters
#: around a call; see :meth:`SpanRecorder.install`.
TARGETS = (
    ("repro.workloads.suite", "generate_trace", "workloads.trace_gen", None),
    ("repro.emu.warmup", "FunctionalWarmer.warm", "emu.warm", "warm"),
    ("repro.emu.batch", "warm_batch", "emu.batch_warm", None),
    ("repro.sim.checkpoint", "capture", "checkpoint.capture", None),
    ("repro.sim.checkpoint", "restore", "checkpoint.restore", None),
    ("repro.sim.checkpoint", "CheckpointStore.put", "checkpoint.put", None),
    ("repro.sim.checkpoint", "CheckpointStore.get", "checkpoint.get", "hit"),
    ("repro.sim.cache", "ResultCache.get", "cache.get", None),
    ("repro.sim.cache", "ResultCache.put", "cache.put", None),
    ("repro.sim.journal", "JournaledDir.commit", "journal.commit", None),
    ("repro.core.core", "OOOCore.run", "core.run", "run"),
    ("repro.core.core", "OOOCore._process_events", "core.events", None),
    ("repro.core.core", "OOOCore._commit", "core.commit", None),
    ("repro.core.scheduler", "ReservationStation._select_event", "core.select", None),
    ("repro.rfp.engine", "RFPEngine.step", "core.rfp", None),
    ("repro.core.core", "OOOCore._dispatch", "core.dispatch", None),
    ("repro.core.frontend", "Frontend.fetch", "core.fetch", None),
    ("repro.core.core", "OOOCore._skip_idle_cycles", "core.idle_skip", None),
    ("repro.sim.parallel", "ensure_checkpoints", "parallel.prewarm", None),
    ("repro.sim.parallel", "ensure_checkpoints_batch", "parallel.prewarm", None),
    ("repro.sim.parallel", "_run_job", "parallel.job", "job"),
)

#: Detailed-core stage spans, in ``OOOCore.step`` order.
CORE_STAGES = ("events", "commit", "select", "rfp", "dispatch", "fetch", "idle_skip")


class SpanRecorder(object):
    """In-memory span table for one process (and, merged, its workers)."""

    def __init__(self, spans_dir=None):
        #: name -> [calls, total_ns, child_ns, parent name or None]
        self.spans = {}
        #: work counters added by hooks (instructions warmed, hits, ...)
        self.counts = {}
        #: duration of every job, in ms, parent and workers
        self.job_ms = []
        #: time in spans with no wrapped caller, this process / workers
        self.top_ns = 0
        self.worker_top_ns = 0
        self.missing = []
        self.spans_dir = spans_dir
        self._stack = []
        self._pid = os.getpid()

    # -- wrapping ---------------------------------------------------------

    def _span(self, fn, name):
        """The lean wrapper: a few list operations and two clock reads."""
        entry = self.spans.setdefault(name, [0, 0, 0, None])
        stack = self._stack
        recorder = self

        def span(*args, **kwargs):
            frame = [0, name]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
                    if entry[3] is None:
                        entry[3] = stack[-1][1]
                else:
                    recorder.top_ns += elapsed

        return span

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _hooked(self, fn, name, hook):
        inner = self._span(fn, name)
        if hook is None:
            return inner
        if hook == "warm":
            from repro.emu import warmup

            pass_count = getattr(warmup, "warm_pass_count", lambda: 0)

            def warm(self_, *args, **kwargs):
                before, passes = self_.warmed, pass_count()
                result = inner(self_, *args, **kwargs)
                self._add("emu.warm_instr", self_.warmed - before)
                self._add("emu.warm_passes", pass_count() - passes)
                return result

            return warm
        if hook == "run":

            def run(self_, *args, **kwargs):
                before = self_.stats.instructions
                result = inner(self_, *args, **kwargs)
                self._add("core.instructions", self_.stats.instructions - before)
                return result

            return run
        if hook == "hit":

            def get(*args, **kwargs):
                result = inner(*args, **kwargs)
                self._add("checkpoint.hits", result is not None)
                return result

            return get
        if hook == "job":
            return self._job(inner)
        raise ValueError("unknown hook %r" % (hook,))

    def _job(self, inner):
        """Job wrapper: record the duration; in a forked worker, append the
        job's span deltas to this worker's spans file."""

        def job(*args, **kwargs):
            in_worker = os.getpid() != self._pid
            before = self._snapshot() if in_worker else None
            start = _clock()
            result = inner(*args, **kwargs)
            self.job_ms.append((_clock() - start) / 1e6)
            if in_worker:
                path = os.path.join(self.spans_dir, "spans-%d.jsonl" % os.getpid())
                with open(path, "a") as handle:
                    handle.write(json.dumps(self._delta(before)) + "\n")
            return result

        return job

    def install(self):
        """Replace every target with its wrapper; returns the names of the
        targets that could not be found."""
        for module_name, path, name, hook in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing.append("%s.%s" % (module_name, path))
                warnings.warn(
                    "span target %s.%s is missing (%s); its metrics read 0"
                    % (module_name, path, exc),
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            setattr(owner, attr, self._hooked(original, name, hook))
        return self.missing

    # -- worker deltas --------------------------------------------------------

    def _snapshot(self):
        return {
            "spans": {name: entry[:3] for name, entry in self.spans.items()},
            "counts": dict(self.counts),
            "top_ns": self.top_ns,
            "jobs": len(self.job_ms),
        }

    def _delta(self, before):
        spans = {}
        for name, entry in self.spans.items():
            old = before["spans"].get(name, [0, 0, 0])
            if entry[0] != old[0]:
                spans[name] = [entry[i] - old[i] for i in range(3)] + [entry[3]]
        return {
            "spans": spans,
            "counts": {
                key: value - before["counts"].get(key, 0)
                for key, value in self.counts.items()
            },
            "top_ns": self.top_ns - before["top_ns"],
            "job_ms": self.job_ms[before["jobs"] :],
        }

    def merge_dir(self):
        """Fold every worker's spans file into this recorder."""
        if not self.spans_dir or not os.path.isdir(self.spans_dir):
            return
        for name in sorted(os.listdir(self.spans_dir)):
            if not (name.startswith("spans-") and name.endswith(".jsonl")):
                continue
            with open(os.path.join(self.spans_dir, name)) as handle:
                for line in handle:
                    self._merge(json.loads(line))

    def _merge(self, delta):
        for name, (calls, total, child, parent) in delta["spans"].items():
            entry = self.spans.setdefault(name, [0, 0, 0, None])
            entry[0] += calls
            entry[1] += total
            entry[2] += child
            if entry[3] is None:
                entry[3] = parent
        for key, value in delta["counts"].items():
            self._add(key, value)
        self.worker_top_ns += delta["top_ns"]
        self.job_ms.extend(delta["job_ms"])

    # -- reading ----------------------------------------------------------

    def calls(self, name):
        return self.spans.get(name, [0])[0]

    def total_s(self, name):
        entry = self.spans.get(name)
        return entry[1] / 1e9 if entry else 0.0

    def self_s(self, name):
        entry = self.spans.get(name)
        return (entry[1] - entry[2]) / 1e9 if entry else 0.0


def job_tail(values):
    """``(percentile, value)``: the highest of p99.9/p99/p95/p90/p75 with at
    least ten samples beyond it, else the median."""
    ordered = sorted(values)
    if not ordered:
        return 50.0, 0.0
    n = len(ordered)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            index = min(n - 1, max(0, math.ceil(pct / 100.0 * n) - 1))
            return pct, ordered[index]
    return 50.0, statistics.median(ordered)


def layer_metrics(recorder, wall_s, workers):
    """Per-layer metrics of one traced sweep (self seconds, counts, rates)."""
    rec = recorder
    counts = rec.counts
    run_s = rec.total_s("core.run")
    cycles = rec.calls("core.commit")  # _commit runs once per stepped cycle
    warm_total = rec.total_s("emu.warm")
    gets = rec.calls("checkpoint.get")
    tail_pct, tail_ms = job_tail(rec.job_ms)
    covered = (rec.top_ns + rec.worker_top_ns) / 1e9
    metrics = {
        "workloads.trace_gen_s": rec.self_s("workloads.trace_gen"),
        "workloads.traces_built": rec.calls("workloads.trace_gen"),
        "emu.warm_s": rec.self_s("emu.warm"),
        "emu.warm_passes": counts.get("emu.warm_passes", 0),
        "emu.warm_instr_per_s": (
            counts.get("emu.warm_instr", 0) / warm_total if warm_total else 0.0
        ),
        "emu.batch_warm_s": rec.self_s("emu.batch_warm"),
        "checkpoint.capture_s": rec.self_s("checkpoint.capture"),
        "checkpoint.put_s": rec.self_s("checkpoint.put"),
        "checkpoint.puts": rec.calls("checkpoint.put"),
        "checkpoint.get_s": rec.self_s("checkpoint.get"),
        "checkpoint.gets": gets,
        "checkpoint.hit_ratio": counts.get("checkpoint.hits", 0) / gets if gets else 0.0,
        "checkpoint.restore_s": rec.self_s("checkpoint.restore"),
        "cache.get_s": rec.self_s("cache.get"),
        "cache.gets": rec.calls("cache.get"),
        "cache.put_s": rec.self_s("cache.put"),
        "cache.puts": rec.calls("cache.put"),
        "journal.commit_s": rec.self_s("journal.commit"),
        "journal.commits": rec.calls("journal.commit"),
        "core.run_s": run_s,
        "core.loop_self_s": rec.self_s("core.run"),
        "core.cycles_stepped": cycles,
        "core.ns_per_cycle": run_s * 1e9 / cycles if cycles else 0.0,
        "core.detail_instr_per_s": (
            counts.get("core.instructions", 0) / run_s if run_s else 0.0
        ),
        "parallel.prewarm_s": rec.self_s("parallel.prewarm"),
        "parallel.job_self_s": rec.self_s("parallel.job"),
        "parallel.jobs": rec.calls("parallel.job"),
        "parallel.workers": workers,
        "parallel.job_p50_ms": statistics.median(rec.job_ms) if rec.job_ms else 0.0,
        "parallel.job_tail_ms": tail_ms,
        "parallel.job_tail_pct": tail_pct,
        "parallel.overhead_s": max(0.0, workers * wall_s - covered),
        "trace.span_coverage": covered / (workers * wall_s) if wall_s else 0.0,
    }
    for stage in CORE_STAGES:
        metrics["core.%s_s" % stage] = rec.self_s("core." + stage)
    return metrics
