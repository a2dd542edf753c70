"""Chaos harness: prove the sharded sweep stack converges under faults.

A reproduction pipeline that *tolerates* faults is only trustworthy if
the tolerance is exercised the way real faults arrive — processes dying
mid-write, shards freezing silently — and if the recovered end state is
**byte-identical** to a fault-free run, not merely "no exception".  This
module runs that campaign:

1. **Reference launch** — the sweep (``--num`` workloads x 3 configs:
   baseline, baseline+RFP, baseline-2x, optionally interval-sampled)
   runs fault-free against pristine stores and writes its ``--out`` JSON.
2. **Fault launches** — the same sweep re-runs against a second pair of
   stores while a seeded schedule (:func:`build_schedule`, pure
   ``random.Random(seed)``) injects one fault per launch via
   ``REPRO_FAULT``: shard kills (``kill_shard``), SIGSTOPped busy shards
   (``stop_shard``), and a real ``SIGKILL`` mid-store-write
   (``kill_commit`` — the launch is *expected* to die; its exit code is
   asserted to be the signal).
3. **Recovery pass** — ``repro cache-stats`` + ``repro checkpoint stats``
   open both stores, which removes the temp files of dead writers and
   validates every entry.  The acceptance bar is ``corrupt evicted: 0``
   in *both* stores: an interrupted write must never leave a corrupt
   entry behind.
4. **Convergence launch** — the sweep runs once more, fault-free, over
   the recovered stores and must exit 0 with an ``--out`` file
   **byte-identical** to the reference (including an empty failure
   manifest: every injected fault was absorbed, none leaked into the
   final state).

Every launch's command, injected fault, exit code and duration is
recorded in ``incidents.json`` under the campaign directory, so a CI
failure names the exact launch and seed to replay locally:
``python -m repro chaos --seed N``.
"""

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

from repro.core.config import baseline, baseline_2x
from repro.sim.journal import validate_envelope
from repro.workloads.suite import workload_names

#: Default campaign seed; CI pins its own so local replays match.
DEFAULT_SEED = 20220618  # the paper's ISCA year+month, arbitrary but fixed

#: Store-write steps a seeded SIGKILL may target (see journal.JournaledDir).
_COMMIT_STAGES = ("payload", "replace")


def build_schedule(seed, shards, kills=3, hangs=1, sigkills=1, workloads=()):
    """The deterministic fault schedule for one campaign.

    Pure function of its arguments (``random.Random(seed)``, no ambient
    entropy), so a failing CI run is replayed exactly by its seed.
    Returns a list of launch dicts: ``kind``, the ``REPRO_FAULT`` spec,
    what to clear from the store beforehand (``clear``: ``"all"`` keeps
    jobs flowing through the shards; a workload-name needle forces just
    that cell's re-commit), and ``expect_signal`` for launches that must
    die.  The ``kill_commit`` launches take the store-write stages in
    turn, starting at ``payload``, so any two of them kill a writer in
    both windows; only their needles are drawn.
    """
    rng = random.Random(seed)
    workloads = list(workloads)
    schedule = []
    for _ in range(kills):
        schedule.append({
            "kind": "kill_shard",
            "fault": "kill_shard:shard=%d:after=%d"
                     % (rng.randrange(shards), rng.randint(1, 3)),
            "clear": "all",
        })
    for _ in range(hangs):
        schedule.append({
            "kind": "stop_shard",
            "fault": "stop_shard:shard=%d:after=%d"
                     % (rng.randrange(shards), rng.randint(1, 2)),
            "clear": "all",
        })
    for i in range(sigkills):
        needle = rng.choice(workloads)
        schedule.append({
            "kind": "kill_commit",
            "fault": "kill_commit:key=%s:at=%s"
                     % (needle, _COMMIT_STAGES[i % len(_COMMIT_STAGES)]),
            "clear": needle,
            "expect_signal": signal.SIGKILL,
        })
    return schedule


def _clear_entries(directory, needle):
    """Remove cached finals (``"all"`` or those containing ``needle``) so
    the next launch re-simulates and re-commits them."""
    if not os.path.isdir(directory):
        return 0
    removed = 0
    for name in os.listdir(directory):
        if not name.endswith(".json"):
            continue
        if needle != "all" and needle not in name:
            continue
        try:
            os.remove(os.path.join(directory, name))
            removed += 1
        except OSError:
            pass
    return removed


def run_sweep(args):
    """``repro chaos --sweep-child``: one sweep launch, deterministic out.

    Runs the campaign's (workload x 3-config) matrix through the shard
    pool and writes a stable JSON dump (sorted keys, indent 2) for the
    byte-compare.  Exit codes mirror ``repro suite``: 0 clean, 3 when a
    job failed terminally, 4 after a SIGTERM drain.
    """
    from repro.sim.parallel import MANIFEST_VERSION, run_matrix

    configs = [baseline(), baseline(rfp={"enabled": True}), baseline_2x()]
    names = workload_names()[: args.num]
    sampling = {"samples": args.sample} if args.sample else None
    per_config, report = run_matrix(
        configs, names, args.length, args.warmup,
        keep_going=True, sampling=sampling, max_workers=args.shards,
    )
    payload = {
        "configs": {
            config.name: {name: results[name].as_dict()
                          for name in names if name in results}
            for config, results in zip(configs, per_config)
        },
        "failures": report.failures,
        "manifest_version": MANIFEST_VERSION,
    }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if report.drained:
        return 4
    return 3 if report.jobs_failed else 0


class CampaignFailure(RuntimeError):
    """A chaos launch violated its contract (wrong exit code, divergent
    bytes, or corrupt entries surviving recovery)."""


def _corrupt_evicted(label, stdout):
    """The ``corrupt evicted`` count in a store-stats table."""
    for line in stdout.splitlines():
        if "corrupt evicted" in line:
            return int(line.split("|")[-1].strip())
    raise CampaignFailure("%s: output missing 'corrupt evicted' row:\n%s"
                          % (label, stdout))


class _Campaign(object):
    """One seeded chaos campaign over a sharded sweep (see module doc)."""

    def __init__(self, args):
        self.args = args
        self.root = os.path.abspath(args.dir)
        self.ref_cache = os.path.join(self.root, "ref-cache")
        self.ref_ckpt = os.path.join(self.root, "ref-ckpt")
        self.chaos_cache = os.path.join(self.root, "chaos-cache")
        self.chaos_ckpt = os.path.join(self.root, "chaos-ckpt")
        self.ref_out = os.path.join(self.root, "ref.json")
        self.final_out = os.path.join(self.root, "final.json")
        self.incidents = []

    # -- plumbing --------------------------------------------------------

    def _env(self, cache_dir, ckpt_dir, fault=None):
        env = dict(os.environ)
        env["REPRO_CACHE_DIR"] = cache_dir
        env["REPRO_CHECKPOINT_DIR"] = ckpt_dir
        # A tight watchdog under a fault: a frozen shard's job is killed
        # after 5s, so a campaign of a dozen launches stays CI-sized.  A
        # healthy job the short deadline kills is retried; the fault-free
        # reference and convergence launches keep the default deadline,
        # so their failure manifests stay empty.
        env.pop("REPRO_FAULT", None)
        if fault:
            env["REPRO_FAULT"] = fault
            env.setdefault("REPRO_JOB_TIMEOUT", "5")
        return env

    def _sweep_cmd(self, out):
        args = self.args
        return [
            sys.executable, "-m", "repro", "chaos", "--sweep-child",
            "--num", str(args.num), "--shards", str(args.shards),
            "--length", str(args.length), "--warmup", str(args.warmup),
            "--sample", str(args.sample), "--out", out,
        ]

    def _launch(self, label, cmd, env, expect_signal=None, fault=None):
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True,
                                  text=True, timeout=self.args.launch_timeout)
        except subprocess.TimeoutExpired:
            self.incidents.append({"launch": label, "fault": fault,
                                   "returncode": "timeout"})
            raise CampaignFailure(
                "%s: no exit within %.0fs — supervision failed to converge"
                % (label, self.args.launch_timeout))
        seconds = time.monotonic() - started
        incident = {
            "launch": label,
            "fault": fault,
            "returncode": proc.returncode,
            "seconds": round(seconds, 2),
        }
        self.incidents.append(incident)
        if expect_signal is not None:
            if proc.returncode != -expect_signal:
                raise CampaignFailure(
                    "%s: expected death by signal %d, got exit %d\n%s"
                    % (label, expect_signal, proc.returncode,
                       proc.stderr[-2000:]))
        elif proc.returncode != 0:
            raise CampaignFailure(
                "%s: expected exit 0, got %d\n%s"
                % (label, proc.returncode, proc.stderr[-2000:]))
        return proc

    def _log(self, message):
        print("chaos: %s" % message, flush=True)

    # -- phases ----------------------------------------------------------

    def _reference(self):
        self._log("reference sweep (%d workloads x 3 configs, shards=%d)"
                  % (self.args.num, self.args.shards))
        self._launch("reference", self._sweep_cmd(self.ref_out),
                     self._env(self.ref_cache, self.ref_ckpt))

    def _fault_launches(self, schedule):
        for index, launch in enumerate(schedule):
            label = "fault-%d-%s" % (index, launch["kind"])
            cleared = _clear_entries(self.chaos_cache, launch["clear"])
            expect = launch.get("expect_signal")
            self._log("%s: REPRO_FAULT=%s (cleared %d entr%s)%s"
                      % (label, launch["fault"], cleared,
                         "y" if cleared == 1 else "ies",
                         " [expecting SIGKILL]" if expect else ""))
            self._launch(
                label, self._sweep_cmd(os.path.join(self.root, "scratch.json")),
                self._env(self.chaos_cache, self.chaos_ckpt,
                          fault=launch["fault"]),
                expect_signal=expect, fault=launch["fault"])

    def _recover(self):
        """Open both chaos stores via the maintenance CLI: removes dead
        writers' temp files, validates every entry, and must report zero
        corrupt."""
        self._log("recovery pass (cache-stats + checkpoint stats)")
        env = self._env(self.chaos_cache, self.chaos_ckpt)
        dirty = []
        for label, command in (("recover-cache", ["cache-stats"]),
                               ("recover-checkpoint", ["checkpoint", "stats"])):
            proc = self._launch(label,
                                [sys.executable, "-m", "repro"] + command, env)
            count = _corrupt_evicted(label, proc.stdout)
            self.incidents.append({"launch": label, "corrupt_evicted": count})
            if count:
                dirty.append("%s %d" % (label, count))
        if dirty:
            raise CampaignFailure(
                "recovery left corrupt entries (expected 0): %s"
                % ", ".join(dirty))

    def _verify_stores(self):
        """In-process audit of the chaos cache: no stray temp files, every
        surviving entry a valid envelope."""
        strays = [name for name in os.listdir(self.chaos_cache)
                  if name.endswith(".tmp")]
        if strays:
            raise CampaignFailure("orphan temp files survived recovery: %s"
                                  % strays)
        invalid = []
        for name in sorted(os.listdir(self.chaos_cache)):
            if not name.endswith(".json"):
                continue
            reason = validate_envelope(os.path.join(self.chaos_cache, name))
            if reason is not None:
                invalid.append((name, reason))
        if invalid:
            raise CampaignFailure("corrupt cache entries survived recovery: "
                                  "%s" % invalid)
        self._log("store audit: 0 strays, all entries valid")

    def _converge(self):
        self._log("convergence sweep (fault-free, recovered stores)")
        self._launch("convergence", self._sweep_cmd(self.final_out),
                     self._env(self.chaos_cache, self.chaos_ckpt))
        with open(self.ref_out, "rb") as handle:
            ref = handle.read()
        with open(self.final_out, "rb") as handle:
            final = handle.read()
        if ref != final:
            raise CampaignFailure(
                "convergence diverged: %s (%d bytes) != %s (%d bytes)"
                % (self.final_out, len(final), self.ref_out, len(ref)))
        self._log("convergence: byte-identical to the reference (%d bytes)"
                  % len(ref))

    def run(self):
        args = self.args
        if args.fresh and os.path.isdir(self.root):
            shutil.rmtree(self.root)
        os.makedirs(self.root, exist_ok=True)
        schedule = build_schedule(
            args.seed, args.shards, kills=args.kills, hangs=args.hangs,
            sigkills=args.sigkills,
            workloads=workload_names()[: args.num])
        self._log("seed %d: %d fault launches over %d workloads x 3 configs"
                  % (args.seed, len(schedule), args.num))
        failure = None
        try:
            self._reference()
            self._fault_launches(schedule)
            self._recover()
            self._verify_stores()
            self._converge()
        except CampaignFailure as exc:
            failure = str(exc)
        finally:
            report = {
                "seed": args.seed,
                "schedule": schedule,
                "incidents": self.incidents,
                "verdict": failure or "converged byte-identical",
            }
            path = os.path.join(self.root, "incidents.json")
            with open(path, "w") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
        if failure is not None:
            print("chaos: FAIL — %s" % failure, file=sys.stderr)
            print("chaos: replay with: python -m repro chaos --seed %d"
                  % args.seed, file=sys.stderr)
            return 1
        self._log("PASS — %d launches, results byte-identical; see %s"
                  % (len(self.incidents), path))
        return 0


def run_campaign(args):
    """Entry point for ``repro chaos`` (the supervisor side)."""
    return _Campaign(args).run()
