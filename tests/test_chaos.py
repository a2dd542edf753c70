"""The chaos harness: seeded schedules and a small end-to-end campaign.

The campaign test is the tentpole's acceptance criterion in miniature:
shard kill + SIGSTOPped shard + mid-write SIGKILL over a (2 workload x 3
config) sampled sweep, ending byte-identical to a fault-free reference
with zero corrupt entries.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import types

import pytest

from repro.sim.chaos import CampaignFailure, _Campaign, build_schedule

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestSchedule:
    def test_deterministic_for_a_seed(self):
        kwargs = dict(shards=3, kills=3, hangs=1, sigkills=1,
                      workloads=["spec06_mcf", "spec06_gcc"])
        assert build_schedule(7, **kwargs) == build_schedule(7, **kwargs)
        assert build_schedule(7, **kwargs) != build_schedule(8, **kwargs)

    def test_counts_and_kinds(self):
        schedule = build_schedule(
            1, shards=2, kills=2, hangs=1, sigkills=1,
            workloads=["spec06_mcf"])
        kinds = [launch["kind"] for launch in schedule]
        assert kinds == ["kill_shard", "kill_shard", "stop_shard",
                         "kill_commit"]

    def test_fault_specs_are_well_formed(self):
        from repro.sim import faults

        schedule = build_schedule(
            5, shards=4, workloads=["spec06_mcf", "spec06_bzip2"])
        for launch in schedule:
            if "fault" not in launch:
                continue
            (spec,) = faults.parse_faults(launch["fault"])  # must parse
            assert spec.kind == launch["kind"]
        sigkill = [launch for launch in schedule
                   if launch["kind"] == "kill_commit"]
        assert all(launch["expect_signal"] == signal.SIGKILL
                   for launch in sigkill)


class TestCampaign:
    def test_recovery_fails_on_a_corrupt_cache_count(self, tmp_path,
                                                     monkeypatch):
        """Both stores' ``corrupt evicted`` rows are checked, not only the
        checkpoint store's."""
        args = argparse.Namespace(dir=str(tmp_path))
        campaign = _Campaign(args)

        def launch(label, cmd, env, expect_signal=None, fault=None):
            count = 1 if label == "recover-cache" else 0
            return types.SimpleNamespace(
                stdout="corrupt evicted | %d\n" % count)

        monkeypatch.setattr(campaign, "_launch", launch)
        with pytest.raises(CampaignFailure, match="recover-cache 1"):
            campaign._recover()
        assert [i for i in campaign.incidents if "corrupt_evicted" in i] == [
            {"launch": "recover-cache", "corrupt_evicted": 1},
            {"launch": "recover-checkpoint", "corrupt_evicted": 0},
        ]

    def test_short_job_deadline_only_under_a_fault(self, tmp_path,
                                                   monkeypatch):
        """Fault launches get a 5 s watchdog so a stopped shard recovers
        fast; fault-free launches keep the default, so a spurious kill
        cannot put a recovered failure in the byte-compared manifest."""
        monkeypatch.delenv("REPRO_JOB_TIMEOUT", raising=False)
        campaign = _Campaign(argparse.Namespace(dir=str(tmp_path)))
        faulted = campaign._env("cache", "ckpt",
                                fault="stop_shard:shard=0:after=1")
        assert faulted["REPRO_JOB_TIMEOUT"] == "5"
        assert faulted["REPRO_FAULT"] == "stop_shard:shard=0:after=1"
        clean = campaign._env("cache", "ckpt")
        assert "REPRO_JOB_TIMEOUT" not in clean
        assert "REPRO_FAULT" not in clean

    def test_small_campaign_converges_byte_identical(self, tmp_path):
        campaign_dir = str(tmp_path / "campaign")
        env = dict(os.environ)
        env.pop("REPRO_FAULT", None)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "chaos",
             "--seed", "11", "--dir", campaign_dir, "--fresh",
             "-n", "2", "--shards", "2", "--kills", "1", "--hangs", "1",
             "--sigkills", "1",
             "--length", "1200", "--warmup", "200", "--sample", "2",
             "--launch-timeout", "120"],
            env=env, capture_output=True, text=True, timeout=570)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "byte-identical" in proc.stdout
        report = json.load(open(os.path.join(campaign_dir,
                                             "incidents.json")))
        assert report["verdict"] == "converged byte-identical"
        by_launch = {i["launch"]: i for i in report["incidents"]
                     if "returncode" in i}
        assert by_launch["fault-1-stop_shard"]["returncode"] == 0
        assert by_launch["fault-2-kill_commit"]["returncode"] == \
            -signal.SIGKILL
        assert by_launch["convergence"]["returncode"] == 0
        corrupt = {i["launch"]: i["corrupt_evicted"]
                   for i in report["incidents"] if "corrupt_evicted" in i}
        assert corrupt == {"recover-cache": 0, "recover-checkpoint": 0}
        with open(os.path.join(campaign_dir, "ref.json"), "rb") as handle:
            ref = handle.read()
        with open(os.path.join(campaign_dir, "final.json"), "rb") as handle:
            assert handle.read() == ref
