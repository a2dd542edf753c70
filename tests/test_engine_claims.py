"""Exact accuracy claims of the fast engines at the shipped defaults.

The two-speed engine and checkpointed interval sampling trade detail for
speed; these tests pin what that trade may cost.  Simulation is
deterministic, so every bound here is exact and cannot flake.  The
engines' speed floors are same-machine timings and live in
``benchmarks/test_perf_smoke.py`` instead.

One module-scoped fixture runs the validation subset three ways (full
detail, two-speed, sampled into a fresh checkpoint store, then sampled
again from it); each test checks one claim against those runs.
"""

import pytest

from repro.core.config import baseline
from repro.sim.checkpoint import CheckpointStore
from repro.sim.defaults import DEFAULT_LENGTH, DEFAULT_WARMUP
from repro.sim.runner import simulate, simulate_sampled

#: A cross-section of the suite (OLTP, client, SPEC int/fp, Java
#: middleware, analytics) whose fast-forwarded IPC matches full detail
#: tightest.  Suite-wide accuracy is surveyed in EXPERIMENTS.md; this
#: subset is the regression tripwire.
VALIDATION_WORKLOADS = [
    "tpce",
    "geekbench",
    "spec06_namd",
    "spec17_mcf",
    "specjenterprise",
    "spec17_x264",
    "spec17_parest",
    "bigbench",
]

#: Two-speed measured-region IPC vs full detail (0.214% measured).
MAX_IPC_RELATIVE_ERROR = 0.01

#: K intervals of N detailed instructions: the sampling plan whose
#: checkpoint-hit speed ``benchmarks/test_perf_smoke.py`` floors.
SAMPLES = 4
INTERVAL_LENGTH = 800


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    store = CheckpointStore(str(tmp_path_factory.mktemp("checkpoints")))
    full_config = baseline(fast_forward=False, idle_skip=False)
    runs = {}
    for name in VALIDATION_WORKLOADS:
        sampled = [
            simulate_sampled(name, baseline(), length=DEFAULT_LENGTH,
                             warmup=DEFAULT_WARMUP, samples=SAMPLES,
                             interval_length=INTERVAL_LENGTH,
                             checkpoint_store=store)
            for _pass in ("cold", "checkpoint hit")
        ]
        runs[name] = {
            "full": simulate(name, full_config, length=DEFAULT_LENGTH,
                             warmup=DEFAULT_WARMUP),
            "two_speed": simulate(name, baseline(), length=DEFAULT_LENGTH,
                                  warmup=DEFAULT_WARMUP),
            "sampled_cold": sampled[0],
            "sampled_hit": sampled[1],
        }
    return runs


def test_two_speed_ipc_within_one_percent_of_full_detail(runs):
    errors = {
        name: abs(run["two_speed"].ipc - run["full"].ipc) / run["full"].ipc
        for name, run in runs.items()
    }
    assert max(errors.values()) <= MAX_IPC_RELATIVE_ERROR, errors


def test_full_detail_ipc_inside_every_sampled_ci(runs):
    outside = {
        name: (run["full"].ipc, run["sampled_cold"].data["ipc_ci"])
        for name, run in runs.items()
        if abs(run["sampled_cold"].data["ipc_ci"]["mean"] - run["full"].ipc)
        > run["sampled_cold"].data["ipc_ci"]["half_width"]
    }
    assert not outside, outside


def test_checkpoint_hit_run_equals_cold_run(runs):
    for run in runs.values():
        assert run["sampled_hit"].data == run["sampled_cold"].data
