"""The ``repro.emu.batch.warm_batch`` span-target shim over seeded pairs.

``warm_batch`` runs each ``(trace, workload, config, length, positions)``
job through :func:`~repro.sim.checkpoint.ensure_checkpoints`, so a batch
of jobs costs one scalar warm pass per job (a "lane") that has something
to write.  ``SEEDED_PAIRS`` are (workload, config) pairs over distinct
workloads, RFP table shapes and RNG seeds.  The shim goes with ROADMAP
item 1(a), and this file with it.
"""

from conftest import warm_passes

from repro.core.config import baseline
from repro.emu.batch import warm_batch
from repro.sim.checkpoint import CheckpointStore
from repro.workloads.suite import build_workload

LENGTH = 6000
BOUNDS = [1500, 4000, 6000]

SEEDED_PAIRS = [
    ("spec06_mcf", baseline(name="rfp", rfp={"enabled": True})),
    ("tpce", baseline(name="ctx", seed=0x1234,
                      rfp={"enabled": True, "context_enabled": True})),
    ("geekbench", baseline(name="nopat", seed=0xBEEF,
                           rfp={"enabled": True, "use_pat": False})),
]


class TestSeededEquivalenceMatrix:
    def test_batch_ticks_one_warm_pass_per_lane(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        jobs = []
        for workload, config in SEEDED_PAIRS:
            trace = build_workload(workload, length=LENGTH)
            jobs.append((trace, workload, config, LENGTH, [BOUNDS[0]]))
        passes = warm_passes()
        outcomes = warm_batch(jobs, store=store)
        assert passes() == 3
        assert outcomes == [{BOUNDS[0]: "warmed"}] * 3
        # A second batch over the filled store warms nothing.
        passes = warm_passes()
        assert warm_batch(jobs, store=store) == [{BOUNDS[0]: "hit"}] * 3
        assert passes() == 0
