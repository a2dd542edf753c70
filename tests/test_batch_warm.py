"""Scalar-vs-batched warm engine equivalence: byte-identical checkpoints.

The batched structure-of-arrays engine (:mod:`repro.emu.batch`) must be a
pure performance transform of the scalar :class:`FunctionalWarmer`: for any
(workload, config, positions) job, the checkpoint payloads it writes must
be *byte-identical* to the scalar engine's — caches with LRU order and
dirty bits, DTLB, every stat counter, hit-miss/memory-dependence state, the
RFP PT/PAT/context tables including the probabilistic confidence counter's
RNG stream, branch path history, registers, and the committed-memory delta.

``SEEDED_PAIRS`` below is the fixed matrix the CI ``batch-equivalence``
job runs: six (workload, config) pairs chosen to cover distinct cache
geometries, prefetcher settings, RFP table shapes and RNG seeds, so that a
divergence in any SoA column shows up as a payload diff.  On mismatch the
offending payloads are dumped to ``$REPRO_EQUIV_ARTIFACTS`` (when set) for
CI artifact upload.
"""

import json
import os

import pytest

from conftest import warm_passes

from repro.core.config import baseline
from repro.core.core import OOOCore
from repro.emu.batch import warm_batch
from repro.emu.warmup import FunctionalWarmer
from repro.sim.checkpoint import (
    CheckpointStore,
    capture,
    ensure_checkpoints,
    ensure_checkpoints_batch,
)
from repro.workloads.suite import build_workload

LENGTH = 6000
BOUNDS = [1500, 4000, 6000]

#: The CI equivalence matrix: every pair exercises a different slice of the
#: SoA state (geometry, prefetchers off, PAT off, context on, RNG seed).
SEEDED_PAIRS = [
    ("spec06_mcf", baseline(name="rfp", rfp={"enabled": True})),
    ("tpce", baseline(name="ctx", seed=0x1234,
                      rfp={"enabled": True, "context_enabled": True})),
    ("geekbench", baseline(name="nopat", seed=0xBEEF,
                           rfp={"enabled": True, "use_pat": False})),
    ("spec06_namd", baseline(name="small", l1_size=16384, l1_assoc=4,
                             l2_size=131072, l2_assoc=8,
                             rfp={"enabled": True})),
    ("spec17_mcf", baseline(name="nopf", l2_prefetcher_enabled=False,
                            l1_next_line_prefetch=False,
                            hit_miss_predictor=False,
                            rfp={"enabled": True})),
    ("bigbench", baseline(name="base", seed=0xF00D)),
]


def _artifact_dump(tag, scalar_blob, batch_blob):
    """Drop mismatching payloads where the CI job can upload them."""
    directory = os.environ.get("REPRO_EQUIV_ARTIFACTS")
    if not directory:
        return
    os.makedirs(directory, exist_ok=True)
    for side, blob in (("scalar", scalar_blob), ("batch", batch_blob)):
        with open(os.path.join(directory, "%s.%s.json" % (tag, side)),
                  "wb") as handle:
            handle.write(blob if blob is not None else b"<missing>")


def _store_bytes(store, key):
    path = store._path(key)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as handle:
        return handle.read()


class TestSeededEquivalenceMatrix:
    def test_six_seeded_pairs_byte_identical(self, tmp_path):
        """The CI ``batch-equivalence`` harness: warm every seeded pair
        both ways, byte-compare every serialized checkpoint file."""
        scalar_store = CheckpointStore(str(tmp_path / "scalar"))
        batch_store = CheckpointStore(str(tmp_path / "batch"))
        jobs = []
        for workload, config in SEEDED_PAIRS:
            trace = build_workload(workload, length=LENGTH)
            ensure_checkpoints(trace, workload, config, LENGTH, BOUNDS,
                               scalar_store)
            jobs.append((trace, workload, config, LENGTH, BOUNDS))
        outcomes = ensure_checkpoints_batch(jobs, batch_store)
        assert all(
            outcome == {b: "warmed" for b in BOUNDS} for outcome in outcomes
        )
        for workload, config in SEEDED_PAIRS:
            for bound in BOUNDS:
                key = scalar_store.key(workload, config, LENGTH, bound)
                scalar_blob = _store_bytes(scalar_store, key)
                batch_blob = _store_bytes(batch_store, key)
                if scalar_blob != batch_blob:
                    _artifact_dump("%s-%s-%d" % (workload, config.name,
                                                 bound),
                                   scalar_blob, batch_blob)
                    pytest.fail(
                        "checkpoint payload diverged for %s/%s at %d"
                        % (workload, config.name, bound)
                    )

    def test_batch_resumes_from_scalar_checkpoints(self, tmp_path):
        """A store partially filled by the scalar engine is completed by
        the batched engine with byte-identical deeper checkpoints."""
        workload, config = SEEDED_PAIRS[0]
        trace = build_workload(workload, length=LENGTH)
        oracle = CheckpointStore(str(tmp_path / "oracle"))
        ensure_checkpoints(trace, workload, config, LENGTH, BOUNDS, oracle)
        mixed = CheckpointStore(str(tmp_path / "mixed"))
        ensure_checkpoints(trace, workload, config, LENGTH, BOUNDS[:1],
                           mixed)
        [outcome] = ensure_checkpoints_batch(
            [(trace, workload, config, LENGTH, BOUNDS)], mixed)
        assert outcome == {BOUNDS[0]: "hit", BOUNDS[1]: "warmed",
                           BOUNDS[2]: "warmed"}
        for bound in BOUNDS[1:]:
            key = oracle.key(workload, config, LENGTH, bound)
            assert _store_bytes(oracle, key) == _store_bytes(mixed, key)

    def test_full_store_costs_zero_warm_passes(self, tmp_path):
        workload, config = SEEDED_PAIRS[0]
        trace = build_workload(workload, length=LENGTH)
        store = CheckpointStore(str(tmp_path))
        ensure_checkpoints_batch([(trace, workload, config, LENGTH, BOUNDS)],
                                 store)
        passes = warm_passes()
        [outcome] = ensure_checkpoints_batch(
            [(trace, workload, config, LENGTH, BOUNDS)], store)
        assert outcome == {b: "hit" for b in BOUNDS}
        assert passes() == 0

    def test_batch_ticks_one_warm_pass_per_lane(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        jobs = []
        for workload, config in SEEDED_PAIRS[:3]:
            trace = build_workload(workload, length=LENGTH)
            jobs.append((trace, workload, config, LENGTH, [BOUNDS[0]]))
        passes = warm_passes()
        warm_batch(jobs, store=store)
        assert passes() == 3


class TestLockstepSweep:
    def test_config_sweep_shares_trace_in_lockstep(self, tmp_path):
        """N configs over one trace: one lockstep group, every lane's
        payload equal to its own scalar warm."""
        workload = "spec06_mcf"
        trace = build_workload(workload, length=LENGTH)
        sweep = [baseline(name="hm%d" % i, hit_miss_entries=512 << i,
                          rfp={"enabled": True}) for i in range(4)]
        store = CheckpointStore(str(tmp_path))
        warm_batch([(trace, workload, config, LENGTH, BOUNDS)
                    for config in sweep], store=store, width=4)
        for config in sweep:
            core = OOOCore(trace, config)
            warmer = FunctionalWarmer(core)
            for bound in BOUNDS:
                warmer.warm(bound)
                want = capture(core, warmer)
                got = store.get(store.key(workload, config, LENGTH, bound))
                assert got == json.loads(json.dumps(want)), (
                    "sweep lane %s diverged at %d" % (config.name, bound)
                )

    def test_single_lane_capture_equals_scalar(self):
        """A width-1 engine run over one job captures the same state a
        scalar in-place warm produces."""
        workload = "spec06_namd"
        trace = build_workload(workload, length=LENGTH)
        config = baseline(rfp={"enabled": True})
        scalar_core = OOOCore(trace, config)
        scalar_warmer = FunctionalWarmer(scalar_core).warm(LENGTH)
        want = capture(scalar_core, scalar_warmer)

        class Grab(object):
            def __init__(self):
                self.state = None

            def key(self, *parts):
                return "k"

            def contains(self, key):
                return False

            def get(self, key):
                return None

            def put(self, key, state):
                self.state = state

        grab = Grab()
        warm_batch([(trace, workload, config, LENGTH, [LENGTH])],
                   store=grab, width=1)
        assert grab.state == want


class TestParallelBatchLane:
    def test_batched_prewarm_matches_scalar_end_to_end(self, tmp_path,
                                                       monkeypatch):
        """``run_matrix(batch_warm=True)`` must produce the same results
        *and* the same checkpoint files as the scalar prewarm lane."""
        from repro.sim.cache import ResultCache
        from repro.sim.parallel import run_matrix

        configs = [baseline(name="a", rfp={"enabled": True}),
                   baseline(name="b", hit_miss_entries=2048,
                            rfp={"enabled": True})]
        workloads = ["spec06_bzip2", "spec06_mcf"]
        sampling = {"samples": 2}
        outputs = {}
        for lane, batch in (("scalar", False), ("batch", True)):
            monkeypatch.setenv("REPRO_CHECKPOINT_DIR",
                               str(tmp_path / ("ckpt-" + lane)))
            per_config, _report = run_matrix(
                configs, workloads, 1200, 400,
                cache=ResultCache(str(tmp_path / ("cache-" + lane))),
                max_workers=1, sampling=sampling, batch_warm=batch,
            )
            outputs[lane] = per_config
        for block_a, block_b in zip(outputs["scalar"], outputs["batch"]):
            for name in workloads:
                assert block_a[name].data == block_b[name].data
        scalar_dir = tmp_path / "ckpt-scalar"
        batch_dir = tmp_path / "ckpt-batch"
        scalar_files = sorted(p.name for p in scalar_dir.iterdir())
        assert scalar_files == sorted(p.name for p in batch_dir.iterdir())
        assert scalar_files  # the prewarm actually wrote checkpoints
        for name in scalar_files:
            assert (scalar_dir / name).read_bytes() == \
                (batch_dir / name).read_bytes(), name
