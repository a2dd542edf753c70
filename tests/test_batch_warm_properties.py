"""Property-based warm-state equivalence over random traces.

Hypothesis drives the workload generator with random seeds, kernel mixes
and cache geometries.  For every generated trace, one shared
:func:`~repro.sim.checkpoint.ensure_checkpoints` pass over several RFP
configs with one hierarchy fingerprint (it walks the caches once and
trains every table set in the same loop) must capture, at every
1k-instruction boundary, exactly the state a lone
:class:`FunctionalWarmer` per config captures: the RFP prefetch table
(stride/confidence/utility and the RNG draw count), the PAT (pages,
pointers and LRU stamps), the context prefetcher, cache and DTLB contents
in LRU order, and every derived counter.  Full-payload equality subsumes
the PT/PAT/LRU contract, but those three are also asserted by name so a
shrunk failing example says which structure diverged first.  A second
property warms a batch of configs over several cache geometries in one
call (one shared pass per geometry) against the same per-config oracle.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import baseline
from repro.core.core import OOOCore
from repro.emu.warmup import FunctionalWarmer
from repro.sim.checkpoint import (
    capture, ensure_checkpoints, hierarchy_fingerprint,
)
from repro.workloads.generator import WorkloadProfile, generate_trace

LENGTH = 4000
BOUNDARIES = list(range(1000, LENGTH + 1, 1000))

MIXES = [
    {"strided_sum": 0.5, "hash_lookup": 0.3, "branchy_reduce": 0.2},
    {"pointer_chase": 0.4, "store_forward": 0.4, "constant_poll": 0.2},
    {"indirect_gather": 0.5, "copy_stream": 0.3, "sequential_chase": 0.2},
]

#: Cache geometries; every config of one pass shares one of them.
GEOMETRIES = [
    {},
    {"l1_size": 16384, "l1_assoc": 4, "l2_size": 131072, "l2_assoc": 8},
    {"l2_prefetcher_enabled": False, "l1_next_line_prefetch": False},
]

#: RFP table sets trained side by side in one pass.
RFP_TABLES = [
    ("rfp", {"enabled": True}),
    ("ctx", {"enabled": True, "context_enabled": True}),
    ("nopat", {"enabled": True, "use_pat": False}),
]


class _Recorder(object):
    """Store stand-in keyed by (config name, position): records every put."""

    def __init__(self):
        self.states = {}

    def key(self, workload, config, length, functional):
        return config.name, functional

    def contains(self, key):
        return False

    def get(self, key):
        return None

    def put(self, key, state):
        self.states[key] = state


def _trace_for(seed, mix_index):
    profile = WorkloadProfile(
        name="prop-warm-%d-%d" % (seed, mix_index), category="T",
        seed=seed, length=LENGTH, kernel_mix=MIXES[mix_index],
        concurrent=4,
    )
    return generate_trace(profile)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    mix_index=st.integers(min_value=0, max_value=len(MIXES) - 1),
    geometry_index=st.integers(min_value=0, max_value=len(GEOMETRIES) - 1),
)
def test_random_traces_agree_at_every_1k_boundary(seed, mix_index,
                                                  geometry_index):
    trace = _trace_for(seed, mix_index)
    configs = [baseline(name=name, rfp=rfp, **GEOMETRIES[geometry_index])
               for name, rfp in RFP_TABLES]
    assert len({hierarchy_fingerprint(c) for c in configs}) == 1

    recorder = _Recorder()
    outcome = ensure_checkpoints(trace, trace.name, configs, LENGTH,
                                 BOUNDARIES, recorder)
    assert outcome == dict.fromkeys(BOUNDARIES, "warmed")

    for config in configs:
        core = OOOCore(trace, config)
        warmer = FunctionalWarmer(core)
        for boundary in BOUNDARIES:
            warmer.warm(boundary)
            want = capture(core, warmer)
            got = recorder.states[config.name, boundary]
            where = "%s at %d" % (config.name, boundary)
            assert got["rfp"]["pt"] == want["rfp"]["pt"], "PT: " + where
            assert got["rfp"].get("pat") == want["rfp"].get("pat"), (
                "PAT: " + where)
            assert got["rfp"].get("context") == want["rfp"].get("context"), (
                "context: " + where)
            assert got["hierarchy"] == want["hierarchy"], (
                "cache/DTLB LRU state: " + where)
            assert got == want, "full payload: " + where


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 16))
def test_random_sweep_lanes_agree_in_lockstep(seed):
    """A sweep of configs over one random trace, spread over every
    geometry, in one :func:`ensure_checkpoints` call: each config must
    match its own lone scalar warmer at every boundary."""
    trace = _trace_for(seed, 0)
    configs = [baseline(name="%s-g%d" % (name, index), rfp=rfp, **geometry)
               for index, geometry in enumerate(GEOMETRIES)
               for name, rfp in RFP_TABLES[:2]]
    assert len({hierarchy_fingerprint(c) for c in configs}) == len(
        GEOMETRIES)

    recorder = _Recorder()
    outcome = ensure_checkpoints(trace, trace.name, configs, LENGTH,
                                 BOUNDARIES, recorder)
    assert outcome == dict.fromkeys(BOUNDARIES, "warmed")
    for config in configs:
        core = OOOCore(trace, config)
        warmer = FunctionalWarmer(core)
        for boundary in BOUNDARIES:
            warmer.warm(boundary)
            assert recorder.states[config.name, boundary] == capture(
                core, warmer), "lane %s diverged at %d" % (config.name,
                                                           boundary)
