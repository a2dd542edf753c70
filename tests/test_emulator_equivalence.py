"""The big end-to-end invariant: the OOO core's committed architectural
state equals the in-order reference emulator's, bit for bit, under every
feature combination — renaming, forwarding, ordering flushes, RFP data
supply, and value-prediction recovery all preserved architectural
semantics or these fail.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import quiet_config

from repro.core.core import OOOCore
from repro.emu.emulator import ArchEmulator
from repro.workloads.generator import WorkloadProfile, generate_trace
from repro.workloads.suite import build_workload


def assert_equivalent(trace, config):
    core = OOOCore(trace, config, record_commits=True)
    core.run()
    emu = ArchEmulator(trace).run()
    assert core.architectural_registers() == emu.registers.values
    # Committed memory (the core's writes over the shared initial image)
    # must match for every address either side touched.
    committed = {**core.image, **core.memory}
    for addr in set(committed) | set(emu.memory):
        assert committed.get(addr, 0) == emu.memory.get(addr, 0), hex(addr)
    assert core.stats.instructions == len(trace)


def profile(seed, mix, length=1500, **kwargs):
    kwargs.setdefault("concurrent", 4)
    return WorkloadProfile(
        name="prop-%d" % seed, category="T", seed=seed, length=length,
        kernel_mix=mix, **kwargs
    )


ALL_MIX = {
    "strided_sum": 0.15, "sequential_chase": 0.1, "pointer_chase": 0.1,
    "hash_lookup": 0.1, "store_forward": 0.2, "branchy_reduce": 0.1,
    "matmul_tile": 0.05, "indirect_gather": 0.1, "constant_poll": 0.05,
    "copy_stream": 0.05,
}

FEATURE_CONFIGS = {
    "baseline": dict(),
    "rfp": dict(rfp={"enabled": True}),
    "rfp-nopat": dict(rfp={"enabled": True, "use_pat": False}),
    "rfp-context": dict(rfp={"enabled": True, "context_enabled": True}),
    "vp-eves": dict(vp={"enabled": True, "kind": "eves",
                        "confidence_max": 3, "confidence_increment_prob": 1.0}),
    "vp-dlvp": dict(vp={"enabled": True, "kind": "dlvp",
                        "confidence_max": 3, "confidence_increment_prob": 1.0}),
    "vp-epp": dict(vp={"enabled": True, "kind": "epp",
                       "confidence_max": 3, "confidence_increment_prob": 1.0}),
    "vp+rfp": dict(rfp={"enabled": True},
                   vp={"enabled": True, "kind": "eves",
                       "confidence_max": 3, "confidence_increment_prob": 1.0}),
}


@pytest.mark.parametrize("feature", sorted(FEATURE_CONFIGS))
def test_equivalence_mixed_workload(feature):
    trace = generate_trace(profile(11, ALL_MIX, mispredict_rate=0.05))
    assert_equivalent(trace, quiet_config(**FEATURE_CONFIGS[feature]))


@pytest.mark.parametrize("feature", ["baseline", "rfp", "vp+rfp"])
def test_equivalence_store_heavy(feature):
    mix = {"store_forward": 0.6, "sequential_chase": 0.2, "copy_stream": 0.2}
    trace = generate_trace(profile(7, mix, mispredict_rate=0.08))
    assert_equivalent(trace, quiet_config(**FEATURE_CONFIGS[feature]))


@pytest.mark.parametrize("feature", ["baseline", "rfp"])
def test_equivalence_with_prefetchers_enabled(feature):
    from repro.core.config import baseline as full_baseline
    trace = generate_trace(profile(23, ALL_MIX))
    config = full_baseline(**FEATURE_CONFIGS[feature])
    assert_equivalent(trace, config)


def test_equivalence_suite_workload():
    trace = build_workload("spec06_gcc", length=3000)
    assert_equivalent(trace, quiet_config(rfp={"enabled": True}))


def test_equivalence_tiny_core():
    """Small window sizes force every structural-stall path."""
    trace = generate_trace(profile(31, ALL_MIX, length=800))
    config = quiet_config(
        rob_entries=16, rs_entries=8, lq_entries=8, sq_entries=6,
        prf_entries=64, rfp={"enabled": True},
    )
    assert_equivalent(trace, config)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_equivalence_random_seeds_rfp(seed):
    trace = generate_trace(profile(seed, ALL_MIX, length=900,
                                   mispredict_rate=0.06))
    assert_equivalent(trace, quiet_config(rfp={"enabled": True}))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_equivalence_random_seeds_vp_rfp(seed):
    trace = generate_trace(profile(seed, ALL_MIX, length=900))
    config = quiet_config(**FEATURE_CONFIGS["vp+rfp"])
    assert_equivalent(trace, config)


def test_committed_load_values_match_emulator():
    trace = generate_trace(profile(3, ALL_MIX, length=1200))
    core = OOOCore(trace, quiet_config(rfp={"enabled": True}),
                   record_commits=True)
    core.run()
    emu = ArchEmulator(trace).run()
    # core.committed holds (trace_index, value) for committed loads in
    # commit order == program order.
    load_indices = [i for i, instr in enumerate(trace) if instr.is_load]
    committed_loads = [(i, v) for i, v in core.committed
                       if trace[i].is_load]
    assert [v for _, v in committed_loads] == emu.load_values
    assert [i for i, _ in committed_loads] == load_indices
