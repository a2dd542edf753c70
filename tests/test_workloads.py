"""Workload builder, kernels, generator, and the 65-workload suite."""

import pytest

from repro.emu.emulator import ArchEmulator
from repro.isa.registers import NUM_ARCH_REGS
from repro.workloads.builder import TraceBuilder
from repro.workloads.generator import (
    LOCALITY_WORDS,
    WorkloadProfile,
    generate_trace,
)
from repro.workloads.kernels import KERNEL_TYPES
from repro.workloads.suite import (
    CATEGORIES,
    TRACE_CACHE_ENTRIES,
    WORKLOADS,
    build_workload,
    profile_for,
    suite_table,
    workload_category,
    workload_names,
)


class TestBuilder:
    def test_pc_allocation_disjoint(self):
        b = TraceBuilder()
        first = b.alloc_pcs(3)
        second = b.alloc_pcs(2)
        assert len(set(first) | set(second)) == 5

    def test_region_allocation_disjoint(self):
        b = TraceBuilder()
        r1 = b.alloc_region(100)
        r2 = b.alloc_region(100)
        assert r2 >= r1 + 100 * 8

    def test_init_arith(self):
        b = TraceBuilder()
        base = b.alloc_region(4)
        b.init_arith(base, 4, start=10, delta=3)
        assert [b.memory[base + 8 * k] for k in range(4)] == [10, 13, 16, 19]

    def test_init_permutation_chain_is_cycle(self):
        b = TraceBuilder(seed=3)
        base = b.alloc_region(16)
        start = b.init_permutation_chain(base, 16)
        seen = set()
        current = start
        for _ in range(16):
            assert current not in seen
            seen.add(current)
            current = b.memory[current & ~7]
        assert current == start
        assert len(seen) == 16

    def test_build_assigns_name(self):
        b = TraceBuilder(name="w", category="C")
        trace = b.build()
        assert trace.name == "w" and trace.category == "C"


class TestKernels:
    @pytest.mark.parametrize("name", sorted(KERNEL_TYPES))
    def test_kernel_emits_wellformed_instructions(self, name):
        b = TraceBuilder(seed=7)
        cls = KERNEL_TYPES[name]
        kernel = cls(b, list(range(1, 1 + cls.REG_COUNT)), region_words=256)
        items = list(kernel.run(50))
        assert items
        for static, addr, flags in items:
            if static.is_mem:
                assert addr >= 0
            else:
                assert addr == 0
            assert bool(flags) == static.is_branch
            for r in static.srcs:
                assert 0 <= r < NUM_ARCH_REGS
            if static.dst is not None:
                assert 0 <= static.dst < NUM_ARCH_REGS

    @pytest.mark.parametrize("name", sorted(KERNEL_TYPES))
    def test_kernel_reuses_static_pcs(self, name):
        b = TraceBuilder(seed=7)
        cls = KERNEL_TYPES[name]
        kernel = cls(b, list(range(1, 1 + cls.REG_COUNT)), region_words=256)
        pcs_first = {static.pc for static, _, _ in kernel.run(30)}
        pcs_second = {static.pc for static, _, _ in kernel.run(30)}
        assert pcs_second <= pcs_first | pcs_second
        assert pcs_first & pcs_second, "restarting must reuse static code"

    def test_sequential_chase_values_are_next_addresses(self):
        b = TraceBuilder(seed=7)
        cls = KERNEL_TYPES["sequential_chase"]
        kernel = cls(b, [1, 2, 3], region_words=64, stride_words=1, chain_len=8)
        loads = [addr for static, addr, _ in kernel.run(20) if static.is_load]
        for addr in loads:
            value = b.memory[addr & ~7]
            assert value >= kernel.base

    def test_hash_lookup_hot_skew(self):
        b = TraceBuilder(seed=7)
        cls = KERNEL_TYPES["hash_lookup"]
        kernel = cls(b, [1, 2, 3, 4], region_words=100_000,
                     hot_prob=0.9, hot_words=64)
        loads = [addr for static, addr, _ in kernel.run(400) if static.is_load]
        hot_limit = kernel.base + 8 * 64
        hot = sum(1 for addr in loads if addr < hot_limit)
        assert hot > 0.7 * len(loads)


class TestGenerator:
    def test_deterministic(self):
        p = WorkloadProfile(name="d", category="T", seed=5, length=500)
        a = generate_trace(p)
        b = generate_trace(p)
        assert [repr(i) for i in a] == [repr(i) for i in b]
        assert a.flags == b.flags
        assert list(a.initial_memory().items()) == \
            list(b.initial_memory().items())

    def test_length_respected(self):
        p = WorkloadProfile(name="d", category="T", seed=5, length=777)
        assert len(generate_trace(p)) == 777

    def test_register_partition_disjoint(self):
        mix = {name: 1.0 for name in KERNEL_TYPES}
        p = WorkloadProfile(name="d", category="T", seed=5, length=400,
                            kernel_mix=mix, concurrent=6)
        trace = generate_trace(p)
        # Writes from different PCs-chains should not collide: verified
        # indirectly by running the emulator without error.
        ArchEmulator(trace).run()

    def test_empty_profile_raises(self):
        p = WorkloadProfile(name="d", category="T", seed=5, length=10,
                            kernel_mix={"stencil": 1.0}, concurrent=0)
        with pytest.raises(ValueError):
            generate_trace(p)

    def test_locality_words_ordered(self):
        assert LOCALITY_WORDS["l1"][1] < LOCALITY_WORDS["l2"][0]
        assert LOCALITY_WORDS["l2"][1] < LOCALITY_WORDS["llc"][0]
        assert LOCALITY_WORDS["llc"][1] < LOCALITY_WORDS["dram"][0]


class TestSuite:
    def test_sixty_five_workloads(self):
        assert len(WORKLOADS) == 65
        assert len(workload_names()) == 65

    def test_categories_cover_paper_table3(self):
        assert set(WORKLOADS.values()) == set(CATEGORIES)

    def test_category_lookup(self):
        assert workload_category("spec06_mcf") == "ISPEC06"
        assert workload_category("spec17_lbm") == "FSPEC17"
        assert workload_category("hadoop") == "Cloud"

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            profile_for("not_a_workload")

    def test_profiles_have_distinct_seeds(self):
        seeds = {profile_for(n).seed for n in workload_names()}
        assert len(seeds) == 65

    def test_build_workload_cached(self):
        a = build_workload("spec06_astar", length=1000)
        b = build_workload("spec06_astar", length=1000)
        assert a is b

    def test_suite_table_counts(self):
        rows = suite_table()
        assert sum(count for _, count, _ in rows) == 65

    def test_workload_traces_are_runnable(self):
        trace = build_workload("geekbench", length=1200)
        ArchEmulator(trace).run()
        assert 0.1 < trace.load_count / len(trace) < 0.6


class TestTraceCacheBound:
    """``TRACE_CACHE_ENTRIES`` bounds build_workload's lru_cache."""

    def test_default_capacity(self):
        assert build_workload.cache_info().maxsize == TRACE_CACHE_ENTRIES == 16
