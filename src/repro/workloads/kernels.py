"""Micro-kernel library for synthetic workload construction.

Each kernel owns its static code (fixed PCs, so predictors see stable
static loads), its data regions, and a dedicated set of architectural
registers.  Each kernel interns its static instructions once, in
``_setup``; ``run(iters)`` yields ``(static, addr, flags)`` triples, one
per dynamic instruction (``addr`` for memory ops, the
:data:`~repro.isa.trace.BRANCH` flag byte for branches, else 0); the generator
interleaves several kernels round-robin to create ILP across chains, the
way real workloads mix independent computation.

Kernel roles in reproducing the paper's population statistics:

===================  ========================================================
Kernel               Behaviour it contributes
===================  ========================================================
StridedSumKernel     stride-predictable L1-resident loads (RFP bread+butter)
PointerChaseKernel   serial load chains -> L1 latency on the critical path
StencilKernel        FP streams, multiple strided loads per iteration
HashLookupKernel     random-index loads (unpredictable; L2/LLC/DRAM misses)
StoreForwardKernel   store->load aliasing (forwarding + MD machinery)
BranchyReduceKernel  data-dependent branches with mispredictions
MatmulTileKernel     FMA-latency-bound compute (RFP-insensitive, FSPEC-like)
IndirectGatherKernel strided index load feeding an unpredictable data load
ConstantPollKernel   same-address loads (value-predictable; EVES coverage)
CopyStreamKernel     strided load+store streaming
===================  ========================================================
"""

from repro.isa.opcodes import Op
from repro.isa.trace import BRANCH as _BR, MISPREDICTED, TAKEN

MASK64 = (1 << 64) - 1

ADD, SUB, XOR, MOV = Op.ADD, Op.SUB, Op.XOR, Op.MOV
FPADD, FPMUL, FMA = Op.FPADD, Op.FPMUL, Op.FMA
LOAD, STORE, BRANCH = Op.LOAD, Op.STORE, Op.BRANCH

#: Flag bytes of a taken loop branch, predicted and mispredicted.
_LOOP_TAKEN = _BR | TAKEN
_LOOP_MISPREDICTED = _BR | TAKEN | MISPREDICTED


class KernelBase(object):
    """Common state: registers, code addresses, loop-branch behaviour."""

    #: architectural registers each instance needs
    REG_COUNT = 3
    NAME = "base"

    def __init__(self, builder, regs, region_words=2048, mispredict_rate=0.02,
                 loop_len=16):
        self.builder = builder
        self.rng = builder.rng
        self.regs = regs
        self.region_words = max(8, region_words)
        self.mispredict_rate = mispredict_rate
        self.loop_len = loop_len
        self.position = 0
        self._iteration = 0
        self._setup()

    def _setup(self):
        raise NotImplementedError

    def _loop_branch(self, static):
        """Loop-closing taken branch; mispredicts at the configured rate
        (loop exits, data-dependent trip counts)."""
        if self.rng.random() < self.mispredict_rate:
            return static, 0, _LOOP_MISPREDICTED
        return static, 0, _LOOP_TAKEN

    def run(self, iters):
        raise NotImplementedError

    def _advance(self, step=1):
        self.position = (self.position + step) % self.region_words
        self._iteration += 1


class StridedSumKernel(KernelBase):
    """``for i: acc += a[i*stride]`` — the canonical RFP target."""

    REG_COUNT = 3
    NAME = "strided_sum"

    def __init__(self, builder, regs, stride_words=1, **kwargs):
        self.stride_words = max(1, stride_words)
        super(StridedSumKernel, self).__init__(builder, regs, **kwargs)

    def _setup(self):
        self.base = self.builder.alloc_region(self.region_words)
        self.builder.init_arith(self.base, self.region_words, start=3, delta=7)
        pc_load, pc_add, pc_branch = self.builder.alloc_pcs(3)
        r_val, r_acc, r_idx = self.regs[:3]
        static = self.builder.static
        self.statics = (
            static(pc_load, LOAD, r_val, (r_idx,)),
            static(pc_add, ADD, r_acc, (r_acc, r_val)),
            static(pc_branch, BRANCH, srcs=(r_acc,)),
        )

    def run(self, iters):
        s_load, s_add, s_branch = self.statics
        for _ in range(iters):
            yield s_load, self.base + 8 * self.position, 0
            yield s_add, 0, 0
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(s_branch)
            self._advance(self.stride_words)


class PointerChaseKernel(KernelBase):
    """Linked-list traversal: each load's value is the next load's address.

    Not stride predictable, but every hop is an L1 hit whose 5-cycle
    latency sits squarely on the critical path — the Fig. 1/Fig. 3 story.
    """

    REG_COUNT = 3
    NAME = "pointer_chase"

    def __init__(self, builder, regs, chain_len=16, **kwargs):
        #: Dependent hops per walk before restarting from a fresh root.
        self.chain_len = max(2, chain_len)
        super(PointerChaseKernel, self).__init__(builder, regs, **kwargs)

    def _setup(self):
        self.base = self.builder.alloc_region(self.region_words)
        self.current = self.builder.init_permutation_chain(
            self.base, self.region_words
        )
        pc_load, pc_add, pc_branch, self.pc_root = self.builder.alloc_pcs(4)
        r_ptr, r_acc, _ = self.regs[:3]
        static = self.builder.static
        self.statics = (
            static(pc_load, LOAD, r_ptr, (r_ptr,)),
            static(pc_add, XOR, r_acc, (r_acc, r_ptr)),
            static(pc_branch, BRANCH, srcs=(r_ptr,)),
        )

    def run(self, iters):
        s_load, s_xor, s_branch = self.statics
        r_ptr = self.regs[0]
        static = self.builder.static
        memory = self.builder.memory
        for _ in range(iters):
            addr = self.current
            if self._iteration % self.chain_len == 0:
                # The root's immediate is its address: one static per root.
                yield static(self.pc_root, MOV, r_ptr, imm=addr), 0, 0
            yield s_load, addr, 0
            self.current = memory[addr & ~7]
            yield s_xor, 0, 0
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(s_branch)
            self._advance()


class SequentialChaseKernel(KernelBase):
    """Traversal of a contiguously allocated linked structure.

    Each node holds the address of the next, but the allocator laid nodes
    out sequentially — so the *addresses* are perfectly strided (RFP can
    prefetch them) while the *dataflow* is a serial load-to-load chain (the
    5-cycle L1 latency is the critical path).  This is the paper's Fig. 3
    situation and the single biggest RFP win: list/tree walks over
    pool-allocated nodes, row pointers in databases, rope/deque segments.
    """

    REG_COUNT = 3
    NAME = "sequential_chase"

    def __init__(self, builder, regs, stride_words=2, chain_len=12, **kwargs):
        self.stride_words = max(1, stride_words)
        #: Dependent hops before the walk restarts from a fresh root
        #: (lists are finite; walks are interleaved with other work).  This
        #: bounds the serial critical path a single chain contributes.
        self.chain_len = max(2, chain_len)
        super(SequentialChaseKernel, self).__init__(builder, regs, **kwargs)

    def _setup(self):
        words = self.region_words
        self.base = self.builder.alloc_region(words)
        # node[i] -> address of node[i + stride] (wrapping): a sequential
        # free-list layout.
        memory = self.builder.memory
        for i in range(words):
            nxt = (i + self.stride_words) % words
            memory[self.base + 8 * i] = self.base + 8 * nxt
        pc_load, pc_add, pc_branch, self.pc_root = self.builder.alloc_pcs(4)
        r_ptr, r_acc, _ = self.regs[:3]
        static = self.builder.static
        self.statics = (
            static(pc_load, LOAD, r_ptr, (r_ptr,)),
            static(pc_add, ADD, r_acc, (r_acc, r_ptr)),
            static(pc_branch, BRANCH, srcs=(r_ptr,)),
        )

    def run(self, iters):
        s_load, s_add, s_branch = self.statics
        r_ptr = self.regs[0]
        static = self.builder.static
        for _ in range(iters):
            addr = self.base + 8 * self.position
            if self._iteration % self.chain_len == 0:
                # Fresh root pointer: breaks the load-to-load dependence.
                yield static(self.pc_root, MOV, r_ptr, imm=addr), 0, 0
            yield s_load, addr, 0
            yield s_add, 0, 0
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(s_branch)
            self._advance(self.stride_words)


class StencilKernel(KernelBase):
    """1-D three-point stencil with FP arithmetic and a result store."""

    REG_COUNT = 6
    NAME = "stencil"

    def _setup(self):
        words = self.region_words
        self.src = self.builder.alloc_region(words + 2)
        self.dst = self.builder.alloc_region(words)
        self.builder.init_arith(self.src, words + 2, start=11, delta=3)
        pcs = self.builder.alloc_pcs(7)
        r_a, r_b, r_c, r_t, r_u, _ = self.regs[:6]
        static = self.builder.static
        self.statics = (
            static(pcs[0], LOAD, r_a),
            static(pcs[1], LOAD, r_b),
            static(pcs[2], LOAD, r_c),
            static(pcs[3], FPADD, r_t, (r_a, r_b)),
            static(pcs[4], FPADD, r_u, (r_t, r_c)),
            static(pcs[5], STORE, srcs=(r_u,)),
            static(pcs[6], BRANCH, srcs=(r_u,)),
        )

    def run(self, iters):
        s_a, s_b, s_c, s_add1, s_add2, s_store, s_branch = self.statics
        for _ in range(iters):
            i = self.position
            yield s_a, self.src + 8 * i, 0
            yield s_b, self.src + 8 * (i + 1), 0
            yield s_c, self.src + 8 * (i + 2), 0
            yield s_add1, 0, 0
            yield s_add2, 0, 0
            yield s_store, self.dst + 8 * i, 0
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(s_branch)
            self._advance()


class HashLookupKernel(KernelBase):
    """Random probes over a table: unpredictable addresses, deeper misses
    when the region exceeds the L1/L2.

    Probes follow a hot/cold skew (real hash tables and caches are Zipfian):
    ``hot_prob`` of the probes target a small hot set that stays cache
    resident; the rest roam the full region.
    """

    REG_COUNT = 4
    NAME = "hash_lookup"

    def __init__(self, builder, regs, hot_prob=0.9, hot_words=768, **kwargs):
        self.hot_prob = hot_prob
        self.hot_words = hot_words
        super(HashLookupKernel, self).__init__(builder, regs, **kwargs)

    def _setup(self):
        self.base = self.builder.alloc_region(self.region_words)
        pcs = self.builder.alloc_pcs(5)
        self.hot_words = min(self.hot_words, self.region_words)
        r_key, r_hash, r_val, r_acc = self.regs[:4]
        static = self.builder.static
        self.statics = (
            static(pcs[0], ADD, r_key, (r_key,), 0x9E37),
            static(pcs[1], XOR, r_hash, (r_key,), 0x85EB),
            static(pcs[2], LOAD, r_val, (r_hash,)),
            static(pcs[3], ADD, r_acc, (r_acc, r_val)),
            static(pcs[4], BRANCH, srcs=(r_val,)),
        )

    def run(self, iters):
        s_key, s_hash, s_load, s_acc, s_branch = self.statics
        rng = self.rng
        memory = self.builder.memory
        for _ in range(iters):
            if rng.random() < self.hot_prob:
                slot = rng.randrange(self.hot_words)
            else:
                slot = rng.randrange(self.region_words)
            slot_addr = self.base + 8 * slot
            if slot_addr not in memory:
                # Lazy init: only touched slots enter the memory image.
                memory[slot_addr] = rng.randint(0, (1 << 32) - 1)
            # The probe address derives from the key stream only (a 1-cycle
            # chain), so independent probes overlap — hash tables have high
            # memory-level parallelism, unlike pointer chasing.
            yield s_key, 0, 0
            yield s_hash, 0, 0
            yield s_load, slot_addr, 0
            yield s_acc, 0, 0
            if self._iteration % 4 == 3:
                flags = _BR
                if rng.random() < max(0.05, self.mispredict_rate):
                    flags |= MISPREDICTED
                if rng.getrandbits(1):
                    flags |= TAKEN
                yield s_branch, 0, flags
            self._advance()


class StoreForwardKernel(KernelBase):
    """Store-then-load over a small circular buffer.

    The reload lands within a few instructions of the store, exercising
    store-to-load forwarding, memory-dependence prediction, and (until the
    predictor learns) ordering-violation flushes — also the stores RFP
    requests must wait behind (§3.2.1).
    """

    REG_COUNT = 4
    NAME = "store_forward"

    def __init__(self, builder, regs, buffer_words=16, gap_ops=2, **kwargs):
        self.buffer_words = buffer_words
        self.gap_ops = gap_ops
        kwargs.setdefault("region_words", buffer_words)
        super(StoreForwardKernel, self).__init__(builder, regs, **kwargs)

    def _setup(self):
        self.base = self.builder.alloc_region(self.buffer_words)
        self.builder.init_const(self.base, self.buffer_words, 1)
        pcs = self.builder.alloc_pcs(4 + self.gap_ops)
        r_v, r_acc, r_tmp, _ = self.regs[:4]
        gap = self.gap_ops
        static = self.builder.static
        self.statics = (
            static(pcs[0], ADD, r_v, (r_v,), 13),
            static(pcs[1], STORE, srcs=(r_v,)),
            tuple(static(pcs[2 + g], ADD, r_tmp, (r_tmp,), 1)
                  for g in range(gap)),
            static(pcs[2 + gap], LOAD, r_acc),
            static(pcs[3 + gap], BRANCH, srcs=(r_acc,)),
        )

    def run(self, iters):
        s_add, s_store, s_gaps, s_load, s_branch = self.statics
        for _ in range(iters):
            slot = self.position % self.buffer_words
            addr = self.base + 8 * slot
            yield s_add, 0, 0
            yield s_store, addr, 0
            for s_gap in s_gaps:
                yield s_gap, 0, 0
            yield s_load, addr, 0
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(s_branch)
            self._advance()


class BranchyReduceKernel(KernelBase):
    """Strided loads feeding data-dependent branches (control-bound)."""

    REG_COUNT = 3
    NAME = "branchy_reduce"

    def __init__(self, builder, regs, branch_mispredict=0.10, **kwargs):
        self.branch_mispredict = branch_mispredict
        super(BranchyReduceKernel, self).__init__(builder, regs, **kwargs)

    def _setup(self):
        self.base = self.builder.alloc_region(self.region_words)
        self.builder.init_random(self.base, self.region_words)
        pcs = self.builder.alloc_pcs(4)
        r_val, r_acc, _ = self.regs[:3]
        static = self.builder.static
        self.statics = (
            static(pcs[0], LOAD, r_val),
            static(pcs[1], BRANCH, srcs=(r_val,)),
            static(pcs[2], ADD, r_acc, (r_acc, r_val)),
            static(pcs[3], SUB, r_acc, (r_acc, r_val)),
        )

    def run(self, iters):
        s_load, s_branch, s_add, s_sub = self.statics
        rng = self.rng
        memory = self.builder.memory
        for _ in range(iters):
            addr = self.base + 8 * self.position
            yield s_load, addr, 0
            taken = memory[addr & ~7] & 1
            flags = _BR | TAKEN if taken else _BR
            if rng.random() < self.branch_mispredict:
                flags |= MISPREDICTED
            yield s_branch, 0, flags
            yield (s_add if taken else s_sub), 0, 0
            self._advance()


class MatmulTileKernel(KernelBase):
    """FMA-chained dense compute: the FSPEC-style workloads whose
    bottleneck is FP latency/ports, not L1 latency (paper §5.1 observes
    these gain little from RFP despite high coverage)."""

    REG_COUNT = 5
    NAME = "matmul_tile"

    def _setup(self):
        words = self.region_words
        self.a = self.builder.alloc_region(words)
        self.b = self.builder.alloc_region(words)
        self.builder.init_arith(self.a, words, start=1, delta=2)
        self.builder.init_arith(self.b, words, start=5, delta=1)
        pcs = self.builder.alloc_pcs(5)
        r_a, r_b, r_acc, r_acc2, _ = self.regs[:5]
        static = self.builder.static
        self.statics = (
            static(pcs[0], LOAD, r_a),
            static(pcs[1], LOAD, r_b),
            static(pcs[2], FMA, r_acc, (r_a, r_b, r_acc)),
            static(pcs[3], FPMUL, r_acc2, (r_acc2, r_a)),
            static(pcs[4], BRANCH, srcs=(r_acc,)),
        )

    def run(self, iters):
        s_a, s_b, s_fma, s_mul, s_branch = self.statics
        for _ in range(iters):
            i = self.position
            yield s_a, self.a + 8 * i, 0
            yield s_b, self.b + 8 * i, 0
            yield s_fma, 0, 0
            yield s_mul, 0, 0
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(s_branch)
            self._advance()


class IndirectGatherKernel(KernelBase):
    """``acc += data[index[i]]``: the index stream is stride-predictable
    (RFP-coverable), the gathered data stream is not."""

    REG_COUNT = 4
    NAME = "indirect_gather"

    def __init__(self, builder, regs, target_words=4096, **kwargs):
        self.target_words = target_words
        super(IndirectGatherKernel, self).__init__(builder, regs, **kwargs)

    def _setup(self):
        self.index_base = self.builder.alloc_region(self.region_words)
        self.target_base = self.builder.alloc_region(self.target_words)
        pcs = self.builder.alloc_pcs(4)
        r_idx, r_val, r_acc, _ = self.regs[:4]
        static = self.builder.static
        self.statics = (
            static(pcs[0], LOAD, r_idx),
            static(pcs[1], LOAD, r_val, (r_idx,)),
            static(pcs[2], ADD, r_acc, (r_acc, r_val)),
            static(pcs[3], BRANCH, srcs=(r_acc,)),
        )

    def run(self, iters):
        s_index, s_gather, s_add, s_branch = self.statics
        memory = self.builder.memory
        rng = self.rng
        for _ in range(iters):
            index_addr = self.index_base + 8 * self.position
            if index_addr not in memory:
                # Lazy init: index words hold random offsets into the target.
                memory[index_addr] = rng.randrange(self.target_words)
            yield s_index, index_addr, 0
            offset = memory[index_addr & ~7] % self.target_words
            target_addr = self.target_base + 8 * offset
            if target_addr not in memory:
                memory[target_addr] = (17 + 5 * offset) & MASK64
            yield s_gather, target_addr, 0
            yield s_add, 0, 0
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(s_branch)
            self._advance()


class ConstantPollKernel(KernelBase):
    """Repeated loads of the same (rarely changing) location: stride-0 for
    the PT and highly value-predictable for EVES."""

    REG_COUNT = 3
    NAME = "constant_poll"

    def _setup(self):
        self.base = self.builder.alloc_region(8)
        self.builder.init_const(self.base, 8, 42)
        pcs = self.builder.alloc_pcs(3)
        r_flag, r_acc, _ = self.regs[:3]
        static = self.builder.static
        self.statics = (
            static(pcs[0], LOAD, r_flag),
            static(pcs[1], ADD, r_acc, (r_acc, r_flag)),
            static(pcs[2], BRANCH, srcs=(r_flag,)),
        )

    def run(self, iters):
        s_load, s_add, s_branch = self.statics
        for _ in range(iters):
            yield s_load, self.base, 0
            yield s_add, 0, 0
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(s_branch)
            self._advance()


class CopyStreamKernel(KernelBase):
    """Strided memcpy-style load+store streaming."""

    REG_COUNT = 3
    NAME = "copy_stream"

    def _setup(self):
        words = self.region_words
        self.src = self.builder.alloc_region(words)
        self.dst = self.builder.alloc_region(words)
        self.builder.init_arith(self.src, words, start=23, delta=9)
        pcs = self.builder.alloc_pcs(4)
        r_val, r_acc, _ = self.regs[:3]
        static = self.builder.static
        self.statics = (
            static(pcs[0], LOAD, r_val),
            static(pcs[1], STORE, srcs=(r_val,)),
            static(pcs[2], ADD, r_acc, (r_acc,), 1),
            static(pcs[3], BRANCH, srcs=(r_acc,)),
        )

    def run(self, iters):
        s_load, s_store, s_add, s_branch = self.statics
        for _ in range(iters):
            i = self.position
            yield s_load, self.src + 8 * i, 0
            yield s_store, self.dst + 8 * i, 0
            yield s_add, 0, 0
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(s_branch)
            self._advance()


#: Registry used by profiles to name kernels.
KERNEL_TYPES = {
    cls.NAME: cls
    for cls in (
        StridedSumKernel,
        SequentialChaseKernel,
        PointerChaseKernel,
        StencilKernel,
        HashLookupKernel,
        StoreForwardKernel,
        BranchyReduceKernel,
        MatmulTileKernel,
        IndirectGatherKernel,
        ConstantPollKernel,
        CopyStreamKernel,
    )
}
