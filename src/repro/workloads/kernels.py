"""Micro-kernel library for synthetic workload construction.

Each kernel owns its static code (fixed PCs, so predictors see stable
static loads), its data regions, and a dedicated set of architectural
registers.  ``run(iters)`` yields dynamic instructions; the generator
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

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op

MASK64 = (1 << 64) - 1

# Opcode members bound once: reading an IntEnum member off its class costs
# several times a global read on CPython 3.11, and every yielded
# instruction names one.
ADD, SUB, XOR, MOV = Op.ADD, Op.SUB, Op.XOR, Op.MOV
FPADD, FPMUL, FMA = Op.FPADD, Op.FPMUL, Op.FMA
LOAD, STORE, BRANCH = Op.LOAD, Op.STORE, Op.BRANCH


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

    def _loop_branch(self, pc, src):
        """Loop-closing branch; mispredicts at the configured rate
        (loop exits, data-dependent trip counts)."""
        mispredicted = self.rng.random() < self.mispredict_rate
        return Instruction(
            pc, BRANCH, srcs=(src,), taken=True, mispredicted=mispredicted
        )

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
        self.pcs = self.builder.alloc_pcs(3)

    def run(self, iters):
        r_val, r_acc, r_idx = self.regs[:3]
        pc_load, pc_add, pc_branch = self.pcs
        for _ in range(iters):
            addr = self.base + 8 * self.position
            yield Instruction(pc_load, LOAD, dst=r_val, srcs=(r_idx,), addr=addr)
            yield Instruction(pc_add, ADD, dst=r_acc, srcs=(r_acc, r_val))
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(pc_branch, r_acc)
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
        self.pcs = self.builder.alloc_pcs(4)

    def run(self, iters):
        r_ptr, r_acc, _ = self.regs[:3]
        pc_load, pc_add, pc_branch, pc_root = self.pcs
        memory = self.builder.memory
        for _ in range(iters):
            addr = self.current
            if self._iteration % self.chain_len == 0:
                yield Instruction(pc_root, MOV, dst=r_ptr, imm=addr)
            yield Instruction(pc_load, LOAD, dst=r_ptr, srcs=(r_ptr,), addr=addr)
            self.current = memory[addr & ~7]
            yield Instruction(pc_add, XOR, dst=r_acc, srcs=(r_acc, r_ptr))
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(pc_branch, r_ptr)
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
        self.pcs = self.builder.alloc_pcs(4)

    def run(self, iters):
        r_ptr, r_acc, _ = self.regs[:3]
        pc_load, pc_add, pc_branch, pc_root = self.pcs
        for _ in range(iters):
            addr = self.base + 8 * self.position
            if self._iteration % self.chain_len == 0:
                # Fresh root pointer: breaks the load-to-load dependence.
                yield Instruction(pc_root, MOV, dst=r_ptr, imm=addr)
            yield Instruction(pc_load, LOAD, dst=r_ptr, srcs=(r_ptr,), addr=addr)
            yield Instruction(pc_add, ADD, dst=r_acc, srcs=(r_acc, r_ptr))
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(pc_branch, r_ptr)
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
        self.pcs = self.builder.alloc_pcs(7)

    def run(self, iters):
        r_a, r_b, r_c, r_t, r_u, _ = self.regs[:6]
        pcs = self.pcs
        for _ in range(iters):
            i = self.position
            yield Instruction(pcs[0], LOAD, dst=r_a, srcs=(), addr=self.src + 8 * i)
            yield Instruction(
                pcs[1], LOAD, dst=r_b, srcs=(), addr=self.src + 8 * (i + 1)
            )
            yield Instruction(
                pcs[2], LOAD, dst=r_c, srcs=(), addr=self.src + 8 * (i + 2)
            )
            yield Instruction(pcs[3], FPADD, dst=r_t, srcs=(r_a, r_b))
            yield Instruction(pcs[4], FPADD, dst=r_u, srcs=(r_t, r_c))
            yield Instruction(
                pcs[5], STORE, srcs=(r_u,), addr=self.dst + 8 * i
            )
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(pcs[6], r_u)
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
        self.pcs = self.builder.alloc_pcs(5)
        self.hot_words = min(self.hot_words, self.region_words)

    def run(self, iters):
        r_key, r_hash, r_val, r_acc = self.regs[:4]
        pcs = self.pcs
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
            yield Instruction(pcs[0], ADD, dst=r_key, srcs=(r_key,), imm=0x9E37)
            yield Instruction(pcs[1], XOR, dst=r_hash, srcs=(r_key,), imm=0x85EB)
            yield Instruction(pcs[2], LOAD, dst=r_val, srcs=(r_hash,), addr=slot_addr)
            yield Instruction(pcs[3], ADD, dst=r_acc, srcs=(r_acc, r_val))
            if self._iteration % 4 == 3:
                mispredicted = rng.random() < max(0.05, self.mispredict_rate)
                yield Instruction(
                    pcs[4],
                    BRANCH,
                    srcs=(r_val,),
                    taken=bool(rng.getrandbits(1)),
                    mispredicted=mispredicted,
                )
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
        self.pcs = self.builder.alloc_pcs(4 + self.gap_ops)

    def run(self, iters):
        r_v, r_acc, r_tmp, _ = self.regs[:4]
        pcs = self.pcs
        for _ in range(iters):
            slot = self.position % self.buffer_words
            addr = self.base + 8 * slot
            yield Instruction(pcs[0], ADD, dst=r_v, srcs=(r_v,), imm=13)
            yield Instruction(pcs[1], STORE, srcs=(r_v,), addr=addr)
            for g in range(self.gap_ops):
                yield Instruction(pcs[2 + g], ADD, dst=r_tmp, srcs=(r_tmp,), imm=1)
            yield Instruction(
                pcs[2 + self.gap_ops], LOAD, dst=r_acc, srcs=(), addr=addr
            )
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(pcs[3 + self.gap_ops], r_acc)
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
        self.pcs = self.builder.alloc_pcs(4)

    def run(self, iters):
        r_val, r_acc, _ = self.regs[:3]
        pcs = self.pcs
        rng = self.rng
        memory = self.builder.memory
        for _ in range(iters):
            addr = self.base + 8 * self.position
            yield Instruction(pcs[0], LOAD, dst=r_val, srcs=(), addr=addr)
            taken = bool(memory[addr & ~7] & 1)
            mispredicted = rng.random() < self.branch_mispredict
            yield Instruction(
                pcs[1], BRANCH, srcs=(r_val,), taken=taken, mispredicted=mispredicted
            )
            if taken:
                yield Instruction(pcs[2], ADD, dst=r_acc, srcs=(r_acc, r_val))
            else:
                yield Instruction(pcs[3], SUB, dst=r_acc, srcs=(r_acc, r_val))
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
        self.pcs = self.builder.alloc_pcs(5)

    def run(self, iters):
        r_a, r_b, r_acc, r_acc2, _ = self.regs[:5]
        pcs = self.pcs
        for _ in range(iters):
            i = self.position
            yield Instruction(pcs[0], LOAD, dst=r_a, srcs=(), addr=self.a + 8 * i)
            yield Instruction(pcs[1], LOAD, dst=r_b, srcs=(), addr=self.b + 8 * i)
            yield Instruction(pcs[2], FMA, dst=r_acc, srcs=(r_a, r_b, r_acc))
            yield Instruction(pcs[3], FPMUL, dst=r_acc2, srcs=(r_acc2, r_a))
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(pcs[4], r_acc)
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
        self.pcs = self.builder.alloc_pcs(4)

    def run(self, iters):
        r_idx, r_val, r_acc, _ = self.regs[:4]
        pcs = self.pcs
        memory = self.builder.memory
        rng = self.rng
        for _ in range(iters):
            index_addr = self.index_base + 8 * self.position
            if index_addr not in memory:
                # Lazy init: index words hold random offsets into the target.
                memory[index_addr] = rng.randrange(self.target_words)
            yield Instruction(pcs[0], LOAD, dst=r_idx, srcs=(), addr=index_addr)
            offset = memory[index_addr & ~7] % self.target_words
            target_addr = self.target_base + 8 * offset
            if target_addr not in memory:
                memory[target_addr] = (17 + 5 * offset) & MASK64
            yield Instruction(
                pcs[1], LOAD, dst=r_val, srcs=(r_idx,), addr=target_addr
            )
            yield Instruction(pcs[2], ADD, dst=r_acc, srcs=(r_acc, r_val))
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(pcs[3], r_acc)
            self._advance()


class ConstantPollKernel(KernelBase):
    """Repeated loads of the same (rarely changing) location: stride-0 for
    the PT and highly value-predictable for EVES."""

    REG_COUNT = 3
    NAME = "constant_poll"

    def _setup(self):
        self.base = self.builder.alloc_region(8)
        self.builder.init_const(self.base, 8, 42)
        self.pcs = self.builder.alloc_pcs(3)

    def run(self, iters):
        r_flag, r_acc, _ = self.regs[:3]
        pcs = self.pcs
        for _ in range(iters):
            yield Instruction(pcs[0], LOAD, dst=r_flag, srcs=(), addr=self.base)
            yield Instruction(pcs[1], ADD, dst=r_acc, srcs=(r_acc, r_flag))
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(pcs[2], r_flag)
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
        self.pcs = self.builder.alloc_pcs(4)

    def run(self, iters):
        r_val, r_acc, _ = self.regs[:3]
        pcs = self.pcs
        for _ in range(iters):
            i = self.position
            yield Instruction(pcs[0], LOAD, dst=r_val, srcs=(), addr=self.src + 8 * i)
            yield Instruction(pcs[1], STORE, srcs=(r_val,), addr=self.dst + 8 * i)
            yield Instruction(pcs[2], ADD, dst=r_acc, srcs=(r_acc,), imm=1)
            if self._iteration % self.loop_len == self.loop_len - 1:
                yield self._loop_branch(pcs[3], r_acc)
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
