"""Functional fast-forward warming: the fast half of two-speed simulation.

The measured region of every experiment is reported post-warmup, yet a
one-speed engine simulates the warmup window through the full cycle-level
OOO core — an order of magnitude slower than architectural execution.  The
:class:`FunctionalWarmer` executes the warmup region in order, with
architectural semantics only (no ROB/RS/LSQ cycle machinery), while warming
exactly the structures whose state carries into measured-region timing:

- **L1/L2/LLC + DTLB contents** via
  :meth:`~repro.memory.hierarchy.MemoryHierarchy.warm_load` /
  :meth:`~repro.memory.hierarchy.MemoryHierarchy.warm_store`, which mirror
  the detailed fill policy (inclusive inward fills, L2 stride prefetcher,
  next-line prefetch) without MSHR/DRAM timing state;
- **hit-miss predictor** counters, trained with the pre-fill presence
  outcome of each load;
- **RFP Prefetch Table / PAT**, driven through the same
  allocate -> commit -> train protocol per load that the detailed core's
  commit stage uses, so stride/confidence state *and* the probabilistic
  confidence counter's RNG stream stay aligned with a detailed run over
  the same region;
- **memory-dependence predictor** decay (``train_commit``);
- **branch path history**, the only branch-predictor state the trace-driven
  frontend keeps.

What is *not* warmed: value-predictor tables (their training consumes
pipeline events — dispatch-time inflight counters, validation outcomes —
that do not exist functionally; the runner keeps VP configs full-detail)
and transient micro-state such as MSHR occupancy or store-queue contents,
which the detailed ramp re-establishes before measurement begins (see
``CoreConfig.ff_detail_ramp``).

After :meth:`warm`, the core's committed memory image and architectural
registers hold the warmed-up state and its fetch cursor points at the
boundary, so ``core.run()`` simulates only the remaining instructions.
"""

from repro.core.frontend import PATH_MASK
from repro.emu.emulator import ArchEmulator
from repro.isa.opcodes import EVALUATORS, Op

#: Process-wide count of functional warm passes (warmer instances that
#: actually executed instructions).  The checkpoint layer's "warm once,
#: measure many" claim is asserted against this counter: a sweep that
#: restores every cell from the checkpoint store must not tick it at all.
_warm_passes = 0


def warm_pass_count():
    """Functional warm passes performed by this process so far."""
    return _warm_passes


def reset_warm_pass_count():
    """Zero the warm-pass counter (test/benchmark bookkeeping)."""
    global _warm_passes
    _warm_passes = 0


def note_warm_pass():
    """Count one functional warm pass performed outside this class.

    The batched structure-of-arrays engine (:mod:`repro.emu.batch`) warms
    lanes without instantiating a :class:`FunctionalWarmer` per lane; it
    ticks the same counter so the checkpoint layer's "warm once, measure
    many" accounting holds whichever engine performed the pass.
    """
    global _warm_passes
    _warm_passes += 1


class FunctionalWarmer(ArchEmulator):
    """Warms one :class:`~repro.core.core.OOOCore`'s structures in place.

    The warmer shares the core's committed-memory dict (the core's private
    copy — never the trace's lru_cache-shared ``memory_image``), so stores
    executed functionally are visible to detailed-region loads.

    ``rfps`` lists the :class:`~repro.rfp.engine.RFPEngine` objects whose
    PT/PAT/context tables the pass trains; the default is the core's own
    (none without RFP).  The checkpoint layer passes one engine per RFP
    config that shares the core's cache geometry, so a config sweep walks
    the hierarchy once and trains every table set in the same loop.
    """

    def __init__(self, core, rfps=None):
        super().__init__(core.trace)
        self.core = core
        self.memory = core.memory
        if rfps is None:
            rfps = [core.rfp] if core.rfp is not None else []
        self.rfps = rfps
        #: Instructions functionally executed so far.
        self.warmed = 0
        self._counted = False  # ticked _warm_passes already

    def warm(self, count):
        """Execute and warm the first ``count`` trace instructions, then
        hand the architectural state to the core.

        Returns self.  The core's fetch cursor is left at ``count``; its
        rename unit maps the warmed register values; ``core.memory``
        reflects every store in the region.

        Resumable: a second call with a larger ``count`` continues from
        where the previous call stopped (instructions are never replayed),
        which is how the checkpoint layer writes every interval boundary's
        warm state in one pass over the trace.
        """
        global _warm_passes
        start = self.warmed
        if count > start and not self._counted:
            self._counted = True
            _warm_passes += 1
        core = self.core
        hit_miss = core.hit_miss
        trainers = [
            (rfp.pt.on_allocate, rfp.pt.train,
             rfp.context.train if rfp.context is not None else None)
            for rfp in self.rfps
        ]
        frontend = core.frontend
        # Local bindings: this loop runs once per fast-forwarded instruction
        # (the bulk of the trace under the default split), so shave every
        # attribute lookup and method-wrapper call we can.
        regs = self.registers.values
        memory = self.memory
        memory_get = memory.get
        loads_append = self.load_values.append
        stores_append = self.store_values.append
        hierarchy = core.hierarchy
        warm_load = hierarchy.warm_load
        warm_store = hierarchy.warm_store
        # The DTLB-hit + L1-hit case of warm_load is inlined in the load
        # branch below (same presence checks, LRU touches and counters);
        # anything rarer falls back to the full method.
        dtlb = hierarchy.dtlb
        dtlb_sets = dtlb.sets
        dtlb_mask = dtlb.set_mask
        l1 = hierarchy.l1
        l1_sets = l1.sets
        l1_mask = l1.set_mask
        l1_shift = l1.line_shift
        l1_stats = l1.stats
        hm = hit_miss
        hm_table = hm.table if hm is not None else None
        hm_entries = hm.num_entries if hm is not None else 0
        md = core.md
        md_table = md.table
        md_entries = md.num_entries
        md_decay = md.decay_period
        md_tick = md._commit_tick
        evaluators = EVALUATORS
        LOAD, STORE = Op.LOAD, Op.STORE
        for instr in self.trace.instructions[start: count]:
            op = instr.op
            if op == LOAD:
                addr = instr.addr
                value = memory_get(addr & ~7, 0)
                loads_append(value)
                pc = instr.pc
                # -- hierarchy.warm_load (fast path) -------------------
                page = addr >> 12
                tlb_set = dtlb_sets[page & dtlb_mask]
                hit = False
                if page in tlb_set:
                    line = addr >> l1_shift
                    l1_set = l1_sets[line & l1_mask]
                    if line in l1_set:
                        tlb_set.pop(page)
                        tlb_set[page] = True
                        dtlb.hits += 1
                        l1_set[line] = l1_set.pop(line)
                        l1_stats.hits += 1
                        hit = True
                if not hit:
                    hit = warm_load(addr, pc) == "L1"
                if hm is not None:
                    # -- hit_miss.train --------------------------------
                    index = (pc >> 2) % hm_entries
                    counter = hm_table[index]
                    if (counter >= 2) != hit:
                        hm.mispredicts += 1
                    if hit:
                        if counter < 3:
                            hm_table[index] = counter + 1
                    elif counter > 0:
                        hm_table[index] = counter - 1
                # -- md.train_commit (tick kept in a local) ------------
                md_tick += 1
                if md_tick % md_decay == 0:
                    index = (pc >> 2) % md_entries
                    if md_table[index] > 0:
                        md_table[index] -= 1
                for on_allocate, train, context_train in trainers:
                    on_allocate(pc)
                    train(pc, addr, True)
                    if context_train is not None:
                        context_train(pc, frontend.path_history, addr)
            elif op == STORE:
                s = instr.srcs
                n = len(s)
                if n == 2:
                    srcs = (regs[s[0]], regs[s[1]])
                elif n == 1:
                    srcs = (regs[s[0]],)
                else:
                    srcs = [regs[r] for r in s]
                value = evaluators[op](srcs, instr.imm)
                memory[instr.addr & ~7] = value
                stores_append(value)
                warm_store(instr.addr)
            else:
                s = instr.srcs
                n = len(s)
                if n == 2:
                    srcs = (regs[s[0]], regs[s[1]])
                elif n == 1:
                    srcs = (regs[s[0]],)
                elif n == 0:
                    srcs = ()
                else:
                    srcs = [regs[r] for r in s]
                value = evaluators[op](srcs, instr.imm)
                if instr.is_branch:
                    frontend.path_history = (
                        (frontend.path_history << 1) | (1 if instr.taken else 0)
                    ) & PATH_MASK
            if instr.dst is not None:
                regs[instr.dst] = value
        md._commit_tick = md_tick
        self.warmed = max(start, min(count, len(self.trace.instructions)))
        core.rename.seed_architectural(
            [regs[reg] for reg in range(len(core.rename.rat))]
        )
        frontend.cursor.rewind(self.warmed)
        return self
