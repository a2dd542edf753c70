"""Register renaming (RAT/free list/PRF) and reorder buffer.

Renaming and ROB allocation happen inside the core's dispatch loop, and
freeing inside its commit loop, so those steps are checked by driving an
:class:`OOOCore`.  The squash-side API (``unmap``, ``squash_younger_than``)
is checked directly, on state set up by :func:`rename_dest`, which remaps a
register the way dispatch does.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ADD, dyn_of, make_trace, quiet_config, run_core

from repro.core.core import OOOCore
from repro.core.rename import INFINITY, PhysicalRegisterFile, RenameUnit
from repro.core.rob import ReorderBuffer
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.registers import NUM_ARCH_REGS


def make_rename(arch=8, prf_size=32):
    prf = PhysicalRegisterFile(prf_size)
    return RenameUnit(arch, prf), prf


def rename_dest(rename, arch):
    """Remap ``arch`` to a fresh register as the core's dispatch does;
    returns ``(new, previous)``."""
    new = rename.free_list.pop()
    previous = rename.rat[arch]
    rename.rat[arch] = new
    return new, previous


def dispatched_core(instrs):
    """A core stepped until every instruction of ``instrs`` has dispatched
    (none can have issued yet: select waits out the scheduling pipe)."""
    core = OOOCore(make_trace(instrs), quiet_config())
    while core.next_seq < len(instrs):
        core.step()
    return core


class TestPRF:
    def test_pending_not_ready(self):
        """Dispatch marks a renamed destination pending until it is written."""
        core = dispatched_core([ADD(0x10, 3)])
        dyn = core.rob.entries[0]
        assert core.prf.ready_cycle[dyn.dest_preg] == INFINITY

    def test_write_sets_value_and_time(self):
        prf = PhysicalRegisterFile(8)
        prf.write(2, 99, 7)
        assert prf.read(2) == 99
        assert prf.ready_cycle[2] == 7


class TestRename:
    def test_initial_identity_mapping(self):
        rename, _ = make_rename()
        assert rename.rat == list(range(8))

    def test_allocate_moves_mapping(self):
        core = dispatched_core([ADD(0x10, 3)])
        dyn = core.rob.entries[0]
        assert dyn.prev_preg == 3
        assert core.rename.rat[3] == dyn.dest_preg
        assert dyn.dest_preg >= NUM_ARCH_REGS

    def test_rename_sources(self):
        core = dispatched_core([ADD(0x10, 1), ADD(0x14, 2, srcs=(0, 1))])
        first, second = core.rob.entries
        assert second.src_pregs == (0, first.dest_preg)

    def test_free_count_decreases(self):
        before = len(OOOCore(make_trace([]), quiet_config()).rename.free_list)
        core = dispatched_core([ADD(0x10, 0)])
        assert len(core.rename.free_list) == before - 1

    def test_commit_free_recycles(self):
        """Commit returns the overwritten mapping to the free list."""
        before = len(OOOCore(make_trace([]), quiet_config()).rename.free_list)
        core = run_core(make_trace([ADD(0x10, 0), ADD(0x14, 0)]))
        assert len(core.rename.free_list) == before
        assert 0 in core.rename.free_list
        assert core.rename.rat[0] >= NUM_ARCH_REGS

    def test_unmap_restores(self):
        rename, _ = make_rename()
        new, prev = rename_dest(rename, 5)
        rename.unmap(5, new, prev)
        assert rename.rat[5] == prev
        assert rename.free_list[-1] == new

    def test_unmap_order_violation_raises(self):
        rename, _ = make_rename()
        n1, p1 = rename_dest(rename, 5)
        rename_dest(rename, 5)
        with pytest.raises(RuntimeError):
            rename.unmap(5, n1, p1)  # must unmap n2 first

    def test_prf_too_small(self):
        with pytest.raises(ValueError):
            RenameUnit(32, PhysicalRegisterFile(32))

    def test_architectural_values(self):
        rename, prf = make_rename()
        new, _ = rename_dest(rename, 2)
        prf.write(new, 777, 0)
        assert rename.architectural_values()[2] == 777


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["alloc", "commit", "squash"]),
                          st.integers(0, 7)), max_size=60))
def test_rename_free_list_integrity(ops):
    """Random alloc/commit/squash sequences never leak or duplicate pregs."""
    rename, _ = make_rename()
    live = []       # (arch, new, prev) renames not yet committed/squashed
    for action, arch in ops:
        if action == "alloc":
            if not rename.free_list:
                continue
            new, prev = rename_dest(rename, arch)
            live.append((arch, new, prev))
        elif action == "commit" and live:
            _, _, prev = live.pop(0)  # commit oldest
            rename.free_list.append(prev)
        elif action == "squash" and live:
            a, new, prev = live.pop()  # squash youngest
            rename.unmap(a, new, prev)
    # Every preg is accounted for exactly once: currently mapped in the RAT,
    # on the free list, or held as a previous mapping awaiting commit.
    mapped = set(rename.rat)
    free = set(rename.free_list)
    pending_prev = [prev for _, _, prev in live]
    assert len(mapped) == 8, "RAT mappings must stay unique"
    assert len(free) == len(rename.free_list), "free list must hold no dupes"
    assert len(set(pending_prev)) == len(pending_prev)
    assert mapped.isdisjoint(free)
    assert mapped.isdisjoint(pending_prev)
    assert free.isdisjoint(pending_prev)
    assert len(mapped) + len(free) + len(pending_prev) == rename.prf.num_entries


class TestROB:
    def _rob(self, capacity, count):
        rob = ReorderBuffer(capacity)
        rob.entries.extend(
            dyn_of(Instruction(0x10, Op.ADD, dst=1), seq, 0)
            for seq in range(count)
        )
        return rob

    def test_fifo_retire(self):
        """The commit loop retires the ROB head first: program order."""
        instrs = [ADD(0x10 + 4 * k, k % 4, imm=k) for k in range(6)]
        core = run_core(make_trace(instrs), record_commits=True)
        assert [index for index, _ in core.committed] == list(range(6))
        assert not core.rob.entries

    def test_full(self):
        assert not self._rob(2, 1).full
        assert self._rob(2, 2).full

    def test_squash_exclusive(self):
        rob = self._rob(8, 5)
        squashed = rob.squash_younger_than(2)
        assert [d.seq for d in squashed] == [4, 3]
        assert len(rob) == 3

    def test_squash_inclusive(self):
        rob = self._rob(8, 5)
        squashed = rob.squash_younger_than(2, inclusive=True)
        assert [d.seq for d in squashed] == [4, 3, 2]

    def test_empty_head(self):
        """An empty ROB is not full and a squash finds nothing to remove."""
        rob = ReorderBuffer(4)
        assert not rob.full
        assert rob.squash_younger_than(-1) == []
