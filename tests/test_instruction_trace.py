"""Instruction records, Trace container, and the rewindable cursor."""

import pytest

from conftest import quiet_config

from repro.core.frontend import Frontend
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.trace import Trace, TraceCursor


def make_trace(n=6):
    instrs = [
        Instruction(0x1000, Op.LOAD, dst=1, addr=0x100),
        Instruction(0x1004, Op.ADD, dst=2, srcs=(1,)),
        Instruction(0x1008, Op.STORE, srcs=(2,), addr=0x108),
        Instruction(0x100C, Op.BRANCH, srcs=(2,), taken=True),
        Instruction(0x1010, Op.MUL, dst=3, srcs=(2, 2)),
        Instruction(0x1014, Op.NOP),
    ][:n]
    return Trace(instrs, memory_image={0x100: 7}, name="t", category="X")


class TestInstruction:
    def test_properties(self):
        load = Instruction(0x10, Op.LOAD, dst=1, addr=0x100)
        assert load.is_load and load.is_mem and not load.is_store
        store = Instruction(0x14, Op.STORE, srcs=(1,), addr=0x108)
        assert store.is_store and store.is_mem and not store.is_load
        br = Instruction(0x18, Op.BRANCH, srcs=(1,), taken=True)
        assert br.is_branch

    def test_srcs_tuple(self):
        i = Instruction(0x10, Op.ADD, dst=1, srcs=[2, 3])
        assert i.srcs == (2, 3)

    def test_repr(self):
        i = Instruction(0x10, Op.LOAD, dst=1, srcs=(2,), addr=0x100)
        text = repr(i)
        assert "LOAD" in text and "0x100" in text


class TestTrace:
    def test_indexes_assigned(self):
        trace = make_trace()
        for k, instr in enumerate(trace):
            assert instr.index == k

    def test_len_getitem(self):
        trace = make_trace()
        assert len(trace) == 6
        assert trace[0].is_load

    def test_counts(self):
        trace = make_trace()
        assert trace.load_count == 1
        assert "6 instrs, 1 loads" in repr(trace)

    def test_addresses_widen_past_32_bits(self):
        """Address columns start 4 bytes wide and widen, exactly, at the
        first address of 2**32 or more."""
        narrow = make_trace()
        assert narrow.addrs.typecode == narrow.image_addrs.typecode == "I"
        far = (1 << 32) + 0x108
        instrs = [Instruction(0x1000, Op.LOAD, dst=1, addr=0x100),
                  Instruction(0x1004, Op.LOAD, dst=2, addr=far)]
        trace = Trace(instrs, memory_image={0x100: 7, far: 9})
        assert trace.addrs.typecode == trace.image_addrs.typecode == "Q"
        assert [instr.addr for instr in trace] == [0x100, far]
        assert trace.initial_memory() == {0x100: 7, far: 9}

    def test_memory_image_copied(self):
        image = {0x100: 7}
        trace = Trace([], memory_image=image)
        image[0x100] = 9
        assert trace.initial_memory()[0x100] == 7


class TestTraceCursor:
    def test_sequential(self):
        """The frontend consumes the cursor in trace order, then stops."""
        frontend = Frontend(quiet_config(fetch_width=2), make_trace())
        cycle = 0
        while not frontend.cursor.exhausted:
            assert frontend.fetch(cycle) > 0
            cycle += 1
        assert [index for _, index in frontend.buffer] == list(range(6))
        assert frontend.fetch(cycle) == 0

    def test_rewind(self):
        cursor = TraceCursor(make_trace())
        cursor.index = 4
        cursor.rewind(1)
        assert cursor.index == 1 and not cursor.exhausted

    def test_rewind_to_end_is_exhausted(self):
        trace = make_trace()
        cursor = TraceCursor(trace)
        cursor.rewind(len(trace))
        assert cursor.exhausted

    def test_rewind_out_of_range(self):
        cursor = TraceCursor(make_trace())
        with pytest.raises(ValueError):
            cursor.rewind(-1)
        with pytest.raises(ValueError):
            cursor.rewind(100)
