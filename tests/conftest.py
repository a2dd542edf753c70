"""Shared fixtures and helpers for the test suite."""

import os

import pytest

from repro.core.config import baseline
from repro.core.core import OOOCore
from repro.core.dyninstr import DynInstr
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.emu.warmup import warm_pass_count
from repro.isa.trace import Trace


def make_trace(instrs, memory=None, name="test"):
    return Trace(list(instrs), memory_image=memory or {}, name=name, category="T")


def dyn_of(instr, seq=0, dispatch_cycle=0):
    """A DynInstr for one Instruction record, as dispatch builds it from a
    one-instruction trace."""
    trace = Trace([instr])
    return DynInstr(trace.statics[0], 0, trace.addrs[0], trace.flags[0], seq,
                    dispatch_cycle)


def run_core(trace, config=None, **core_kwargs):
    """Run a trace to completion and return the core."""
    core = OOOCore(trace, config or quiet_config(), **core_kwargs)
    core.run()
    return core


def quiet_config(**overrides):
    """A baseline config with background prefetchers off, so unit tests see
    exact latencies."""
    overrides.setdefault("l2_prefetcher_enabled", False)
    overrides.setdefault("l1_next_line_prefetch", False)
    return baseline(**overrides)


def warm_passes():
    """Count the functional warm passes made after this call; the
    underlying counter is process-wide."""
    start = warm_pass_count()
    return lambda: warm_pass_count() - start


def session_processes(sid):
    """``{pid: state}`` of every live (not zombie) process in session
    ``sid``, read from ``/proc``; ``T`` is a stopped one."""
    found = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % name) as handle:
                stat = handle.read()
        except OSError:
            continue  # exited meanwhile
        # "pid (comm) state ppid pgrp session ...": comm may hold spaces.
        state, _ppid, _pgrp, session = stat[stat.rindex(")") + 2:].split()[:4]
        if int(session) == sid and state not in ("Z", "X"):
            found[int(name)] = state
    return found


#: Tests that read :func:`session_processes` need Linux's ``/proc``.
needs_proc = pytest.mark.skipif(not os.path.isdir("/proc"),
                                reason="reads processes from /proc")


def loads_of(core):
    return [d for d in core.committed]


@pytest.fixture
def config():
    return quiet_config()


# Convenience instruction constructors -------------------------------------

def LOAD(pc, dst, addr, srcs=()):
    return Instruction(pc, Op.LOAD, dst=dst, srcs=srcs, addr=addr)


def STORE(pc, data_src, addr, addr_srcs=()):
    return Instruction(pc, Op.STORE, srcs=(data_src,) + tuple(addr_srcs), addr=addr)


def ADD(pc, dst, srcs=(), imm=0):
    return Instruction(pc, Op.ADD, dst=dst, srcs=srcs, imm=imm)


def MOV(pc, dst, imm):
    return Instruction(pc, Op.MOV, dst=dst, imm=imm)


def BR(pc, src, taken=True, mispredicted=False):
    return Instruction(pc, Op.BRANCH, srcs=(src,), taken=taken,
                       mispredicted=mispredicted)
