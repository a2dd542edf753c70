"""Memory budget of a columnar trace.

A suite trace is a table of static records plus 11 bytes per dynamic
instruction (static id, address, flag byte) and 16 bytes per initial
memory word.  No dynamic instruction is an object, and simulating a trace
caches nothing on it.  CI's ``golden`` job applies :data:`BUDGET_BYTES`
per instruction to all 65 suite workloads through :func:`traced_build`.
"""

import gc
import sys
import tracemalloc
import types
from enum import Enum

from repro.core.config import baseline
from repro.sim.runner import simulate
from repro.workloads.suite import build_workload

LENGTH = 40000

#: Bytes a built ``LENGTH``-instruction trace may retain (26.2 per
#: instruction).
BUDGET_BYTES = 1 << 20

#: GC-tracked objects a build may add (about one per static record).
MAX_NEW_OBJECTS = 2000


def traced_build(name, length=LENGTH):
    """Build ``name``'s trace bypassing the memo; returns ``(trace,
    retained bytes, GC-tracked objects added)``."""
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        trace = build_workload.__wrapped__(name, length=length)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return trace, retained, len(gc.get_objects()) - objects


def footprint(obj):
    """Bytes of every object reachable from ``obj``, not counting shared
    code and constants (modules, classes, functions, enum members)."""
    shared = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, Enum)
    seen = set()
    stack = [obj]
    total = 0
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, shared):
            continue
        seen.add(id(item))
        total += sys.getsizeof(item)
        stack.extend(gc.get_referents(item))
    return total


class TestTraceBudget:
    def test_build_retains_at_most_the_budget(self):
        trace, retained, _ = traced_build("spec06_gcc")
        assert len(trace) == LENGTH
        assert retained <= BUDGET_BYTES, retained

    def test_build_adds_few_gc_objects(self):
        _, _, added = traced_build("spec06_gcc")
        assert added < MAX_NEW_OBJECTS, added

    def test_simulate_caches_nothing_on_the_trace(self):
        trace, _, _ = traced_build("spec06_gcc")
        before = footprint(trace)
        result = simulate(trace, baseline(), length=LENGTH,
                          warmup=LENGTH // 2)
        assert result.data["instructions"] > 0
        assert footprint(trace) == before
