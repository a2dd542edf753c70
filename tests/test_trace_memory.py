"""Memory budgets of a columnar trace and of a fresh core.

A suite trace is a table of static records plus 7 bytes per dynamic
instruction (static id, 32-bit address, flag byte) and 12 bytes per
initial memory word.  No dynamic instruction is an object, and simulating
a trace caches nothing on it.  A fresh core copies nothing of the image
and makes no cache set: its committed memory is its own writes over the
process's one expanded image, and a set is made on its first fill.  CI's
``golden`` job applies :data:`BUDGET_BYTES` per instruction and
:data:`CORE_BUDGET_BYTES` to all 65 suite workloads through
:func:`traced_build` and :func:`traced_core`.
"""

import gc
import sys
import tracemalloc
import types
from enum import Enum

from repro.core.config import baseline
from repro.core.core import OOOCore
from repro.isa.trace import resident_image
from repro.sim.runner import simulate
from repro.workloads.suite import build_workload

LENGTH = 40000

#: Bytes a built ``LENGTH``-instruction trace may retain (21.8 per
#: instruction): the worst suite trace, spec06_gobmk, retains 665 KB.
BUDGET_BYTES = 850 << 10

#: Bytes a fresh baseline core may retain once its trace's image is
#: resident.  Every suite workload's retains about 140 KB; a private
#: image copy and one dict per cache set (0.86 MB for spec06_gcc) would
#: not fit.
CORE_BUDGET_BYTES = 256 << 10

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


def traced_core(name, length=LENGTH):
    """Bytes a fresh baseline core on ``name``'s trace retains, traced
    after the trace is built and its image is resident."""
    trace = build_workload(name, length=length)
    resident_image(trace)
    gc.collect()
    tracemalloc.start()
    try:
        core = OOOCore(trace, baseline())
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert core.memory == {}
    return retained


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

    def test_fresh_core_retains_at_most_the_core_budget(self):
        assert traced_core("spec06_gcc") <= CORE_BUDGET_BYTES

    def test_cores_share_one_resident_image(self):
        trace = build_workload("spec06_gcc", length=LENGTH)
        first = OOOCore(trace, baseline())
        assert OOOCore(trace, baseline()).image is first.image
        other = build_workload("spec06_mcf", length=LENGTH)
        assert OOOCore(other, baseline()).image is not first.image
        assert resident_image(other) is resident_image(other)

    def test_simulate_caches_nothing_on_the_trace(self):
        trace, _, _ = traced_build("spec06_gcc")
        before = footprint(trace)
        result = simulate(trace, baseline(), length=LENGTH,
                          warmup=LENGTH // 2)
        assert result.data["instructions"] > 0
        assert footprint(trace) == before
