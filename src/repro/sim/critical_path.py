"""Dataflow critical-path analysis (the paper's Fig. 3 argument).

The paper's Fig. 3 observes that the critical path through a program is
created by an LLC/DRAM miss *plus every L1-hit load feeding the address
chain of that miss* — so the 5-cycle L1 latency is multiplied along the
chain.  This module computes the longest dataflow path of a trace with
per-instruction costs, and splits the path's length by contributor, which
reproduces the figure's argument quantitatively.
"""


def analyze_critical_path(trace, level_latency, load_levels=None):
    """Longest dataflow path through ``trace``.

    Args:
        trace: a :class:`repro.isa.trace.Trace`.
        level_latency: {"L1": 5, "L2": 14, ...} costs for loads by level.
        load_levels: optional {trace_index: level} from a simulation run;
            loads default to "L1" (the common case, Fig. 2).

    Returns a dict with ``length`` (cycles along the longest path),
    ``by_level`` (cycles contributed per load level along that path),
    ``compute_cycles`` (non-load contribution) and ``path`` (instruction
    indices on the critical path, oldest first).
    """
    load_levels = load_levels or {}
    statics = trace.statics
    last_writer = {}        # arch reg -> index of producing instruction
    longest = [0] * len(trace)   # path length ending at instruction i
    parent = [None] * len(trace)
    for i, sid in enumerate(trace.sids):
        static = statics[sid]
        best_dep = 0
        best_parent = None
        for reg in static.srcs:
            producer = last_writer.get(reg)
            if producer is not None and longest[producer] > best_dep:
                best_dep = longest[producer]
                best_parent = producer
        if static.is_load:
            cost = level_latency[load_levels.get(i, "L1")]
        else:
            cost = static.latency
        longest[i] = best_dep + cost
        parent[i] = best_parent
        if static.dst is not None:
            last_writer[static.dst] = i

    if not longest:
        return {"length": 0, "by_level": {}, "compute_cycles": 0, "path": []}
    tail = max(range(len(longest)), key=lambda i: longest[i])
    path = []
    node = tail
    while node is not None:
        path.append(node)
        node = parent[node]
    path.reverse()

    by_level = {}
    compute_cycles = 0
    for i in path:
        static = statics[trace.sids[i]]
        if static.is_load:
            level = load_levels.get(i, "L1")
            by_level[level] = by_level.get(level, 0) + level_latency[level]
        else:
            compute_cycles += static.latency
    return {
        "length": longest[tail],
        "by_level": by_level,
        "compute_cycles": compute_cycles,
        "path": path,
    }
