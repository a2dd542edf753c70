"""Cycle-level observability: pipeline event tracing and metrics.

The obs layer answers the question aggregate counters cannot: *when* did a
given dynamic load get renamed, prefetched, speculatively woken, cancelled,
or replayed?  It is the debugging substrate for the paper's Fig. 9 timing
claims — the RFP-inflight bit re-times dependent wakeup so a covered load
skips the L1 exactly when the prefetch lands.

Three pieces:

- :class:`~repro.obs.tracer.Tracer` — typed pipeline events keyed by
  dynamic-instruction seqnum and cycle.  Every hook point in the core is
  behind a single ``if tracer is not None`` guard, so the disabled path
  costs one pointer comparison.
- :class:`~repro.obs.metrics.MetricsRegistry` — counters and exact-value
  histograms (load-to-use latency, prefetch timeliness, PT/PAT/ROB
  occupancy) that snapshot into the simulation result.
- :mod:`~repro.obs.export` — a JSONL event log (deterministic bytes) and a
  Konata-style per-instruction pipeline text view.

A tracer is always explicit: ``python -m repro trace <workload>`` or
``simulate(..., tracer=Tracer())``.  A sweep never traces, so no setting
changes what it returns; to trace several cells, run ``repro trace``
once per cell.
"""

from repro.obs.events import EVENT_TYPES, STAGE_RANK
from repro.obs.export import (
    dump_jsonl,
    pipeline_view,
    sort_events,
    write_jsonl,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracer import Tracer, parse_cycle_range

__all__ = [
    "EVENT_TYPES",
    "STAGE_RANK",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "dump_jsonl",
    "parse_cycle_range",
    "pipeline_view",
    "sort_events",
    "write_jsonl",
]
