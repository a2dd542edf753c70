"""Span-target shim: ``warm_batch`` is
:func:`repro.sim.checkpoint.ensure_checkpoints_batch`.

It exists only because ``benchmarks/perf/spans.py`` wraps
``repro.emu.batch.warm_batch`` as a span target, and it goes with ROADMAP
item 1(a).  No code under ``src/`` calls it.
"""

from repro.sim.checkpoint import ensure_checkpoints_batch as warm_batch  # noqa: F401
