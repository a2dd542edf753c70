"""Statistics: per-run counters and multi-run reporting helpers."""

from repro.stats.counters import SimStats
from repro.stats.report import (
    format_table,
    geomean,
    speedup,
)

__all__ = ["SimStats", "format_table", "geomean", "speedup"]
