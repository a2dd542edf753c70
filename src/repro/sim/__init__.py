"""Simulation drivers: single runs, cached experiment sweeps, oracles."""

from repro.sim.runner import SCHEMA_VERSION, SimResult, simulate
from repro.sim.cache import ResultCache, default_cache
from repro.sim.defaults import DEFAULT_LENGTH, DEFAULT_WARMUP
from repro.sim.oracle import oracle_config, ORACLE_MODES
from repro.sim.parallel import TimingReport, run_jobs, run_matrix
from repro.sim.experiments import suite_speedup

__all__ = [
    "SCHEMA_VERSION",
    "SimResult",
    "simulate",
    "ResultCache",
    "default_cache",
    "DEFAULT_LENGTH",
    "DEFAULT_WARMUP",
    "oracle_config",
    "ORACLE_MODES",
    "TimingReport",
    "run_jobs",
    "run_matrix",
    "suite_speedup",
]
