"""repro — a reproduction of "Register File Prefetching" (ISCA 2022).

Public API quickstart::

    from repro import baseline, simulate

    base = simulate("spec06_mcf")                      # Tiger-Lake-like core
    rfp = simulate("spec06_mcf", baseline(rfp={"enabled": True}))
    print(rfp.ipc / base.ipc, rfp.coverage)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.core.config import CoreConfig, RFPConfig, VPConfig, baseline, baseline_2x
from repro.core.core import OOOCore
from repro.sim.runner import SimResult, simulate
from repro.sim.oracle import oracle_config, ORACLE_MODES
from repro.workloads.suite import (
    build_workload,
    workload_category,
    workload_names,
)

__version__ = "1.0.0"

__all__ = [
    "CoreConfig",
    "RFPConfig",
    "VPConfig",
    "baseline",
    "baseline_2x",
    "OOOCore",
    "SimResult",
    "simulate",
    "oracle_config",
    "ORACLE_MODES",
    "build_workload",
    "workload_category",
    "workload_names",
    "__version__",
]
