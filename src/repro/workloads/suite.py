"""The 65-workload suite (paper Table 3), synthesised per category.

Category base profiles encode what the paper observes about each suite:

- **ISPEC** — integer codes: pointer chasing, hashing, branchy control,
  store/load aliasing; very L1-latency-sensitive.
- **FSPEC** — floating-point codes: streaming strided loads but FP/FMA
  latency-bound, so high RFP coverage yields small IPC gains (§5.1).
- **Cloud** — large data footprints (more L2/LLC/DRAM misses), irregular
  access, frequent mispredicted branches.
- **Client** — mixed interactive behaviour.

A handful of named workloads carry overrides matching the paper's
anecdotes: spec06_tonto / spec06_gamess / spec06_milc get low
stride-coverage mixes (lowest RFP gains in Fig. 11), spec17_wrf is
FP-bound (negligible gain despite coverage), while lammps, spec06_namd,
spec17_xalancbmk and hadoop carry latency-critical chains (top gains).
"""

import hashlib
from functools import lru_cache

from repro.workloads.generator import WorkloadProfile, generate_trace


CATEGORIES = ("ISPEC06", "FSPEC06", "ISPEC17", "FSPEC17", "Cloud", "Client")

_ISPEC06 = [
    "perlbench", "bzip2", "gcc", "mcf", "gobmk", "hmmer",
    "sjeng", "libquantum", "h264ref", "omnetpp", "astar", "xalancbmk",
]
_FSPEC06 = [
    "bwaves", "gamess", "milc", "zeusmp", "gromacs", "cactusadm",
    "leslie3d", "namd", "dealii", "soplex", "povray", "calculix",
    "gemsfdtd", "tonto", "lbm", "wrf", "sphinx3",
]
_ISPEC17 = [
    "perlbench", "gcc", "mcf", "omnetpp", "xalancbmk",
    "x264", "deepsjeng", "leela", "exchange2", "xz",
]
_FSPEC17 = [
    "bwaves", "cactubssn", "lbm", "wrf", "cam4", "pop2", "imagick",
    "nab", "fotonik3d", "roms", "namd", "parest", "blender",
]
_CLOUD = [
    "spark", "bigbench", "specjbb", "specjenterprise", "hadoop",
    "tpcc", "tpce", "memcached", "cassandra", "kafka", "lammps",
]
_CLIENT = ["sysmark", "geekbench"]

#: Ordered {workload_name: category}.
WORKLOADS = {}
for _n in _ISPEC06:
    WORKLOADS["spec06_" + _n] = "ISPEC06"
for _n in _FSPEC06:
    WORKLOADS["spec06_" + _n] = "FSPEC06"
for _n in _ISPEC17:
    WORKLOADS["spec17_" + _n] = "ISPEC17"
for _n in _FSPEC17:
    WORKLOADS["spec17_" + _n] = "FSPEC17"
for _n in _CLOUD:
    WORKLOADS[_n] = "Cloud"
for _n in _CLIENT:
    WORKLOADS[_n] = "Client"

assert len(WORKLOADS) == 65, "the paper evaluates 65 workloads"

_CATEGORY_PROFILES = {
    "ISPEC06": dict(
        kernel_mix={
            "sequential_chase": 0.10, "strided_sum": 0.14, "pointer_chase": 0.24,
            "hash_lookup": 0.10, "branchy_reduce": 0.12, "store_forward": 0.08,
            "indirect_gather": 0.12, "constant_poll": 0.04, "copy_stream": 0.06,
        },
        locality={"l1": 0.80, "l2": 0.12, "llc": 0.05, "dram": 0.03},
        mispredict_rate=0.045,
        concurrent=5,
    ),
    "ISPEC17": dict(
        kernel_mix={
            "sequential_chase": 0.10, "strided_sum": 0.14, "pointer_chase": 0.26,
            "hash_lookup": 0.10, "branchy_reduce": 0.12, "store_forward": 0.08,
            "indirect_gather": 0.10, "constant_poll": 0.04, "copy_stream": 0.06,
        },
        locality={"l1": 0.80, "l2": 0.12, "llc": 0.05, "dram": 0.03},
        mispredict_rate=0.04,
        concurrent=5,
    ),
    "FSPEC06": dict(
        kernel_mix={
            "stencil": 0.24, "matmul_tile": 0.22, "copy_stream": 0.12,
            "strided_sum": 0.14, "sequential_chase": 0.06,
            "hash_lookup": 0.05, "constant_poll": 0.04, "pointer_chase": 0.13,
        },
        locality={"l1": 0.88, "l2": 0.09, "llc": 0.02, "dram": 0.01},
        mispredict_rate=0.015,
        concurrent=4,
    ),
    "FSPEC17": dict(
        kernel_mix={
            "stencil": 0.24, "matmul_tile": 0.24, "copy_stream": 0.12,
            "strided_sum": 0.12, "sequential_chase": 0.06,
            "hash_lookup": 0.05, "constant_poll": 0.04, "pointer_chase": 0.13,
        },
        locality={"l1": 0.88, "l2": 0.09, "llc": 0.02, "dram": 0.01},
        mispredict_rate=0.015,
        concurrent=4,
    ),
    "Cloud": dict(
        kernel_mix={
            "hash_lookup": 0.18, "pointer_chase": 0.22, "sequential_chase": 0.08,
            "store_forward": 0.10, "branchy_reduce": 0.12,
            "indirect_gather": 0.12, "strided_sum": 0.10, "constant_poll": 0.06,
        },
        locality={"l1": 0.70, "l2": 0.16, "llc": 0.08, "dram": 0.06},
        mispredict_rate=0.06,
        concurrent=5,
    ),
    "Client": dict(
        kernel_mix={
            "sequential_chase": 0.08, "strided_sum": 0.12, "pointer_chase": 0.20,
            "hash_lookup": 0.10, "branchy_reduce": 0.12, "store_forward": 0.08,
            "stencil": 0.08, "indirect_gather": 0.10, "constant_poll": 0.04,
            "copy_stream": 0.06,
        },
        locality={"l1": 0.78, "l2": 0.13, "llc": 0.05, "dram": 0.04},
        mispredict_rate=0.035,
        concurrent=5,
    ),
}

#: Named overrides matching the paper's per-workload anecdotes (Fig. 11).
_NAME_OVERRIDES = {
    # Lowest RFP coverage / gains: little stride regularity.
    "spec06_tonto": dict(kernel_mix={
        "hash_lookup": 0.34, "pointer_chase": 0.30, "branchy_reduce": 0.20,
        "matmul_tile": 0.10, "strided_sum": 0.06,
    }),
    "spec06_gamess": dict(kernel_mix={
        "hash_lookup": 0.30, "pointer_chase": 0.26, "matmul_tile": 0.24,
        "branchy_reduce": 0.14, "strided_sum": 0.06,
    }),
    "spec06_milc": dict(kernel_mix={
        "hash_lookup": 0.32, "indirect_gather": 0.28, "matmul_tile": 0.22,
        "pointer_chase": 0.12, "strided_sum": 0.06,
    }),
    # Coverage without gains: FMA-latency-bound.
    "spec17_wrf": dict(kernel_mix={
        "matmul_tile": 0.46, "stencil": 0.30, "strided_sum": 0.18,
        "constant_poll": 0.06,
    }),
    # Highest sensitivity: strided loads feed latency-critical chains.
    "lammps": dict(kernel_mix={
        "sequential_chase": 0.18, "strided_sum": 0.24, "pointer_chase": 0.12, "indirect_gather": 0.14,
        "stencil": 0.16, "constant_poll": 0.08,
    }, locality={"l1": 0.85, "l2": 0.09, "llc": 0.04, "dram": 0.02}),
    "spec06_namd": dict(kernel_mix={
        "sequential_chase": 0.16, "strided_sum": 0.22, "stencil": 0.18,
        "indirect_gather": 0.14, "pointer_chase": 0.12,
    }),
    "spec17_xalancbmk": dict(kernel_mix={
        "sequential_chase": 0.16, "strided_sum": 0.16, "pointer_chase": 0.24,
        "branchy_reduce": 0.12, "indirect_gather": 0.12, "store_forward": 0.10,
    }),
    "hadoop": dict(kernel_mix={
        "sequential_chase": 0.14, "strided_sum": 0.16, "pointer_chase": 0.22,
        "hash_lookup": 0.14, "store_forward": 0.10, "indirect_gather": 0.14,
    }),
}


def workload_names():
    """All 65 workload names, in suite order."""
    return list(WORKLOADS)


def workload_category(name):
    return WORKLOADS[name]


def _seed_for(name):
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def profile_for(name, length=20000):
    """Build the :class:`WorkloadProfile` for a suite workload."""
    if name not in WORKLOADS:
        raise KeyError("unknown workload %r (see workload_names())" % name)
    category = WORKLOADS[name]
    params = dict(_CATEGORY_PROFILES[category])
    params.update(_NAME_OVERRIDES.get(name, {}))
    return WorkloadProfile(
        name=name,
        category=category,
        seed=_seed_for(name),
        length=length,
        **params
    )


#: Capacity of the trace memo.  A sweep through
#: :func:`repro.sim.parallel.run_jobs` needs one entry: both executors run
#: it one trace lane at a time and clear the memo on every lane change
#: (:meth:`repro.sim.parallel.Executor.hold_trace`).  The rest serves
#: direct callers that revisit traces, such as the examples, which loop a
#: handful of workloads once per config.  A columnar trace holds 7 bytes
#: per instruction plus 12 per initial memory word, about 0.4-0.7 MB at
#: length 40,000, so a full memo holds at most about 11 MB at that length.
#: The memo does not hold expanded images: a process expands one at a
#: time (:func:`repro.isa.trace.resident_image`).
TRACE_CACHE_ENTRIES = 16


@lru_cache(maxsize=TRACE_CACHE_ENTRIES)
def build_workload(name, length=20000):
    """Generate (and memoise, see :data:`TRACE_CACHE_ENTRIES`) the trace
    for a suite workload; a sweep process holds one trace at a time."""
    return generate_trace(profile_for(name, length=length))


def suite_table():
    """Rows for the paper's Table 3: workloads per category."""
    by_category = {}
    for name, category in WORKLOADS.items():
        by_category.setdefault(category, []).append(name)
    return [
        (category, len(names), ", ".join(sorted(names)))
        for category, names in by_category.items()
    ]
