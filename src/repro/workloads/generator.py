"""Workload profiles and trace composition.

A :class:`WorkloadProfile` describes a workload as a weighted mixture of
micro-kernels plus locality/branch parameters.  :func:`generate_trace`
instantiates one kernel object per concurrent slot (so static PCs stay
stable across the whole trace — predictors can train) and interleaves
their instruction streams round-robin, giving the OOO core independent
chains to overlap, then returns the finished
:class:`~repro.isa.trace.Trace`.

Determinism: everything derives from the profile's seed, so the same
profile always yields the identical trace.
"""

import random
from dataclasses import dataclass, field

from repro.isa.registers import NUM_ARCH_REGS
from repro.workloads.builder import TraceBuilder
from repro.workloads.kernels import KERNEL_TYPES

#: Region sizes (in 8-byte words) for each locality class, chosen relative
#: to the baseline hierarchy: L1 48KB, L2 1.25MB, LLC 3MB.
LOCALITY_WORDS = {
    "l1": (256, 2048),        # 2KB..16KB: stays L1-resident
    "l2": (16384, 49152),     # 128KB..384KB: spills to L2
    "llc": (131072, 262144),  # 1MB..2MB: spills to LLC
    "dram": (524288, 786432), # 4MB..6MB: misses the 3MB LLC
}


@dataclass
class WorkloadProfile:
    """Parameter bundle from which a trace is generated."""

    name: str
    category: str
    seed: int = 1
    length: int = 20000
    #: kernel name -> selection weight.
    kernel_mix: dict = field(default_factory=lambda: {"strided_sum": 1.0})
    #: number of kernel instances interleaved at once.
    concurrent: int = 4
    #: locality class -> probability, for miss-prone kernels' regions
    #: (hash_lookup, indirect_gather targets).
    locality: dict = field(
        default_factory=lambda: {"l1": 0.75, "l2": 0.15, "llc": 0.06, "dram": 0.04}
    )
    #: default branch mispredict rate for loop branches.
    mispredict_rate: float = 0.02
    #: iterations per kernel burst before the composer may rotate kernels.
    chunk_iters: int = 64
    #: stride (in words) choices for strided kernels.
    stride_choices: tuple = (1, 1, 1, 2, 4, 8)

    def jittered(self, rng):
        """Return a copy of kernel weights with deterministic +-30% jitter,
        so same-category workloads differ individually."""
        return {
            name: weight * (0.7 + 0.6 * rng.random())
            for name, weight in self.kernel_mix.items()
        }


#: Kernels whose main data region follows the profile's locality mix
#: (the others stay L1-resident by construction).
_MISS_PRONE = {"hash_lookup", "indirect_gather"}
#: Kernels that can plausibly use mid-size regions.
_MID_OK = {"pointer_chase", "copy_stream", "stencil"}


def _pick_locality(rng, locality):
    roll = rng.random()
    cumulative = 0.0
    for cls in ("l1", "l2", "llc", "dram"):
        cumulative += locality.get(cls, 0.0)
        if roll < cumulative:
            return cls
    return "l1"


def _region_words(rng, cls):
    lo, hi = LOCALITY_WORDS[cls]
    return rng.randrange(lo, hi + 1)


def _weighted_choice(rng, weights):
    total = sum(weights.values())
    roll = rng.random() * total
    cumulative = 0.0
    for name, weight in weights.items():
        cumulative += weight
        if roll < cumulative:
            return name
    return next(iter(weights))


def _make_kernel(name, builder, regs, profile, rng):
    cls = KERNEL_TYPES[name]
    kwargs = {"mispredict_rate": profile.mispredict_rate}
    if name in _MISS_PRONE:
        locality_class = _pick_locality(rng, profile.locality)
        if name == "indirect_gather":
            kwargs["region_words"] = rng.randrange(512, 2048)
            kwargs["target_words"] = _region_words(rng, locality_class)
        else:
            kwargs["region_words"] = _region_words(rng, locality_class)
    elif name in _MID_OK:
        # Mostly L1-resident; occasionally L2-resident (pointer chases over
        # bigger heaps), never DRAM-scale — keeps Fig. 2's shape.
        if rng.random() < 0.08:
            kwargs["region_words"] = rng.randrange(8192, 16384)
        else:
            kwargs["region_words"] = rng.randrange(256, 2048)
    else:
        kwargs["region_words"] = rng.randrange(128, 2048)
    if name in ("strided_sum", "sequential_chase"):
        kwargs["stride_words"] = rng.choice(profile.stride_choices)
    if name in ("sequential_chase", "pointer_chase"):
        kwargs["chain_len"] = rng.randrange(8, 25)
    if name == "branchy_reduce":
        kwargs["branch_mispredict"] = min(0.25, profile.mispredict_rate * 3 + 0.03)
    return cls(builder, regs, **kwargs)


def generate_trace(profile):
    """Generate the deterministic trace described by ``profile``."""
    builder = TraceBuilder(profile.name, profile.category, profile.seed)
    rng = random.Random(profile.seed ^ 0xABCD1234)
    weights = profile.jittered(rng)

    # Partition the architectural registers among concurrent kernel slots.
    kernels = []
    next_reg = 1  # leave r0 alone as a stable zero-ish register
    for _ in range(profile.concurrent):
        name = _weighted_choice(rng, weights)
        need = KERNEL_TYPES[name].REG_COUNT
        if next_reg + need > NUM_ARCH_REGS:
            break
        regs = list(range(next_reg, next_reg + need))
        next_reg += need
        kernels.append(_make_kernel(name, builder, regs, profile, rng))
    if not kernels:
        raise ValueError("profile %r produced no kernels" % profile.name)

    generators = [k.run(profile.chunk_iters) for k in kernels]
    emit = builder.instructions.append  # builder.emit, without the call
    width = len(generators)
    slot = 0
    for _ in range(profile.length):
        instr = next(generators[slot], None)
        if instr is None:
            generators[slot] = kernels[slot].run(profile.chunk_iters)
            instr = next(generators[slot])
        emit(instr)
        slot = (slot + 1) % width
    return builder.build()
