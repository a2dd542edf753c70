"""The single source of truth for simulation-length defaults.

Every layer that needs a default trace length or warmup — the CLI, the
benchmark harness, :func:`repro.sim.runner.simulate`, and the experiment
drivers — imports these constants, so the documented defaults cannot
drift from the implemented ones (they once did: the experiments docstring
said 20000 while ``default_length()`` returned 12000).

The split follows the sampled-simulation methodology (EXPERIMENTS.md):
the warmup region is executed by the functional fast-forward engine
(which warms caches, TLB, and predictors at ~1.7 us/instruction instead
of the detailed core's ~15-20 us), and the measured window runs through
the detailed core.  Versus the original 12000/2000 defaults this is a
10x longer warmup — the old 2000-instruction warmup left caches and
predictors visibly cold, the dominant source of sampling error — and a
2x longer measured window, while suite sweeps got *faster* because the
warmup no longer pays detailed-core cost.  A ``fast_forward=False``
config (``--no-ff``) simulates the whole trace in detail for validation
runs.
"""

#: Trace length in instructions when neither the caller nor ``REPRO_LENGTH``
#: specifies one.
DEFAULT_LENGTH = 40000

#: Warmup instructions excluded from measurement when neither the caller nor
#: ``REPRO_WARMUP`` specifies a value.  Kept at exactly ``DEFAULT_LENGTH/2``,
#: the runner's clamp, so the documented and effective warmups agree.
DEFAULT_WARMUP = 20000
