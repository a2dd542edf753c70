"""Same-machine engine speed floors.

Each floor compares best-of-N wall-clock times taken in alternation in
one process, so it holds on any host.  The engines' exact accuracy
claims are tier-1 tests in ``tests/test_engine_claims.py``.  The engine
floors run at the shipped defaults; the serial floor honours
``REPRO_WORKLOADS`` / ``REPRO_LENGTH`` / ``REPRO_WARMUP``.  Writes no
file; ``-s`` shows one line per floor::

    PYTHONPATH=src python -m pytest -q -s benchmarks/test_perf_smoke.py
"""

import functools
import os
import tempfile
import time

import pytest

from repro.core.config import baseline
from repro.core.core import OOOCore
from repro.emu.batch import warm_batch
from repro.emu.warmup import FunctionalWarmer
from repro.sim import settings
from repro.sim.cache import ResultCache
from repro.sim.defaults import DEFAULT_LENGTH, DEFAULT_WARMUP
from repro.sim.parallel import run_matrix
from repro.sim.runner import simulate
from repro.workloads.suite import build_workload, workload_names

#: The validation subset of ``tests/test_engine_claims.py``.
VALIDATION_WORKLOADS = ["tpce", "geekbench", "spec06_namd", "spec17_mcf",
                        "specjenterprise", "spec17_x264", "spec17_parest",
                        "bigbench"]

#: Two-speed vs full detail over the subset.  It was 2.5x until the
#: event-driven core made full detail itself ~1.5x faster.
MIN_TWO_SPEED_SPEEDUP = 1.8

#: Checkpoint-hit sampled runs (K=4 intervals of N=800) vs the two-speed
#: single window.  K*N is ~1/5 of the window's detailed work; at least 2x
#: of that must show up as wall clock once the checkpoints are warm.
SAMPLES, INTERVAL_LENGTH = 4, 800
MIN_SAMPLING_SPEEDUP = 2.0

#: Batched functional warming (:mod:`repro.emu.batch`) at width 8, the
#: 8-config sweep shape it is built for, vs the scalar warmer.  This
#: floor goes when ``emu/batch.py`` does.
MIN_BATCH_WARM_SPEEDUP = 3.0

#: Serial instr/s over pre-built traces: 0.2x the 113,305 recorded at the
#: shipped defaults on the development machine, the effective floor of the
#: retired reference gate.  Catches an order-of-magnitude regression (say
#: a per-cycle O(n) scan) without flaking on slow runners.
MIN_SERIAL_INSTR_PER_SECOND = 22661.0


@pytest.fixture(autouse=True)
def _unperturbed(monkeypatch):
    """Time the engines' fast paths, not faults or checks."""
    for name in ("REPRO_FF", "REPRO_FAULT", "REPRO_CHECK_INVARIANTS"):
        monkeypatch.delenv(name, raising=False)


def _best_seconds(runs, rounds):
    """Best-of-``rounds`` seconds of each callable, timed in alternation."""
    best = [float("inf")] * len(runs)
    for _ in range(rounds):
        for i, run in enumerate(runs):
            started = time.perf_counter()
            run()
            best[i] = min(best[i], time.perf_counter() - started)
    return best


def _check(label, value, floor, fmt="%.2fx"):
    line = "%s: %s (floor %s)" % (label, fmt % value, fmt % floor)
    print("\n" + line)
    assert value >= floor, line


@pytest.fixture(scope="module")
def seconds():
    """Per-workload best-of-4 (full detail, two-speed) seconds."""
    configs = (baseline(fast_forward=False, idle_skip=False), baseline())
    seconds = {}
    for name in VALIDATION_WORKLOADS:
        trace = build_workload(name, length=DEFAULT_LENGTH)
        seconds[name] = _best_seconds(
            [functools.partial(simulate, trace, config, length=DEFAULT_LENGTH,
                               warmup=DEFAULT_WARMUP) for config in configs],
            rounds=4)
    return seconds


def test_two_speed_floor(seconds):
    full_s, two_s = (sum(column) for column in zip(*seconds.values()))
    _check("two-speed vs full detail", full_s / two_s, MIN_TWO_SPEED_SPEEDUP)


def test_sampled_checkpoint_hit_floor(seconds, monkeypatch):
    hit_s = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", os.path.join(tmp, "ckpt"))

        def sampled(name):
            # A fresh result cache per pass: the timed passes restore
            # every interval from the store, not a cached result.
            run_matrix([baseline()], [name], DEFAULT_LENGTH, DEFAULT_WARMUP,
                       cache=ResultCache(tempfile.mkdtemp(dir=tmp)),
                       max_workers=1,
                       sampling={"samples": SAMPLES,
                                 "interval_length": INTERVAL_LENGTH})

        for name in VALIDATION_WORKLOADS:
            run = functools.partial(sampled, name)
            run()  # cold: warms and fills the store
            hit_s += _best_seconds([run], rounds=3)[0]
    _check("sampled (checkpoint hit) vs two-speed",
           sum(two_s for _, two_s in seconds.values()) / hit_s,
           MIN_SAMPLING_SPEEDUP)


def test_batched_warm_floor():
    sweep = [baseline().evolve(name="bw%d" % i, rfp={"enabled": True},
                               hit_miss_entries=512 << (i % 4),
                               rfp_dedicated_ports=i // 4)
             for i in range(8)]
    traces = [build_workload(name, length=DEFAULT_LENGTH)
              for name in VALIDATION_WORKLOADS]

    scalar_s, batched_s = _best_seconds([
        lambda: [FunctionalWarmer(OOOCore(t, sweep[0])).warm(DEFAULT_LENGTH)
                 for t in traces],
        lambda: [warm_batch([(trace, trace.name, config, DEFAULT_LENGTH,
                              [DEFAULT_LENGTH]) for config in sweep],
                            store=None, width=8) for trace in traces],
    ], rounds=3)
    # Instructions per second: the batched pass warms 8 configs per trace.
    _check("batched warm (w8) vs scalar", 8 * scalar_s / batched_s,
           MIN_BATCH_WARM_SPEEDUP)


def test_serial_floor():
    # Last: the earlier floors leave a large heap that slows later GCs.
    length = settings.get("REPRO_LENGTH")
    warmup = settings.get("REPRO_WARMUP")
    names = workload_names()[: settings.get("REPRO_WORKLOADS")][:4]
    traces = [build_workload(name, length=length) for name in names]
    (serial_s,) = _best_seconds(
        [lambda: [simulate(trace, baseline(), length=length, warmup=warmup)
                  for trace in traces]], rounds=3)
    # Every instruction counts, fast-forwarded or run in detail.
    _check("serial fast path", len(traces) * length / serial_s,
           MIN_SERIAL_INSTR_PER_SECOND, fmt="%.0f instr/s")
