"""A fixed piece of work, timed between items to track the machine's speed.

On a shared 2-vCPU VM the same pass of a workload ran about 1.5x slower in
some stretches of seconds to minutes than in others, in CPU time as well as
in wall time, and over an hour the machine's speed drifted by up to 1.8x.
How much of a run fell in slow stretches differed from run to run, and it
moved the wall-clock throughput of ``suite`` by more than the largest
regression bound allows. Two variants of one workload run alternately kept
a steady ratio, so the benchmark reports a pass's cost in units of a fixed
probe that it runs in between.

The probe mixes the kinds of work the workloads do: interpreter loops,
integer enumeration blocks and many small NumPy calls from
``reference.brute_norm``, and 64-bit random draws turned into signs. It
calls nothing in the package, so a change to the package cannot move it.
One run takes 9 to 15 ms on the reference machine.
"""

from __future__ import annotations

import time

import numpy as np

import reference

PROBE_SEED = 20151030
LOOP_STEPS = 30_000
# Every array the probe makes stays below 128 KiB, so that it adds little
# to the process's peak memory, which peak_rss_mb reports for the package:
# brute-force forms small enough for one enumeration block each, and 2 MiB
# of draws in blocks of 64 KiB.
FORM2_N, FORM2_RUNS = 10, 30
FORM3_N, FORM3_RUNS = 6, 8
DRAW_BLOCKS = 32
BLOCK_DRAWS = 1 << 13


def _interpreter_loop(steps: int) -> float:
    acc = 0.0
    for i in range(steps):
        acc += abs(float(i % 7) - 3.5) ** 0.5
    return acc


class Probe:
    """Times one fixed run of work per call to ``run`` and keeps the times."""

    def __init__(self) -> None:
        rng = np.random.default_rng(PROBE_SEED)
        self.form2 = rng.choice((-1, 1), size=(FORM2_N,) * 2)
        self.form3 = rng.choice((-1, 1), size=(FORM3_N,) * 3)
        self.times: list[float] = []

    def run(self) -> None:
        t0 = time.perf_counter()
        for _ in range(FORM2_RUNS):
            reference.brute_norm(self.form2)
        for _ in range(FORM3_RUNS):
            reference.brute_norm(self.form3)
        _interpreter_loop(LOOP_STEPS)
        rng = np.random.default_rng(PROBE_SEED)
        for _ in range(DRAW_BLOCKS):
            bits = rng.integers(0, 2**64, size=BLOCK_DRAWS, dtype=np.uint64)
            signs = 1.0 - 2.0 * (bits >> np.uint64(63)).astype(np.float64)
            np.abs(signs).sum()
        self.times.append(time.perf_counter() - t0)
