"""Host-speed calibration.

The benchmark runs on shared virtual machines whose speed drifts: the
same ``repro index build`` took from 5.5 to 9.0 s in eight runs back to
back on the 2-core host this was tuned on, and a fixed interpreter loop
timed between them slowed and sped up with it.  A run that happens to
fall in a slow minute reads slower on every timing, by more than the
benchmark's bounds.

So a run samples :func:`kernel` on each CPU set it measures work on
(the server's CPU, the generator's CPUs) before every timed piece of
work, and reports its times at the reference speed::

    reported = measured * REFERENCE_S / trimmed mean(kernel samples on that CPU set)

On that host a kernel run takes either its usual time or 1.4-1.8 times
as long, switching from one run to the next, and the share of slow
runs is what drifts; the program's work slows with that share.  A mean
follows the share where a median jumps between the two modes; trimming
:data:`TRIM` of the samples at each end keeps a single descheduled
sample from moving it.  A change to the program moves the reported
number as much as the measured one.  The report line keeps the
measured values and the scales beside the reported ones.
"""

from __future__ import annotations

import os
import statistics
import time

#: Iterations of :func:`kernel` (about 30 ms at the reference speed).
KERNEL_STEPS = 100_000

#: Wall seconds of :func:`kernel` on an uncontended core of the tuning
#: host (2-core KVM guest, Xeon, Python 3.11): the speed reported times
#: are scaled to.
REFERENCE_S = 0.030

#: Share of the kernel samples dropped at each end before averaging.
TRIM = 0.1


def kernel() -> float:
    """Fixed interpreter work: tuple keys, dict lookups and stores,
    float arithmetic — the mix of the program's hot loops."""
    table: dict[tuple[int, int], float] = {}
    total = 0.0
    for i in range(KERNEL_STEPS):
        key = (i % 251, i % 127)
        total += table.get(key, 0.0) * 0.5 + i
        table[key] = total % 1000.0
    return total


def measure(cpus: set[int]) -> float:
    """Wall seconds of one :func:`kernel` run on ``cpus`` (the calling
    thread moves there and back; an empty set runs it in place)."""
    home = os.sched_getaffinity(0) if cpus else set()
    if cpus:
        os.sched_setaffinity(0, cpus)
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if cpus:
            os.sched_setaffinity(0, home)


class HostSpeed:
    """Kernel times per CPU set, sampled through a run."""

    def __init__(self, cpu_sets: list[set[int]]) -> None:
        self.samples: dict[frozenset[int], list[float]] = {
            frozenset(cpus): [] for cpus in cpu_sets}

    def sample(self) -> None:
        """Time one kernel run on each CPU set."""
        for cpus, samples in self.samples.items():
            samples.append(measure(set(cpus)))

    def scale(self, cpus: set[int]) -> float:
        """Factor from measured to reported time for work on ``cpus``."""
        ordered = sorted(self.samples[frozenset(cpus)])
        cut = int(len(ordered) * TRIM)
        return REFERENCE_S / statistics.mean(ordered[cut:len(ordered) - cut])
