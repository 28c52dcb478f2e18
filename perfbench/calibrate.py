"""Host-speed calibration for the end-to-end timings.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, far more than the changes it has to detect.  Each
run therefore times a fixed pure-Python kernel, which shares no code
with the program under test, between campaigns, and reports every
end-to-end time as if the host ran that kernel in
:data:`REFERENCE_S` seconds, timed with the same clock (wall or CPU)
as the figure being scaled.  A change to the program moves the
campaign times but not the kernel, so it still shows in full; a change
in host speed moves both, and cancels.  The raw times and the factors
are printed alongside.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import List, Tuple

#: Calibration-kernel time that defines the reference host speed; on an
#: idle host the kernel's wall and CPU times agree.
REFERENCE_S = 0.015


def _arithmetic() -> int:
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return total


def _allocation() -> int:
    # Small batches, so calibration never raises the run's peak RSS.
    count = 0
    for batch in range(120):
        items = []
        for i in range(1_000):
            items.append((batch, i, "x"))
        count += len(items)
    return count


def sample() -> Tuple[float, float]:
    """One calibration sample: the kernels' wall and CPU time.

    Each is the geometric mean over the two kernels.
    """
    wall, cpu = [], []
    for kernel in (_arithmetic, _allocation):
        w0, c0 = time.perf_counter(), time.process_time()
        kernel()
        wall.append(time.perf_counter() - w0)
        cpu.append(time.process_time() - c0)
    return math.sqrt(wall[0] * wall[1]), math.sqrt(cpu[0] * cpu[1])


class Calibration:
    """Calibration samples taken across one run.

    Wall-clock figures are scaled by the wall-clock factor and CPU-time
    figures by the CPU-time factor: the wall clock also sees the time a
    shared host deschedules the process, and the figures it measures
    should pay for that the way the kernel does.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def take(self, n: int = 1) -> None:
        self.samples.extend(sample() for _ in range(n))

    @property
    def wall_factor(self) -> float:
        """Multiply a raw wall time by this to get a reference-speed time."""
        return REFERENCE_S / statistics.fmean(w for w, _ in self.samples)

    @property
    def cpu_factor(self) -> float:
        """Multiply a raw CPU time by this to get a reference-speed time."""
        return REFERENCE_S / statistics.fmean(c for _, c in self.samples)
