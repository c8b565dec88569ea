"""Host speed, read from a fixed calibration loop run between requests.

On a shared virtual machine the CPU time of one and the same request drifts
by a third or more within minutes, as other tenants load the host's cores,
caches and memory, and the drift lasts longer than any run. A fixed loop
timed between requests is slowed by the same contention, so a request's CPU
time divided by the loop's moves much less. Timed figures are therefore
reported at a reference host speed:

    scaled seconds = request CPU seconds x REFERENCE_S / loop CPU seconds

where the loop figure is the median of the loops run just before and after
the request and its neighbours (``WINDOW`` on each side), so that one loop
caught by a short burst of contention does not set a request's figure.
``REFERENCE_S`` is the loop's median CPU time on the machine that recorded
``baseline.json``, so scaled figures read as seconds on that machine.

The loop never touches shaplab and the garbage collector is off while it
runs, so no change to the program can move it: a program that gets slower
shows the whole slowdown in the scaled figures. It is made of what shaplab's
requests are made of: dict and tuple churn and float arithmetic in the
interpreter, and small numpy calls.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

REFERENCE_S = 0.038  # median loop CPU seconds on the baseline machine
WINDOW = 5  # loops on each side of a request that set its factor

_VECTOR = np.arange(2000.0)


def loop_seconds() -> float:
    """CPU seconds of one pass of the calibration loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        acc, table = 0.0, {}
        for i in range(60000):
            key = (i & 1023, i % 7)
            table[key] = table.get(key, 0.0) + i * 0.5
            acc += abs(table[key]) ** 0.5
        for _ in range(50):
            acc += float((_VECTOR * 1.0001).sum())
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Calibration loops between requests; request ``k`` runs between loops ``k`` and ``k + 1``."""

    def __init__(self):
        self.loops: list[float] = []

    def sample(self) -> None:
        self.loops.append(loop_seconds())

    def factor(self, k: int) -> float:
        """Factor that takes the CPU seconds of request ``k`` to reference seconds."""
        window = self.loops[max(0, k + 1 - WINDOW):k + 1 + WINDOW]
        return REFERENCE_S / statistics.median(window)
