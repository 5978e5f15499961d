"""Host speed, measured with a fixed piece of work that does not use ttalab.

On a shared host the same code can run up to about 1.6x slower for seconds to
minutes at a time, and CPU time slows with wall time. The benchmark times
this reference next to every round and set-up, then rescales those timings to
a host on which one reference unit takes NOMINAL_S. A change to ttalab moves
the round times and leaves the reference alone. The reference mixes what
ttalab spends its time on: small single-precision GEMMs, elementwise numpy
on small arrays, and interpreter overhead.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 6.0e-3  # one unit on the development host, roughly


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((32, 288)).astype(np.float32)
        self._b = rng.standard_normal((288, 256)).astype(np.float32)
        self._x = rng.standard_normal((16, 32, 32)).astype(np.float32)

    def _unit(self) -> float:
        acc = 0.0
        for _ in range(60):
            c = self._a @ self._b
            c = np.maximum(c, c * np.float32(0.2))
            acc += float(np.abs(c).mean())
            acc += float((self._x * np.float32(1.01) + self._x).sum())
            for j in range(40):
                acc += j * 0.5
        return acc

    def seconds(self, repeats: int = 5) -> float:
        """Median wall time of one reference unit."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self._unit()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns a wall time measured between two reference timings
    into time on the nominal host."""
    return NOMINAL_S / ((before_s + after_s) / 2.0)
