"""The machine's speed right now, as the time of a fixed reference routine.

On a shared machine the same code runs up to about 1.5 times slower for
stretches of several seconds.  A per-document latency divided by the time of
a fixed routine timed just before it cancels most of that: over 3-second
windows of one run on a 2-CPU VM, the median decode latency moved by +-16%
while the ratio moved by +-2%.  The routine mixes the kinds of work docqa
does per document (dict and string handling in Python, small numpy
reductions and dot products), so it slows down with the program.  It lives
in the benchmark, never in docqa, so a change to docqa moves the ratio.

A ratio is in "ref" units: how many reference routines the document took.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The routine is re-timed at most this often; a slow or fast stretch lasts seconds.
INTERVAL_S = 0.1
# The reference is the median of this many latest timings, so one interrupted
# or lucky timing does not skew the documents that follow it.
WINDOW = 5


class Calibration:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((64, 64))
        self._keys = [f"token{i % 97}" for i in range(1200)]
        self._timed_at = float("-inf")
        self.samples_ms: list[float] = []

    def _routine(self) -> float:
        counts: dict[str, int] = {}
        for key in self._keys:
            counts[key] = counts.get(key, 0) + len(key)
        total = float(sum(counts.values()))
        rows = self._matrix
        for i in range(len(rows) - 1):
            shifted = rows[i] - rows[i].max()
            total += float(np.log(np.exp(shifted).sum())) + float(rows[i] @ rows[i + 1])
        return total

    def ref_ms(self) -> float:
        """Time of one reference routine, in ms, over the latest timings; re-timed when older than INTERVAL_S."""
        if time.perf_counter() - self._timed_at >= INTERVAL_S:
            started = time.perf_counter()
            self._routine()
            self._timed_at = time.perf_counter()
            self.samples_ms.append(1000.0 * (self._timed_at - started))
        return statistics.median(self.samples_ms[-WINDOW:])
