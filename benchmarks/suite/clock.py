"""The speed of the box, and pass timing that follows it.

The box the suite runs on is a few cores of a shared host, and its speed
moves: the same pure-Python loop takes 1x to 1.9x its best time, CPU time
and wall time alike (no steal is reported: the core itself is slower
while a neighbour shares it), in spells of one to twenty seconds.  No
statistic over raw seconds sees past that -- a whole run can fall into
one spell -- so every timed segment of a pass is bracketed by two slices
of a fixed calibration loop, a few milliseconds each, and the segment is
counted in units of the slices around it.  Times reported from that are
*reference-box seconds*: the loop takes ``CALIB_REFERENCE_S`` on the box
the suite was sized on, in a quiet moment.

The loop is the suite's own and calls nothing of the program, so a
change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter

import numpy as np

#: what one ``calibrate()`` slice takes on the sizing box at its fastest
CALIB_REFERENCE_S = 0.0042


def calibrate() -> float:
    """Seconds of one slice of the fixed pure-Python + numpy loop (~4 ms)."""
    t0 = perf_counter()
    heap: list[tuple[float, int]] = []
    acc = 0.0
    for i in range(4000):
        acc += (i % 7) * 0.5
        heapq.heappush(heap, (acc % 97.0, i))
        if len(heap) > 1000:  # small on purpose: peak_rss_mb is the workload's
            heapq.heappop(heap)
    values = np.arange(20_000, dtype=float) % 1013.0
    for _ in range(4):
        values = np.sort(values * 1.0001 % 1013.0)
    return perf_counter() - t0


class SegmentTimer:
    """Times the consecutive segments of one pass.

    The clock starts when the timer is made and ``cut()`` ends a segment;
    a calibration slice runs before the first segment and after every
    cut, outside the timed region.
    """

    def __init__(self) -> None:
        self.segments: list[float] = []
        self.slices = [calibrate()]
        self._mark = perf_counter()

    def cut(self) -> None:
        self.segments.append(perf_counter() - self._mark)
        self.slices.append(calibrate())
        self._mark = perf_counter()

    def speeds(self) -> list[float]:
        """Calibration seconds around each segment: the mean of the slice
        before it and the slice after it."""
        return [(a + b) / 2.0 for a, b in zip(self.slices, self.slices[1:], strict=False)]


def timed(fn) -> tuple[float, float]:
    """``fn()`` timed as one segment between three slices before and three
    after: ``(raw seconds, reference-box seconds)``.  For set-up steps,
    which take a few tenths of a second and are not cut into segments."""
    slices = [calibrate() for _ in range(3)]
    t0 = perf_counter()
    fn()
    raw = perf_counter() - t0
    slices += [calibrate() for _ in range(3)]
    return raw, raw / statistics.fmean(slices) * CALIB_REFERENCE_S


def steady_seconds(passes: list[tuple[list[float], list[float]]]) -> float:
    """Reference-box seconds of one pass, from several passes given as
    ``(segments, speeds)``: segment k does the same work in every pass,
    so take the median over the passes of its time in calibration units,
    and sum over k."""
    relative = ([seg / speed for seg, speed in zip(*one, strict=True)] for one in passes)
    return CALIB_REFERENCE_S * sum(statistics.median(ks) for ks in zip(*relative, strict=True))
