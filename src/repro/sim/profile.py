"""Processor-availability profile over future time.

Every reservation plan is one of these, built from the running jobs'
predicted releases by :meth:`AvailabilityProfile.from_releases`:
conservative backfilling's (every queued job holds a reservation) and a
start-estimate query's; :meth:`AvailabilityProfile.place` takes each
reservation, finding the earliest fit and subtracting it in one sweep.
Tests also use it as an independent oracle for EASY's shadow times.

The profile is a step function ``available(t)`` represented by sorted
breakpoints; the final segment extends to infinity.  All mutating
operations preserve the invariants ``0 <= available(t) <= m`` and strictly
increasing breakpoint times.
"""

from __future__ import annotations

import bisect
import math

__all__ = ["AvailabilityProfile"]


class AvailabilityProfile:
    """Step function of free processors from ``now`` to infinity."""

    def __init__(self, processors: int, now: float, free: int | None = None) -> None:
        if processors <= 0:
            raise ValueError("processors must be positive")
        free = processors if free is None else free
        if not 0 <= free <= processors:
            raise ValueError(f"free={free} out of range [0, {processors}]")
        self.processors = int(processors)
        self._times: list[float] = [now]
        self._avail: list[int] = [int(free)]

    # -- construction --------------------------------------------------------
    @classmethod
    def from_releases(
        cls,
        processors: int,
        now: float,
        free: int,
        releases: list[tuple[float, int]],
    ) -> AvailabilityProfile:
        """Build the profile implied by running jobs' (end, width) pairs.

        One sort and one cumulative pass; ends at or before ``now`` (jobs
        about to finish) release immediately.
        """
        profile = cls(processors, now, free)
        times, avail = profile._times, profile._avail
        level = avail[0]
        for end_time, width in sorted(releases):
            if width <= 0:
                raise ValueError("released processors must be positive")
            level += width
            if end_time <= times[-1]:
                avail[-1] = level
            else:
                times.append(end_time)
                avail.append(level)
        if level > profile.processors:
            raise ValueError(
                f"availability {level} out of [0, {profile.processors}] "
                f"at t={times[-1]}"
            )
        return profile

    def add_release(self, time: float, processors: int) -> None:
        """From ``time`` onwards, ``processors`` more become available."""
        if processors <= 0:
            raise ValueError("released processors must be positive")
        self._apply_delta(time, math.inf, processors)

    # -- queries --------------------------------------------------------------
    @property
    def terminal_available(self) -> int:
        """Availability of the infinite final segment (steady state).

        Equals the machine size minus any drained capacity: every running
        job eventually releases, but drained processors never do.  A job
        wider than this can never fit on the profile.
        """
        return self._avail[-1]

    def available_at(self, time: float) -> int:
        """Free processors at ``time`` (>= profile start)."""
        if time < self._times[0]:
            raise ValueError(f"query at {time} precedes profile start {self._times[0]}")
        idx = bisect.bisect_right(self._times, time) - 1
        return self._avail[idx]

    def horizon(self, processors: int) -> float:
        """The first breakpoint from which fewer than ``processors`` are
        free, ``inf`` if none: a job that wide fits at the profile's start
        exactly when it ends by then."""
        for time, free in zip(self._times, self._avail):
            if free < processors:
                return time
        return math.inf

    def min_available(self, start: float, duration: float) -> int:
        """Minimum availability over ``[start, start + duration)``."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        lo = bisect.bisect_right(self._times, start) - 1
        hi = bisect.bisect_left(self._times, start + duration, lo + 1)
        return min(self._avail[lo:hi])

    def earliest_fit(self, processors: int, duration: float, not_before: float) -> float:
        """Earliest ``t >= not_before`` where ``processors`` stay free for
        ``duration`` seconds.

        Always exists because the final segment extends to infinity --
        provided ``processors <= m`` and every reservation eventually ends.
        """
        return self._sweep(processors, duration, not_before)[0]

    def _sweep(self, processors: int, duration: float, not_before: float) -> tuple[float, int, int]:
        """The earliest fit's start, first segment and one past its last.

        Single left-to-right sweep over the segments, O(segments): the
        candidate anchor advances past every under-capacity segment and a
        fit is declared once a clean window of length ``duration`` has
        been crossed.  Equivalent to (but much faster than) probing
        ``min_available`` from every breakpoint in turn.
        """
        if processors > self.processors:
            raise ValueError(
                f"cannot fit {processors} processors on an {self.processors}-machine"
            )
        times = self._times
        avail = self._avail
        n = len(times)
        anchor = max(not_before, times[0])
        # first segment overlapping the anchor
        idx = first = bisect.bisect_right(times, anchor) - 1
        while idx < n:
            if avail[idx] < processors:
                # segment under capacity: the window must start after it
                idx += 1
                if idx >= n:
                    break
                anchor = times[idx]
                first = idx
                continue
            # segment has capacity; does the clean window reach anchor + duration?
            if idx + 1 >= n or times[idx + 1] >= anchor + duration:
                return anchor, first, idx + 1
            idx += 1
        raise AssertionError(
            "no fit found; the final profile segment should make this impossible"
        )

    # -- mutation ---------------------------------------------------------------
    def reserve(self, start: float, duration: float, processors: int) -> None:
        """Subtract ``processors`` over ``[start, start + duration)``.

        Raises :class:`ValueError` (leaving the profile untouched) if the
        interval lacks capacity, so a buggy caller cannot silently
        oversubscribe the machine.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        self._apply_delta(start, start + duration, -processors)

    def place(self, processors: int, duration: float, not_before: float) -> float:
        """:meth:`earliest_fit` then :meth:`reserve` there, in one walk;
        returns the start.  The swept segments all have the capacity: they
        shift in place, and only the two edges can split or merge.  Raises
        :class:`ValueError`, leaving the profile untouched, as the pair does."""
        if not (duration > 0 and processors > 0):  # NaN fails the test too
            raise ValueError("placed duration and processors must be positive")
        start, lo, hi = self._sweep(processors, duration, not_before)
        times, avail = self._times, self._avail
        for idx in range(lo, hi):
            avail[idx] -= processors
        end = start + duration
        if hi < len(times) and times[hi] == end:
            if avail[hi] == avail[hi - 1]:  # it now runs into the segment after it
                del times[hi], avail[hi]
        elif end < math.inf:  # split the last segment: its remainder keeps the old value
            times.insert(hi, end)
            avail.insert(hi, avail[hi - 1] + processors)
        if times[lo] < start:  # split the first segment: its head keeps the old value
            times.insert(lo + 1, start)
            avail.insert(lo + 1, avail[lo])
            avail[lo] += processors
        elif lo and avail[lo - 1] == avail[lo]:  # it now continues the segment before it
            del times[lo], avail[lo]
        return start

    def trim(self, now: float) -> None:
        """Drop stale breakpoints before ``now`` (time never rewinds)."""
        idx = bisect.bisect_right(self._times, now) - 1
        if idx > 0:
            del self._times[:idx]
            del self._avail[:idx]
        if self._times[0] < now:
            self._times[0] = now

    def _apply_delta(self, start: float, end: float, delta: int) -> None:
        """Shift availability by ``delta`` over ``[start, end)``, atomically.

        Only the touched span is rewritten.  Neighbouring segments inside
        it differed before the uniform shift and still differ after it,
        so breakpoints can only appear or vanish at the two edges.
        """
        times, avail = self._times, self._avail
        if start < times[0]:
            raise ValueError(f"time {start} precedes profile start {times[0]}")
        if end <= start or not delta:
            return
        lo = bisect.bisect_right(times, start) - 1
        hi = bisect.bisect_left(times, end, lo + 1)
        span_times = times[lo:hi]
        span = [a + delta for a in avail[lo:hi]]
        worst = min(span) if delta < 0 else max(span)
        if not 0 <= worst <= self.processors:
            raise ValueError(
                f"availability {worst} out of [0, {self.processors}] "
                f"over [{start}, {end})"
            )
        tail = span[-1]
        if span_times[0] < start:
            # split the first segment: its head keeps the old value
            span_times.insert(1, start)
            span.insert(0, avail[lo])
        elif lo and avail[lo - 1] == span[0]:
            # the shifted span now continues the segment before it
            del span_times[0], span[0]
        if hi < len(times) and times[hi] == end:
            if avail[hi] == tail:
                # the shifted span now runs into the segment after it
                hi += 1
        elif end < math.inf:
            # split the last segment: its remainder keeps the old value
            span_times.append(end)
            span.append(tail - delta)
        times[lo:hi] = span_times
        avail[lo:hi] = span

    # -- introspection -------------------------------------------------------
    def steps(self) -> list[tuple[float, int]]:
        """The (time, availability) breakpoints, for tests and display."""
        return list(zip(self._times, self._avail, strict=True))
