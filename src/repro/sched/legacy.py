"""The seed per-pass-rescan schedulers, kept as correctness oracles.

These are the pre-profile implementations of EASY and conservative
backfilling: every scheduling pass rebuilds the machine's future
availability from scratch (sorting the full predicted-release list,
or reconstructing a whole :class:`AvailabilityProfile` release by
release).  They are retained verbatim, importing nothing from the
modules they check, so that the equivalence tests can assert the
profile-based hot path produces *identical* schedules, job for job.

Do not use these in campaigns; they are O(running x queued) per pass.
"""

from __future__ import annotations

import bisect
import math

from ..sim.machine import Machine
from ..sim.profile import AvailabilityProfile
from ..sim.results import JobRecord
from .base import Scheduler
from .ordering import BACKFILL_ORDERS, order_queue

__all__ = ["LegacyEasyScheduler", "LegacyConservativeScheduler", "compute_shadow"]


def compute_shadow(
    head_processors: int, free: int, releases: list[tuple[float, int]], now: float
) -> tuple[float, int]:
    """Compute the head job's (shadow time, extra processors).

    ``releases`` is the machine's predicted-release profile, soonest
    first.  Returns ``(shadow_time, extra)`` where ``extra`` is the
    number of processors that will still be free at ``shadow_time`` after
    the head starts; jobs running past the shadow may use at most
    ``extra`` processors.

    Raises :class:`ValueError` if the head can never start (it is wider
    than the machine) -- trace validation prevents that upstream.
    """
    available = free
    if head_processors <= available:
        return now, available - head_processors
    shadow: float | None = None
    for predicted_end, processors in releases:
        if shadow is not None and predicted_end > shadow:
            break
        available += processors
        if shadow is None and available >= head_processors:
            # Keep absorbing releases predicted at the same instant: they
            # are free at the shadow too and belong to the extra pool.
            shadow = max(predicted_end, now)
    if shadow is None:
        raise ValueError(
            f"head job needing {head_processors} processors can never start "
            f"(free={free}, releases={releases})"
        )
    return shadow, available - head_processors


class _SeedProfile(AvailabilityProfile):
    """Seed availability profile: anchor-probing fit, splice-and-coalesce updates.

    The modern :meth:`AvailabilityProfile.earliest_fit` is a single O(S)
    sweep; the seed probed ``min_available`` from every breakpoint in
    turn (O(S^2) per query).  The seed behaviour is preserved here so the
    legacy schedulers benchmark exactly what the seed shipped.

    The whole seed mutation path lives here too (release-by-release
    construction, ``reserve`` with its ``min_available`` pre-check, the
    breakpoint double-splice and the global coalesce), so the oracle
    shares no update code with the profile it checks; only the read-only
    ``min_available`` is inherited.
    """

    @classmethod
    def from_releases(cls, processors, now, free, releases):
        profile = cls(processors, now, free)
        for end_time, width in releases:
            profile.add_release(max(end_time, now), width)
        return profile

    def reserve(self, start: float, duration: float, processors: int) -> None:
        if self.min_available(start, duration) < processors:
            raise ValueError(
                f"reserving {processors} procs over [{start}, {start + duration}) "
                "exceeds availability"
            )
        self._apply_delta(start, start + duration, -processors)

    def _ensure_breakpoint(self, time: float) -> int:
        """Make ``time`` a breakpoint and return its index."""
        idx = bisect.bisect_right(self._times, time) - 1
        if idx < 0:
            raise ValueError(f"time {time} precedes profile start {self._times[0]}")
        if self._times[idx] == time:
            return idx
        self._times.insert(idx + 1, time)
        self._avail.insert(idx + 1, self._avail[idx])
        return idx + 1

    def _apply_delta(self, start: float, end: float, delta: int) -> None:
        first = self._ensure_breakpoint(start)
        if math.isinf(end):
            last = len(self._times)
        else:
            last = self._ensure_breakpoint(end)
        for idx in range(first, last):
            new_value = self._avail[idx] + delta
            if not 0 <= new_value <= self.processors:
                raise ValueError(
                    f"availability {new_value} out of [0, {self.processors}] "
                    f"at t={self._times[idx]}"
                )
            self._avail[idx] = new_value
        self._coalesce()

    def _coalesce(self) -> None:
        """Merge adjacent segments with equal availability."""
        times = [self._times[0]]
        avail = [self._avail[0]]
        for t, a in zip(self._times[1:], self._avail[1:], strict=True):
            if a != avail[-1]:
                times.append(t)
                avail.append(a)
        self._times = times
        self._avail = avail

    def earliest_fit(self, processors: int, duration: float, not_before: float) -> float:
        if processors > self.processors:
            raise ValueError(
                f"cannot fit {processors} processors on an {self.processors}-machine"
            )
        anchors = [max(not_before, self._times[0])]
        anchors.extend(t for t in self._times if t > anchors[0])
        for anchor in anchors:
            if self.min_available(anchor, duration) >= processors:
                return anchor
        raise AssertionError(
            "no fit found; the final profile segment should make this impossible"
        )


class LegacyEasyScheduler(Scheduler):
    """Seed EASY backfilling: full release rescan every pass."""

    def __init__(self, backfill_order: str = "fcfs") -> None:
        super().__init__()
        if backfill_order not in BACKFILL_ORDERS:
            raise KeyError(
                f"unknown backfill order {backfill_order!r}; "
                f"known: {', '.join(BACKFILL_ORDERS)}"
            )
        self.backfill_order = backfill_order
        self.name = "easy" if backfill_order == "fcfs" else f"easy-{backfill_order}"

    def select_jobs(self, now: float, machine: Machine) -> list[JobRecord]:
        started: list[JobRecord] = []
        free = machine.free

        # Phase 1: start the queue head(s) while they fit (FCFS priority).
        while self._queue and self._queue[0].processors <= free:
            record = self._queue.pop(0)
            free -= record.processors
            started.append(record)
        if not self._queue:
            return started

        # Phase 2: the head cannot start; compute its reservation.  The
        # release profile must include the jobs we just decided to start.
        releases = machine.predicted_releases(now)
        for rec in started:
            releases.append((now + rec.predicted_runtime, rec.processors))
        releases.sort()
        head = self._queue[0]
        shadow, extra = compute_shadow(head.processors, free, releases, now)

        # Phase 3: backfill.  A candidate may start iff it fits now and
        # does not delay the head's reservation.
        candidates = order_queue(self._queue[1:], self.backfill_order)
        backfilled_ids: set[int] = set()
        for record in candidates:
            if record.processors > free:
                continue
            finishes_before_shadow = now + record.predicted_runtime <= shadow
            if finishes_before_shadow or record.processors <= extra:
                free -= record.processors
                if not finishes_before_shadow:
                    extra -= record.processors
                started.append(record)
                backfilled_ids.add(record.job_id)
        if backfilled_ids:
            self._queue = [r for r in self._queue if r.job_id not in backfilled_ids]
        return started


class LegacyConservativeScheduler(Scheduler):
    """Seed conservative backfilling: profile rebuilt every pass."""

    def __init__(self, reservation_order: str = "fcfs") -> None:
        super().__init__()
        if reservation_order not in BACKFILL_ORDERS:
            raise KeyError(
                f"unknown reservation order {reservation_order!r}; "
                f"known: {', '.join(BACKFILL_ORDERS)}"
            )
        self.reservation_order = reservation_order
        self.name = (
            "conservative"
            if reservation_order == "fcfs"
            else f"conservative-{reservation_order}"
        )

    def select_jobs(self, now: float, machine: Machine) -> list[JobRecord]:
        if not self._queue:
            return []
        profile = _SeedProfile.from_releases(
            machine.processors, now, machine.free, machine.predicted_releases(now)
        )
        started: list[JobRecord] = []
        started_ids: set[int] = set()
        for record in order_queue(self._queue, self.reservation_order):
            start = profile.earliest_fit(
                record.processors, record.predicted_runtime, not_before=now
            )
            profile.reserve(start, record.predicted_runtime, record.processors)
            if start == now:
                started.append(record)
                started_ids.add(record.job_id)
        if started_ids:
            self._queue = [r for r in self._queue if r.job_id not in started_ids]
        return started
