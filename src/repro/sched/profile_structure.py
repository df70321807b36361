"""The running jobs' predicted releases, kept across scheduling passes.

The seed recomputed the machine's future availability from scratch at
every pass: EASY sorted the full predicted-release list and conservative
rebuilt a whole :class:`~repro.sim.profile.AvailabilityProfile` release
by release.  :class:`ReleaseTable` is the one structure that replaces
both: a sorted multiset of the running jobs' ``(predicted end,
processors)`` pairs.  The machine owns one (``Machine.releases``) and
keeps it in step as it starts, finishes and re-predicts jobs.  EASY's
shadow-time query walks only the prefix of releases it needs; every plan
(conservative's reservations, a start-estimate query) is
:meth:`~repro.sim.profile.AvailabilityProfile.from_releases` over
:meth:`ReleaseTable.releases`.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence

__all__ = ["ReleaseTable"]


class ReleaseTable:
    """Sorted multiset of running jobs' ``(predicted end, processors)``.

    Entries are kept sorted by ``(end, job_id)`` so updates bisect to a
    deterministic position.  Query-time clamping of past predicted ends
    to ``now`` (the machine's "about to finish" convention) preserves the
    order, so no re-sort is ever needed.

    A corrected release lands at the next read: :meth:`move` records the
    new end, and the only readers, :meth:`releases` and :meth:`shadow`,
    apply what is pending (most corrections meet a pass with no queue).
    """

    __slots__ = ("_entries", "_by_job", "_moved")

    def __init__(self) -> None:
        #: sorted (predicted_end, job_id, processors) per running job.
        self._entries: list[tuple[float, int, int]] = []
        self._by_job: dict[int, tuple[float, int]] = {}
        #: new predicted end by job id: the moves no read has applied yet
        self._moved: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._entries)

    # -- delta feed ----------------------------------------------------------
    def add(self, job_id: int, predicted_end: float, processors: int) -> None:
        """A job started: it will release ``processors`` at ``predicted_end``."""
        if job_id in self._by_job:
            raise ValueError(f"job {job_id} is already tracked")
        bisect.insort(self._entries, (predicted_end, job_id, processors))
        self._by_job[job_id] = (predicted_end, processors)

    def discard(self, job_id: int) -> None:
        """A job finished: drop its release, pending move too."""
        end, processors = self._by_job.pop(job_id)
        self._moved.pop(job_id, None)
        idx = bisect.bisect_left(self._entries, (end, job_id, processors))
        del self._entries[idx]

    def move(self, job_id: int, new_end: float) -> None:
        """A job's prediction was corrected: shift its release at the next read."""
        if job_id not in self._by_job:
            raise KeyError(f"job {job_id} is not tracked")
        self._moved[job_id] = new_end

    def move_many(self, moves: Sequence[tuple[int, float]] | dict[int, float]) -> None:
        """Shift several jobs' release times now, with **one** re-sort.

        ``moves`` maps ``job_id -> new_end`` (a dict, or ``(job_id,
        new_end)`` pairs; later duplicates win): :meth:`move` per job, then
        one filter pass and one sort of the (mostly ordered) entry list.
        No scheduler calls it any more (each :meth:`move` lands at the next
        read); only the benchmark's storm probe and the tests do.
        """
        targets = dict(moves)
        missing = [job_id for job_id in targets if job_id not in self._by_job]
        if missing:
            raise KeyError(f"jobs not tracked: {missing}")
        if targets:
            self._moved.update(targets)
            self._settle()

    def _settle(self) -> None:
        """Apply the pending moves: one bisect and insort, or one sort for several."""
        moved, by_job = self._moved, self._by_job
        if len(moved) == 1:
            ((job_id, new_end),) = moved.items()
            end, processors = by_job[job_id]
            entries = self._entries
            del entries[bisect.bisect_left(entries, (end, job_id, processors))]
            bisect.insort(entries, (new_end, job_id, processors))
            by_job[job_id] = (new_end, processors)
        else:
            entries = [e for e in self._entries if e[1] not in moved]
            for job_id, new_end in moved.items():
                processors = by_job[job_id][1]
                entries.append((new_end, job_id, processors))
                by_job[job_id] = (new_end, processors)
            entries.sort()
            self._entries = entries
        moved.clear()

    # -- queries -------------------------------------------------------------
    def releases(self, now: float) -> list[tuple[float, int]]:
        """The machine's clamped ``(end, processors)`` list, soonest first.

        Equivalent to :meth:`repro.sim.machine.Machine.predicted_releases`
        but served from the incrementally-maintained order.
        """
        if self._moved:
            self._settle()
        return [(end if end > now else now, procs) for end, _, procs in self._entries]

    def shadow(
        self,
        head_processors: int,
        free: int,
        now: float,
        pending: Sequence[tuple[float, int]] = (),
    ) -> tuple[float, int]:
        """Compute the head job's ``(shadow time, extra processors)``.

        Semantically identical to the oracle's :func:`repro.sched.legacy.compute_shadow`
        over the clamped release list merged with ``pending`` (releases of
        jobs selected earlier in the same pass, not yet started on the
        machine) -- but lazily: the scan stops at the shadow instead of
        materialising and sorting the full list.
        """
        available = free
        if head_processors <= available:
            return now, available - head_processors
        if self._moved:
            self._settle()
        entries = self._entries
        pend = sorted(pending) if pending else ()
        i, j = 0, 0
        n, m = len(entries), len(pend)
        shadow: float | None = None
        while i < n or j < m:
            if j >= m or (i < n and entries[i][0] <= pend[j][0]):
                end, _, processors = entries[i]
                i += 1
            else:
                end, processors = pend[j]
                j += 1
            if end < now:
                end = now
            if shadow is not None and end > shadow:
                break
            available += processors
            if shadow is None and available >= head_processors:
                shadow = end
        if shadow is None:
            raise ValueError(
                f"head job needing {head_processors} processors can never start "
                f"(free={free}, releases={self.releases(now)}, pending={list(pending)})"
            )
        return shadow, available - head_processors
