"""Incremental availability structures for the scheduling hot path.

The seed implementation recomputed the machine's future availability
from scratch at every scheduling pass: EASY sorted the full
predicted-release list (O(running log running) per pass) and
conservative rebuilt a whole :class:`~repro.sim.profile.AvailabilityProfile`
release by release (O(running^2) per pass).  Over a week-long trace that
per-pass rescan dominates simulation time.

This module provides the two structures that replace it, both maintained
*across* scheduling passes and updated by the engine's start/finish/
re-prediction deltas (see :meth:`repro.sched.base.Scheduler.on_start`
and friends):

* :class:`ReleaseTable` -- a sorted multiset of the running jobs'
  ``(predicted end, processors)`` pairs with O(log n) lookup and
  O(log n + memmove) updates.  EASY's shadow-time query walks only the
  prefix of releases it needs instead of rebuilding and sorting the
  whole list.
* :class:`IncrementalProfile` -- a persistent step function of free
  processors over future time (the conservative scheduler's reservation
  substrate), updated in place on every start/finish/correction and
  snapshot-copied when a reservation plan has to be rebuilt.

Both structures can resynchronise from a :class:`~repro.sim.machine.Machine`
when driven outside the engine (unit tests call ``select_jobs`` by hand),
so correctness never depends on the delta feed being wired up.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from typing import TYPE_CHECKING

from ..sim.profile import AvailabilityProfile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.machine import Machine

__all__ = ["ReleaseTable", "IncrementalProfile"]


class ReleaseTable:
    """Sorted multiset of running jobs' ``(predicted end, processors)``.

    Entries are kept sorted by ``(end, job_id)`` so updates bisect to a
    deterministic position.  Query-time clamping of past predicted ends
    to ``now`` (the machine's "about to finish" convention) preserves the
    order, so no re-sort is ever needed.
    """

    __slots__ = ("_entries", "_by_job")

    def __init__(self) -> None:
        #: sorted (predicted_end, job_id, processors) per running job.
        self._entries: list[tuple[float, int, int]] = []
        self._by_job: dict[int, tuple[float, int]] = {}

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
        """A job finished: drop its release (no-op if untracked)."""
        entry = self._by_job.pop(job_id, None)
        if entry is None:
            return
        end, processors = entry
        idx = bisect.bisect_left(self._entries, (end, job_id, processors))
        del self._entries[idx]

    def move(self, job_id: int, new_end: float) -> None:
        """A job's prediction was corrected: shift its release time."""
        end, processors = self._by_job[job_id]
        idx = bisect.bisect_left(self._entries, (end, job_id, processors))
        del self._entries[idx]
        bisect.insort(self._entries, (new_end, job_id, processors))
        self._by_job[job_id] = (new_end, processors)

    def move_many(self, moves: Sequence[tuple[int, float]] | dict[int, float]) -> None:
        """Shift several jobs' release times with **one** re-sort.

        ``moves`` maps ``job_id -> new_end`` (a dict, or ``(job_id,
        new_end)`` pairs; later duplicates win).  Equivalent to calling
        :meth:`move` per job, but a correction storm costs one filter
        pass plus one sort of the (mostly ordered) entry list instead of
        a per-job bisect + O(n) memmove.
        """
        targets = dict(moves)
        if not targets:
            return
        if len(targets) == 1:
            ((job_id, new_end),) = targets.items()
            self.move(job_id, new_end)
            return
        missing = [job_id for job_id in targets if job_id not in self._by_job]
        if missing:
            raise KeyError(f"jobs not tracked: {missing}")
        self._entries = [e for e in self._entries if e[1] not in targets]
        for job_id, new_end in targets.items():
            processors = self._by_job[job_id][1]
            self._entries.append((new_end, job_id, processors))
            self._by_job[job_id] = (new_end, processors)
        self._entries.sort()

    def clear(self) -> None:
        self._entries.clear()
        self._by_job.clear()

    def resync(self, machine: Machine) -> None:
        """Rebuild from the machine's running set (out-of-engine drivers)."""
        self.clear()
        entries = self._entries
        by_job = self._by_job
        for run in machine.running:
            job_id = run.record.job_id
            entry = (run.predicted_end, job_id, run.record.processors)
            entries.append(entry)
            by_job[job_id] = (entry[0], entry[2])
        entries.sort()

    def in_sync_with(self, machine: Machine) -> bool:
        """Cheap desync check for partially hook-fed drivers.

        Count-based only: callers that never feed deltas must resync
        unconditionally (the schedulers do, via their hook-seen flag);
        callers that feed *every* delta are exactly in sync.  Feeding
        some deltas but not others is a contract violation this check
        cannot always catch.
        """
        return len(self._entries) == machine.n_running

    # -- queries -------------------------------------------------------------
    def releases(self, now: float) -> list[tuple[float, int]]:
        """The machine's clamped ``(end, processors)`` list, soonest first.

        Equivalent to :meth:`repro.sim.machine.Machine.predicted_releases`
        but served from the incrementally-maintained order.
        """
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


class IncrementalProfile(AvailabilityProfile):
    """A persistent availability profile fed by engine deltas.

    Unlike a scratch :class:`AvailabilityProfile`, one instance lives
    for a whole simulation.  It tracks each running job's
    predicted release so finish/correction deltas know which interval to
    give back or take away, and hands out snapshots for reservation
    scratch work.
    """

    def __init__(self, processors: int, now: float = 0.0) -> None:
        super().__init__(processors, now)
        self._jobs: dict[int, tuple[float, int]] = {}

    # -- delta feed ----------------------------------------------------------
    def job_started(self, job_id: int, now: float, predicted_runtime: float,
                    processors: int) -> None:
        """Claim ``processors`` over ``[now, now + predicted_runtime)``."""
        if job_id in self._jobs:
            raise ValueError(f"job {job_id} is already tracked")
        end = now + predicted_runtime
        self.reserve(now, predicted_runtime, processors)
        self._jobs[job_id] = (end, processors)

    def job_finished(self, job_id: int, now: float) -> bool:
        """Forget a finished job, giving back ``[now, predicted end)``.

        Returns whether the step function changed: a job that ends exactly
        at its predicted end had a claim that lapses on its own.
        """
        end, processors = self._jobs.pop(job_id)
        if end > now:
            self._apply_delta(now, end, processors)
            return True
        return False

    def jobs_corrected(
        self, moves: Sequence[tuple[int, float]] | dict[int, float]
    ) -> None:
        """Apply a whole correction storm with **one** profile rebuild.

        ``moves`` maps ``job_id -> new predicted end`` (always later).  The
        engine corrects a job exactly when its old predicted end expires,
        so the old claim has lapsed and the extension spans ``[old end,
        new end)``; all extensions go into the step function in a single
        sweep (:meth:`AvailabilityProfile._apply_deltas`).
        """
        targets = dict(moves)
        deltas: list[tuple[float, float, int]] = []
        updates: list[tuple[int, float, int]] = []
        # validate everything first: a bad entry must not leave _jobs
        # half-updated against an unchanged step function
        for job_id, new_end in targets.items():
            entry = self._jobs.get(job_id)
            if entry is None:
                raise KeyError(f"job {job_id} is not tracked")
            old_end, processors = entry
            if new_end == old_end:
                continue
            if new_end < old_end:
                raise ValueError(
                    f"correction moved job {job_id} backwards: {old_end} -> {new_end}"
                )
            deltas.append((old_end, new_end, -processors))
            updates.append((job_id, new_end, processors))
        self._apply_deltas(deltas)
        for job_id, new_end, processors in updates:
            self._jobs[job_id] = (new_end, processors)

    # -- synchronisation -----------------------------------------------------
    def in_sync_with(self, machine: Machine) -> bool:
        """Count-based desync check; see :meth:`ReleaseTable.in_sync_with`
        for the contract (all deltas or none)."""
        return len(self._jobs) == machine.n_running

    def resync(self, machine: Machine, now: float) -> None:
        """Rebuild from the machine state (out-of-engine drivers)."""
        self._jobs = {
            run.record.job_id: (max(run.predicted_end, now), run.record.processors)
            for run in machine.running
        }
        fresh = AvailabilityProfile.from_releases(
            self.processors, now, machine.free, list(self._jobs.values())
        )
        self._times, self._avail = fresh._times, fresh._avail

    # -- per-pass use --------------------------------------------------------
    def snapshot(self, now: float) -> AvailabilityProfile:
        """A throwaway copy starting at ``now`` for reservation scratch work."""
        self.trim(now)
        return self.copy()
