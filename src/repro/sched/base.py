"""Scheduler interface.

A scheduler owns the waiting queue.  The engine notifies it of
submissions and asks it, at every event boundary, which waiting jobs to
start *now*.  Schedulers read only scheduler-visible information: job
descriptions, *predicted* running times (``record.predicted_runtime``)
and the machine's predicted-release profile -- never actual runtimes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping, Sequence
from math import inf
from types import MappingProxyType

from ..sim.machine import Machine
from ..sim.profile import AvailabilityProfile
from ..sim.results import JobRecord

__all__ = ["Scheduler"]


class Scheduler(ABC):
    """Base class for queue-based schedulers."""

    #: short identifier used in reports and triple names.
    name: str = "base"

    def __init__(self) -> None:
        self._queue: list[JobRecord] = []

    # -- engine-facing protocol --------------------------------------------
    def on_submit(self, record: JobRecord) -> None:
        """A job has been released; add it to the waiting queue."""
        self._queue.append(record)

    def on_start(self, record: JobRecord, now: float) -> None:
        """A selected job was placed on the machine.  Default: nothing.

        Backfilling schedulers feed this delta (with :meth:`on_finish` and
        :meth:`on_corrections`) to their
        :class:`~repro.sched.profile_structure.ReleaseTable`, so a pass
        reads the running jobs' releases without rescanning the machine.
        """

    def on_finish(self, record: JobRecord) -> None:
        """A job completed.  Default: nothing (queue unaffected)."""

    def on_corrections(self, records: Sequence[JobRecord]) -> None:
        """All corrections of one event timestamp, as a single batch.

        The engine collects every EXPIRE-triggered correction of a
        timestamp and delivers them together, *before* the scheduling
        pass; a release table applies them at its next read, with the
        moves of any instants before that no read saw.  Default: nothing.
        """

    def on_machine_change(self, now: float, machine: Machine) -> None:
        """The machine's capacity changed (drain/restore).  Default: nothing.

        Schedulers that cache availability derived from the machine's
        free count (not just the running set) must refresh it here; the
        count-based ``in_sync_with`` checks cannot see capacity moves.
        """

    @abstractmethod
    def select_jobs(self, now: float, machine: Machine) -> list[JobRecord]:
        """Jobs to start at ``now``.

        Implementations must remove returned jobs from their queue and
        must only return jobs that fit the machine *in the order given*
        (the engine starts them sequentially and will raise otherwise).
        """

    # -- session queries -----------------------------------------------------
    def estimated_starts(
        self,
        now: float,
        machine: Machine,
        probe: JobRecord | None = None,
    ) -> Mapping[int, float]:
        """Start estimates for the waiting jobs; asking changes no schedule.

        Every waiting job gets a reservation in queue-priority order on
        the predicted availability profile (:meth:`_reservations`); its
        reserved start is conservative backfilling's exact allocation, and
        for EASY-family schedulers the guaranteed-start bound that
        generalises the head's shadow time.  With a ``probe`` (a
        hypothetical record) the answer is *its* start alone, fitted behind
        the queue on the plan without being placed, so a probe leaves no
        trace.  The mapping is a read-only view, possibly of the
        scheduler's carried plan: it is the answer at ``now`` only, not to
        be read once the session moved.
        """
        plan, starts = self._reservations(now, machine)
        if probe is not None:
            starts = {probe.job_id: _earliest_start(plan, probe, now)}
        return MappingProxyType(starts)

    def _reservations(
        self, now: float, machine: Machine
    ) -> tuple[AvailabilityProfile, dict[int, float]]:
        """The profile left after the queue's reservations, and their starts.
        The default recomputes both from the machine; structure-backed
        schedulers serve them from their incremental state."""
        profile = AvailabilityProfile.from_releases(
            machine.processors, now, machine.free, machine.predicted_releases(now)
        )
        return profile, self._reserve_in_order(profile, self._queue, now)

    @staticmethod
    def _reserve_in_order(
        profile: AvailabilityProfile,
        records: Iterable[JobRecord],
        now: float,
    ) -> dict[int, float]:
        """Reserve each record at its earliest fit, in the order given.

        A record wider than the profile's steady-state capacity (possible
        only when processors are drained on a live session) is *held*: it
        gets ``inf`` and takes no reservation.
        """
        return {record.job_id: _earliest_start(profile, record, now, True) for record in records}

    # -- introspection -------------------------------------------------------
    def introspect(self) -> dict[str, float]:
        """Sizes of the scheduler's internal availability structures.

        Read by a telemetry-on session after one scheduling pass in
        sixteen (the ``engine.sched.<key>`` histograms are a systematic
        sample): keep it O(1) and side-effect-free, and the values integer
        sizes (the session tallies them per distinct value).  The default
        is empty: the queue is the session's own sample.
        """
        return {}

    @property
    def queue(self) -> tuple[JobRecord, ...]:
        """Waiting jobs in priority order (read-only view)."""
        return tuple(self._queue)

    @property
    def queue_length(self) -> int:
        return len(self._queue)


def _earliest_start(
    profile: AvailabilityProfile, record: JobRecord, now: float, place: bool = False
) -> float:
    """``record``'s earliest fit on ``profile`` from ``now``, reserved
    there if ``place``; ``inf`` if it is held (wider than the steady-state
    capacity), and then nothing is reserved."""
    if record.processors > profile.terminal_available:
        return inf
    fit = profile.place if place else profile.earliest_fit
    return fit(record.processors, record.predicted_runtime, now)
