"""Scheduler interface.

A scheduler owns the waiting queue.  The engine notifies it of
submissions and asks it, at every event boundary, which waiting jobs to
start *now*.  Schedulers read only scheduler-visible information: job
descriptions, *predicted* running times (``record.predicted_runtime``)
and the machine's predicted releases (``machine.releases``, which the
machine keeps itself) -- never actual runtimes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import insort
from collections.abc import Iterable, Mapping, Sequence
from math import inf
from types import MappingProxyType

from ..sim.machine import Machine
from ..sim.profile import AvailabilityProfile
from ..sim.results import JobRecord
from .ordering import BACKFILL_ORDERS

__all__ = ["BackfillScheduler", "Scheduler"]


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

    def on_finish(self, record: JobRecord) -> None:
        """A job completed, its processors and its release already gone
        from the machine.  Default: nothing (queue unaffected).

        The machine keeps the running jobs' releases itself; this hook is
        for what a scheduler derived from them (a carried plan), and the
        engine calls it before anything else of the finish can raise.
        """

    def on_corrections(self, records: Sequence[JobRecord]) -> None:
        """Running jobs whose predicted runtime was corrected, their
        releases already moved on the machine.

        The engine reports each EXPIRE-triggered correction at its
        EXPIRE, before anything else of the instant can raise.  Like
        :meth:`on_finish`, it is for what a scheduler derived from the
        releases.  Default: nothing.
        """

    def on_machine_change(self, now: float, machine: Machine) -> None:
        """The machine's capacity changed (drain/restore).  Default: nothing.

        Schedulers that cache availability derived from the machine's
        free count (not just the running set) must refresh it here: no
        start, finish or correction reports a capacity move.
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
    def introspect(self, machine: Machine) -> dict[str, float]:
        """Sizes of the availability structures the scheduler reads.

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


class BackfillScheduler(Scheduler):
    """What EASY and conservative backfilling share: a queue ordering
    (``order``, a :data:`~repro.sched.ordering.BACKFILL_ORDERS` name) and
    a reservation plan carried from call to call, built on the machine's
    release table (``machine.releases``).

    ``_ordered`` holds every waiting job sorted by ``_key`` (keys end in
    the job id, so they are unique): placed by key at submission (a
    waiting job's prediction never changes), left by identity.  ``_plan``
    is the release profile minus a reservation for each of the first
    ``len(_starts)`` jobs of :meth:`_reservation_order`, whose reserved
    starts ``_starts`` holds in that order (``inf``: held); ``_starts``
    means nothing while ``_plan`` is None.

    Every breakpoint of the release profile is ``now`` or a running job's
    predicted end, where a FINISH or EXPIRE event fires.  So as long as no
    running job finished early or was corrected, and the capacity did not
    move, each placed job would get the same start again given the ones
    before it; the hooks below drop the plan when one of those happens,
    and that is all they do: the machine moves the releases itself.
    """

    def __init__(self, order: str, role: str) -> None:
        super().__init__()
        if order not in BACKFILL_ORDERS:
            raise KeyError(
                f"unknown {role} order {order!r}; known: {', '.join(BACKFILL_ORDERS)}"
            )
        if order != "fcfs":
            self.name = f"{self.name}-{order}"
        self._key = BACKFILL_ORDERS[order]
        self._ordered: list[JobRecord] = []
        self._plan: AvailabilityProfile | None = None
        self._starts: dict[int, float] = {}

    # -- engine hooks: the queue grows, or the plan is dropped ----------------
    def on_submit(self, record: JobRecord) -> None:
        self._queue.append(record)  # Scheduler.on_submit's, without a super() call per job
        insort(self._ordered, record, key=self._key)

    def on_finish(self, record: JobRecord) -> None:
        # a job ending exactly at its predicted end leaves the plan as it was
        if record.start_time + record.predicted_runtime > record.end_time:
            self._plan = None

    def on_corrections(self, records: Sequence[JobRecord]) -> None:
        self._plan = None

    def on_machine_change(self, now: float, machine: Machine) -> None:
        self._plan = None  # the plan was built on the old free count

    # -- the carried plan ---------------------------------------------------
    def _reservation_order(self) -> list[JobRecord]:
        """The waiting jobs in the order they take reservations."""
        return self._ordered

    def _plan_at(self, now: float, machine: Machine) -> tuple[AvailabilityProfile, bool]:
        """The plan to place on at ``now``, and whether it was carried.

        The carried plan, trimmed to ``now``, while no reserved start is
        behind ``now``; else a new one from the release table, with
        nothing placed.  It is taken from the scheduler: the caller puts
        it back once its placements are done, so a call that raises
        leaves no half-placed plan behind.
        """
        plan, self._plan = self._plan, None
        if plan is not None and min(self._starts.values(), default=now) >= now:
            plan.trim(now)
            return plan, True
        self._starts = {}
        plan = AvailabilityProfile.from_releases(
            machine.processors, now, machine.free, machine.releases.releases(now)
        )
        return plan, False

    def _reservations(self, now, machine):
        """The plan with every waiting job placed: the jobs it does not
        hold yet are placed behind the ones it does, and it is kept."""
        plan, _ = self._plan_at(now, machine)
        starts = self._starts
        starts.update(self._reserve_in_order(plan, self._reservation_order()[len(starts) :], now))
        self._plan = plan
        return plan, starts

    def introspect(self, machine: Machine) -> dict[str, float]:
        """Release-table length = the sweep a shadow walk or a replan may take."""
        return {"release_table": float(len(machine.releases))}


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
