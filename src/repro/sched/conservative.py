"""Conservative backfilling.

Every waiting job holds a reservation (paper Section 2.1, Mu'alem &
Feitelson 2001): a lower-priority job may backfill only if it delays *no*
earlier reservation, not just the head's.  The paper describes the
allocation as "completely recomputed" at every event; the schedule here
is exactly that one, but a pass recomputes only what the event could
have changed (see :class:`ConservativeScheduler`).

Included as the third backfilling variant for extension studies; the
paper's campaign proper uses EASY and EASY-SJBF.
"""

from __future__ import annotations

from bisect import bisect_left

from ..sim.machine import Machine
from ..sim.profile import AvailabilityProfile
from ..sim.results import JobRecord
from .base import Scheduler
from .ordering import BACKFILL_ORDERS
from .profile_structure import ReleaseTable

__all__ = ["ConservativeScheduler"]


class ConservativeScheduler(Scheduler):
    """Reservation-for-everyone backfilling.

    ``reservation_order`` fixes the priority in which reservations are
    granted ('fcfs' is the classic algorithm; 'sjbf' is an extension that
    pairs with the paper's SJBF idea).

    The running jobs' predicted releases are kept in a :class:`ReleaseTable`
    fed the engine's deltas as EASY's is (a correction lands at the next
    replan), and a replan builds the profile from it as EASY's query plan.  The *plan* -- that profile minus one
    reservation per placed job -- is carried from pass to pass with the
    reserved starts; the placed jobs are always a *prefix* of the waiting
    jobs in reservation order (``_ordered``).

    Reservations only take availability away, so a job the full plan
    starts at ``now`` fits at ``now`` on every partial plan: a pass places
    the queue only up to the last job that still fits at ``now`` on the
    plan so far (:meth:`_place_startable`).  The jobs behind it start later
    whatever is placed before them, and wait for a later pass or a query.

    Waiting jobs' predictions are fixed at submission and every
    breakpoint of the plan is a running job's predicted end, where a
    FINISH or EXPIRE event fires; so as long as no running job finished
    early, was corrected, or saw the machine resized, each placed job
    would get the same start again given the ones before it (true of any
    prefix): a pass starts the due ones and extends the prefix.  Anything
    else, or an arrival that outranks a placed job, replans from the
    table.  A started job leaves both lists by identity (``list.remove``,
    no rebuild).  Schedules are identical to the seed's per-pass rebuild
    (:class:`repro.sched.legacy.LegacyConservativeScheduler`).
    """

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
        self._key = BACKFILL_ORDERS[reservation_order]
        self._releases = ReleaseTable()
        #: set on the first delta; drivers that never feed deltas (unit
        #: tests poking select_jobs by hand) get a full resync per pass.
        self._delta_fed = False
        #: release profile minus every reservation below; None once a hook saw it go stale
        self._plan: AvailabilityProfile | None = None
        #: every waiting job, sorted by ``_key`` (keys end in the job id)
        self._ordered: list[JobRecord] = []
        #: reserved start of ``_ordered``'s first ``len(_starts)`` jobs, in order (``inf``: held)
        self._starts: dict[int, float] = {}
        self._plan_reused = False

    # -- engine delta feed --------------------------------------------------
    def on_submit(self, record: JobRecord) -> None:
        super().on_submit(record)
        idx = bisect_left(self._ordered, self._key(record), key=self._key)
        if idx < len(self._starts):
            self._plan = None  # it outranks a placed job: later starts may move
        self._ordered.insert(idx, record)

    def on_start(self, record: JobRecord, now: float) -> None:
        self._delta_fed = True
        self._releases.add(
            record.job_id, now + record.predicted_runtime, record.processors
        )

    def on_finish(self, record: JobRecord) -> None:
        self._releases.discard(record.job_id)
        # a job ending exactly at its predicted end leaves the plan as it was
        if record.start_time + record.predicted_runtime > record.end_time:
            self._plan = None

    def on_corrections(self, records) -> None:
        self._plan = None
        move = self._releases.move  # each lands at the table's next read
        for record in records:
            move(record.job_id, record.start_time + record.predicted_runtime)

    def on_machine_change(self, now, machine) -> None:
        # drains/restores change the free count the plan was built on
        self._plan = None

    # -- session queries ------------------------------------------------------
    def introspect(self) -> dict[str, float]:
        """Release-table length = the sweep a replan walks, and whether
        the last pass carried the plan over instead."""
        return {
            "release_table": float(len(self._releases)),
            "plan_reused": float(self._plan_reused),
        }

    def _hook_fed(self, machine: Machine) -> bool:
        """True when the release table tracks ``machine`` through the hooks."""
        return self._delta_fed and self._releases.in_sync_with(machine)

    def _plan_holds(self, now: float, machine: Machine) -> bool:
        """True when the carried plan still describes the machine at ``now``."""
        return (
            self._plan is not None
            and self._hook_fed(machine)
            and min(self._starts.values(), default=now) >= now
        )

    def _reservations(self, now, machine):
        """Exact reservation starts: the allocation ``select_jobs`` works
        from, so with exact predictions the start the job will really get.
        While the carried plan holds, the jobs the passes left unplaced are
        placed on it and kept (a query may lengthen the prefix, it never
        moves a placed start); else the machine alone answers, nothing kept."""
        if self._plan_holds(now, machine):
            plan, starts = self._plan, self._starts
        else:
            starts = {}
            plan = AvailabilityProfile.from_releases(
                machine.processors, now, machine.free, machine.predicted_releases(now)
            )
        starts.update(self._reserve_in_order(plan, self._ordered[len(starts) :], now))
        return plan, starts

    def _place_startable(self, plan: AvailabilityProfile, now: float) -> None:
        """Extend the placed prefix to the last waiting job that fits at
        ``now`` on the plan so far, in one scan (``plan`` starts at ``now``):
        one that ends by its width's ``horizon``, kept until a placement."""
        ordered, starts = self._ordered, self._starts
        free, horizons = plan.available_at(now), {}
        for idx in range(len(starts), len(ordered)):
            if not free:
                return  # no processor left at ``now``
            record = ordered[idx]
            width = record.processors
            if width > free:
                continue
            horizon = horizons.get(width)
            if horizon is None:
                horizon = horizons[width] = plan.horizon(width)
            if now + record.predicted_runtime <= horizon:
                starts.update(self._reserve_in_order(plan, ordered[len(starts) : idx + 1], now))
                free = plan.available_at(now)
                horizons.clear()

    def select_jobs(self, now: float, machine: Machine) -> list[JobRecord]:
        if not self._queue:
            self._plan_reused = False
            return []
        starts, ordered = self._starts, self._ordered
        self._plan_reused = self._plan_holds(now, machine)
        if self._plan_reused:  # no hook dropped the plan: every reservation stands
            self._plan.trim(now)
        else:
            if not self._hook_fed(machine):
                # no start seen yet, or driven outside the engine (unit
                # tests poking select_jobs by hand): rebuild from machine state
                self._releases.resync(machine)
            self._plan = AvailabilityProfile.from_releases(
                machine.processors, now, machine.free, self._releases.releases(now)
            )
            starts.clear()
        self._place_startable(self._plan, now)
        started = [r for r in ordered[: len(starts)] if starts[r.job_id] == now]
        for record in started:
            ordered.remove(record)
            self._queue.remove(record)
            del starts[record.job_id]
        return started
