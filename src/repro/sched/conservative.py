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

from ..sim.machine import Machine
from ..sim.profile import AvailabilityProfile
from ..sim.results import JobRecord
from .base import BackfillScheduler

__all__ = ["ConservativeScheduler"]


class ConservativeScheduler(BackfillScheduler):
    """Reservation-for-everyone backfilling.

    ``reservation_order`` fixes the priority in which reservations are
    granted ('fcfs' is the classic algorithm; 'sjbf' is an extension that
    pairs with the paper's SJBF idea).

    The plan -- the release profile minus one reservation per placed job
    -- is carried from pass to pass with the reserved starts; the placed
    jobs are always a *prefix* of the waiting jobs in reservation order
    (``_ordered``).

    Reservations only take availability away, so a job the full plan
    starts at ``now`` fits at ``now`` on every partial plan: a pass places
    the queue only up to the last job that still fits at ``now`` on the
    plan so far (:meth:`_place_startable`).  The jobs behind it start later
    whatever is placed before them, and wait for a later pass or a query.

    While no hook drops the plan (see :class:`BackfillScheduler`), and no
    arrival outranks a placed job, a pass starts the due jobs and extends
    the prefix; otherwise it replans from the machine's release table.  A
    started job leaves both lists by identity (``list.remove``, no
    rebuild).  Schedules are identical to the seed's per-pass rebuild
    (:class:`repro.sched.legacy.LegacyConservativeScheduler`).
    """

    name = "conservative"

    def __init__(self, reservation_order: str = "fcfs") -> None:
        super().__init__(reservation_order, "reservation")
        self.reservation_order = reservation_order
        self._plan_reused = False

    def on_submit(self, record: JobRecord) -> None:
        starts = self._starts
        if starts and self._key(record) < self._key(self._ordered[len(starts) - 1]):
            self._plan = None  # it outranks a placed job: later starts may move
        super().on_submit(record)

    def introspect(self, machine: Machine) -> dict[str, float]:
        """Also whether the last pass carried the plan over."""
        return {**super().introspect(machine), "plan_reused": float(self._plan_reused)}

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
        plan, self._plan_reused = self._plan_at(now, machine)
        self._place_startable(plan, now)
        self._plan = plan
        starts, ordered = self._starts, self._ordered
        started = [r for r in ordered[: len(starts)] if starts[r.job_id] == now]
        for record in started:
            ordered.remove(record)
            self._queue.remove(record)
            del starts[record.job_id]
        return started
