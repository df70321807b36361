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
from .base import Scheduler
from .ordering import BACKFILL_ORDERS
from .profile_structure import IncrementalProfile

__all__ = ["ConservativeScheduler"]


class ConservativeScheduler(Scheduler):
    """Reservation-for-everyone backfilling.

    ``reservation_order`` fixes the priority in which reservations are
    granted ('fcfs' is the classic algorithm; 'sjbf' is an extension that
    pairs with the paper's SJBF idea).

    The running jobs' availability step function is maintained in an
    :class:`IncrementalProfile` fed by engine deltas.  The *plan* -- that
    profile minus one reservation per waiting job -- is carried from pass
    to pass together with every reserved start.  Waiting jobs' predictions
    are fixed at submission and every breakpoint of the plan is a running
    job's predicted end, where a FINISH or EXPIRE event fires; so as long
    as no running job finished early, was corrected, or saw the machine
    resized, every placed job would get the same start again and a pass
    only starts the jobs whose reservation has come due and places the
    submissions that arrived since.  Anything else replans the whole
    queue on a fresh snapshot -- the same loop over the full order.
    Schedules are identical to the seed's per-pass rebuild (kept as
    :class:`repro.sched.legacy.LegacyConservativeScheduler`).
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
        self._base: IncrementalProfile | None = None
        #: set on the first delta; drivers that never feed deltas (unit
        #: tests poking select_jobs by hand) get a full resync per pass.
        self._delta_fed = False
        #: the carried plan: base profile minus every reservation below;
        #: None once a hook has seen the base change under it.
        self._plan: AvailabilityProfile | None = None
        #: waiting jobs placed by the last pass, in reservation order
        #: (corrections never reorder *waiting* jobs); the queue's tail
        #: beyond ``len(_order_cache)`` is what was submitted since.
        self._order_cache: list[JobRecord] = []
        #: reserved start per placed job (``inf``: held, no reservation).
        self._starts: dict[int, float] = {}
        self._plan_reused = False

    # -- engine delta feed --------------------------------------------------
    def on_start(self, record: JobRecord, now: float) -> None:
        self._delta_fed = True
        if self._base is not None:
            self._base.job_started(
                record.job_id, now, record.predicted_runtime, record.processors
            )

    def on_finish(self, record: JobRecord) -> None:
        # a job ending exactly at its predicted end leaves the plan as it was
        if self._base is not None and self._base.job_finished(
            record.job_id, record.end_time
        ):
            self._plan = None

    def on_correction(self, record: JobRecord) -> None:
        self._claims_moved([record])

    def on_corrections(self, records) -> None:
        # a same-timestamp correction storm costs one profile rebuild
        self._claims_moved(records)

    def _claims_moved(self, records) -> None:
        if self._base is not None:
            self._plan = None
            self._base.jobs_corrected(
                [(r.job_id, r.start_time + r.predicted_runtime) for r in records]
            )

    def on_machine_change(self, now, machine) -> None:
        # drains/restores change the baseline free count the incremental
        # profile was seeded with; the count-based sync check cannot see
        # that, so rebuild from the machine outright
        self._plan = None
        if self._base is not None:
            self._base.resync(machine, now)

    # -- session queries ------------------------------------------------------
    def introspect(self) -> dict[str, float]:
        """Segment count of the base profile = full-replan sweep length,
        and whether the last pass carried the plan over instead."""
        segments = 0 if self._base is None else self._base.n_segments
        return {
            "profile_segments": float(segments),
            "plan_reused": float(self._plan_reused),
        }

    def _hook_fed(self, machine: Machine) -> bool:
        """True when the base profile tracks ``machine`` through the hooks."""
        return (
            self._base is not None
            and self._delta_fed
            and self._base.in_sync_with(machine)
        )

    def _plan_holds(self, now: float, machine: Machine) -> bool:
        """True when the carried plan still describes the machine at ``now``."""
        return (
            self._plan is not None
            and self._hook_fed(machine)
            and min(self._starts.values(), default=now) >= now
        )

    def _reservation_order(self) -> tuple[list[JobRecord], int | None]:
        """The queue in reservation order, and how many of its leading jobs
        the last pass placed -- None when an arrival outranks one of them,
        so that every later reservation may move."""
        order = self._order_cache
        arrivals = sorted(self._queue[len(order):], key=self._key)
        if order and arrivals and self._key(arrivals[0]) < self._key(order[-1]):
            return sorted(self._queue, key=self._key), None
        return order + arrivals, len(order)

    def _reservations(self, now, machine):
        """Exact reservation starts, in this scheduler's own order.

        Conservative backfilling *is* a reservation-per-job policy, so
        the session query reproduces ``select_jobs``'s allocation: one
        reservation per waiting job in ``reservation_order``.  With exact
        predictions the estimate equals the start the job will really
        get.  While the carried plan holds, the answer is that plan and
        the starts it recorded.
        """
        ordered, n_placed = self._reservation_order()
        if n_placed == len(ordered) and self._plan_holds(now, machine):
            return self._plan, self._starts
        if self._hook_fed(machine):
            profile = self._base.snapshot(now)
        else:
            profile = AvailabilityProfile.from_releases(
                machine.processors, now, machine.free, machine.predicted_releases(now)
            )
        return profile, self._reserve_in_order(profile, ordered, now)

    def select_jobs(self, now: float, machine: Machine) -> list[JobRecord]:
        if not self._queue:
            self._plan_reused = False
            return []
        starts = self._starts
        ordered, n_placed = self._reservation_order()
        self._plan_reused = n_placed is not None and self._plan_holds(now, machine)
        if self._plan_reused:
            # base untouched since the last pass: every reservation stands,
            # the due ones start and only the arrivals need a place
            plan = self._plan
            plan.trim(now)
            started = [r for r in ordered[:n_placed] if starts[r.job_id] == now]
            todo = ordered[n_placed:]
        else:
            if not self._hook_fed(machine):
                # first pass, or driven outside the engine (unit tests
                # poking select_jobs by hand): rebuild from machine state
                if self._base is None:
                    self._base = IncrementalProfile(machine.processors, now)
                self._base.resync(machine, now)
            plan = self._plan = self._base.snapshot(now)
            starts.clear()
            started = []
            todo = ordered
        placed = self._reserve_in_order(plan, todo, now)
        starts.update(placed)
        started.extend(r for r in todo if placed[r.job_id] == now)
        if started:
            for record in started:
                del starts[record.job_id]
            self._queue = [r for r in self._queue if r.job_id in starts]
            ordered = [r for r in ordered if r.job_id in starts]
        self._order_cache = ordered
        return started
