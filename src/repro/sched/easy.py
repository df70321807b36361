"""EASY backfilling (aggressive backfilling with one reservation).

The algorithm (paper Section 5.1, originally Lifka 1995):

1. Start waiting jobs in FCFS order while they fit in the free processors.
2. When the queue head does not fit, give it a *reservation*: the
   **shadow time** is the earliest instant at which, according to the
   predicted completions of running jobs, enough processors accumulate
   for the head.  Processors beyond the head's need at that instant are
   the **extra** processors.
3. Scan the remaining waiting jobs (in FCFS order for classic EASY, in
   shortest-predicted-first order for EASY-SJBF) and *backfill* any job
   that fits now and either (a) is predicted to finish before the shadow
   time, or (b) uses only extra processors -- either way the head's
   reservation is not delayed **with respect to current predictions**.

Under-predictions can invalidate the reservation; the engine then fires
correction events and scheduling is recomputed (Section 5.2 of the
paper), which is exactly how the on-line algorithm absorbs misprediction.
"""

from __future__ import annotations

from ..sim.machine import Machine
from ..sim.results import JobRecord
from .base import BackfillScheduler

__all__ = ["EasyScheduler"]


class EasyScheduler(BackfillScheduler):
    """EASY backfilling with a pluggable backfill-candidate order.

    ``backfill_order='fcfs'`` is classic EASY; ``'sjbf'`` is EASY-SJBF
    (Tsafrir et al.), the variant the paper's winning triple uses.

    The head's shadow walks the machine's release table (a correction
    lands at the next shadow read), and the waiting jobs are
    kept twice: ``_queue`` in priority order and ``_ordered`` in backfill
    order; a started job leaves both by identity (``list.remove``: no key
    call, no rebuild; within an instant arrival order need not be
    ``fcfs_key``'s).  The schedule produced is identical to the seed
    per-pass rescan (kept as
    :class:`repro.sched.legacy.LegacyEasyScheduler` for verification).
    Start-estimate queries reserve in ``_queue`` order on the plan carried
    from one query to the next, with a rebuild's answers.  A pass that
    starts a job drops it: the job leaves the queue, and a backfilled one
    does not run where the plan reserved it.  Otherwise the queue only
    grows at its tail, so the placed jobs still lead it.

    A pass with no processor free after phase 1 skips the shadow walk.
    Each scan keeps ``_memo`` (now, head, free, shadow, extra as its picks
    left them) and ``_fresh``, the jobs submitted since: while the head is
    the same, ``now`` not behind and the other three no larger, every job
    the scan refused fails again, so only ``_fresh`` is scanned, in backfill
    order.  A scan or an emptied queue empties ``_fresh``.
    """

    name = "easy"

    def __init__(self, backfill_order: str = "fcfs") -> None:
        super().__init__(backfill_order, "backfill")
        self.backfill_order = backfill_order
        #: the last scan's (now, head, free, shadow, extra) and the jobs submitted since
        self._memo: tuple = (0.0, None, 0, 0.0, 0)
        self._fresh: list[JobRecord] = []

    def on_submit(self, record: JobRecord) -> None:
        super().on_submit(record)
        self._fresh.append(record)

    def _reservation_order(self) -> list[JobRecord]:
        return self._queue

    def select_jobs(self, now: float, machine: Machine) -> list[JobRecord]:
        started: list[JobRecord] = []
        free = machine.free
        queue, candidates = self._queue, self._ordered

        # Phase 1: start the queue head(s) while they fit (FCFS priority).
        while queue and queue[0].processors <= free:
            record = queue.pop(0)
            candidates.remove(record)
            free -= record.processors
            started.append(record)
        if started:  # the query plan reserved in an order the queue no longer has
            self._plan = None
        if not queue:
            self._fresh = []
            return started
        if not free:  # nothing can backfill, so nothing reads the shadow
            return started

        # Phase 2: the head cannot start; compute its reservation.  The
        # release profile must include the jobs we just decided to start
        # (the engine starts them on the machine only after this pass).
        head = queue[0]
        if head.processors > machine.processors - machine.drained:
            # The head is wider than the undrained capacity (live-session
            # drains only): no reservation exists, and backfilling without
            # one would starve it, so the whole queue holds for a restore.
            return started
        pending = [(now + rec.predicted_runtime, rec.processors) for rec in started]
        shadow, extra = machine.releases.shadow(head.processors, free, now, pending)

        # Phase 3: backfill.  A candidate may start iff it fits now and
        # does not delay the head's reservation; one the last scan refused
        # still fails while nothing it was tested against has grown.
        last_now, last_head, last_free, last_shadow, last_extra = self._memo
        grown = free > last_free or shadow > last_shadow or extra > last_extra
        if grown or head is not last_head or now < last_now:
            scan = candidates
        else:  # each job is sorted once: a scan empties ``_fresh``
            scan = self._fresh
            scan.sort(key=self._key)
        picked = self._backfill(now, free, shadow, extra, scan)
        for record in picked:
            self._plan = None  # a backfill does not run where the query plan reserved it
            queue.remove(record)
            candidates.remove(record)
            free -= record.processors
            if now + record.predicted_runtime > shadow:
                extra -= record.processors
        self._memo = now, head, free, shadow, extra
        self._fresh = []
        started.extend(picked)
        return started

    def _backfill(
        self, now: float, free: int, shadow: float, extra: int, candidates: list[JobRecord]
    ) -> list[JobRecord]:
        """Pick the backfill set given the head's reservation.

        The overridable core of phase 3; head starts, the reservation and
        the upkeep of both queues are shared by every EASY-family
        scheduler.  The hook only picks: it returns the jobs to start, in
        start order, and must not touch ``_queue`` or ``_ordered``
        (:meth:`select_jobs` removes what it returns).
        Each pick must fit what is left of ``free`` (at least 1 on entry)
        and either finish by ``shadow`` or fit what is left of ``extra``.

        ``candidates`` is ``_ordered``, or ``_fresh`` when every other
        waiting job is known to fail: a hook that scans it must pick
        greedily, leaving none of it eligible; one that may not (a stop
        action) must scan ``_queue`` instead.

        The head may be in ``candidates`` but is wider than ``free`` (phase
        1 stopped there), so the width test skips it.  Every job is at least
        one processor wide, so the scan stops when ``free`` reaches 0 and,
        under ``sjbf`` only, at a fitting candidate that outlives the
        shadow once ``extra`` is 0: the key leads with the predicted
        runtime, so every later one outlives the shadow too.
        """
        picked: list[JobRecord] = []
        for record in candidates:
            width = record.processors
            if width > free:
                continue
            if now + record.predicted_runtime > shadow:
                if width > extra:
                    if not extra and self.backfill_order == "sjbf":
                        break
                    continue
                extra -= width
            free -= width
            picked.append(record)
            if not free:
                break
        return picked
