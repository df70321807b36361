"""Event types and the event queue driving the simulation.

The simulator is a classic discrete-event loop.  Four event kinds exist:

* ``SUBMIT``  -- a job is released into the waiting queue (``r_j``);
* ``FINISH``  -- a running job really completes (engine-side knowledge);
* ``EXPIRE``  -- a running job reaches its *predicted* end without having
  finished: the prediction was too small and the correction mechanism
  (paper Section 5.2) must produce a new one;
* ``MACHINE`` -- a capacity change (node drain/restore) fed into a live
  :class:`~repro.sim.session.SimSession`; never used by batch replay.

Same-timestamp ordering contract (asserted by tests and relied on for
batch/streaming equivalence)
----------------------------------------------------------------------

Events at one timestamp are totally ordered by ``(kind, seq)`` where
``seq`` is a strictly increasing insertion counter shared across kinds:

1. ``FINISH`` before ``EXPIRE`` before ``SUBMIT`` before ``MACHINE``, so
   resources freed at time *t* are visible to jobs submitted at *t*,
   corrections see the machine after completions, and capacity changes
   land after every job event of the instant (but before the instant's
   scheduling pass);
2. within one kind, insertion order.  Two submissions at the same
   instant are processed in the order they were pushed -- i.e. trace
   order -- otherwise FCFS priority would depend on heap internals.

Because ``kind`` dominates ``seq``, the ordering is *feed-schedule
independent*: a batch replay that pushes every SUBMIT up front and a
streaming session that interleaves ``feed()`` with ``step()`` produce
the same processing order, provided jobs are fed in trace order and
never behind the clock.  The queue enforces the second half itself: it
tracks the largest timestamp ever popped (the *floor*) and rejects any
push behind it, so a desynchronised feeder fails loudly instead of
silently diverging from batch replay.

``EXPIRE`` events can become stale (the prediction was corrected again,
or the job finished first); each carries the prediction *version* it was
scheduled for and is dropped if the job has moved on.

A fed trace is in submit order, so its SUBMITs skip the heap: a SUBMIT at
or after the last one pending waits on a FIFO *stream* that is in contract
order by construction, and a pop merges the stream with the heap (which
holds every other event) in that order; where an event waited never shows.
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum
from heapq import heappop, heappush
from math import inf
from typing import NamedTuple

__all__ = ["EventType", "Event", "EventQueue"]


class EventType(IntEnum):
    """Kinds of simulation events, in same-timestamp processing order."""

    FINISH = 0
    EXPIRE = 1
    SUBMIT = 2
    MACHINE = 3


class Event(NamedTuple):
    """A scheduled simulation event.

    ``job_id`` identifies the job for job events; for ``MACHINE`` events
    it is the session's machine-event sequence number instead.
    """

    time: float
    kind: EventType
    job_id: int
    #: prediction version for EXPIRE staleness checks; 0 otherwise.
    version: int = 0


#: builds an ``Event`` without the generated ``__new__``'s Python frame
_new_event = tuple.__new__
_SUBMIT = EventType.SUBMIT


class EventQueue:
    """A stable priority queue of events with a monotonic time floor.

    Stability matters: two submissions at the same instant must be
    processed in insertion (i.e. trace) order, otherwise FCFS priority
    would depend on heap internals.  See the module docstring for the
    full same-timestamp ordering contract.

    The queue also asserts monotonicity: once an event at time *t* has
    been popped, pushing any event earlier than *t* raises.  Batch
    replay never trips this (all SUBMITs are pushed up front and
    FINISH/EXPIRE always land in the future); it exists so a streaming
    feeder that falls behind the clock cannot diverge from batch replay
    silently.

    Events wait, on the heap or the in-order SUBMIT stream, as plain
    ``(time, kind, seq, job_id, version)`` tuples, whose natural order is
    the contract's.  The session pushes by fields (:meth:`schedule`) and
    takes an instant's entries in one call (:meth:`pop_instant`);
    :class:`Event` exists only at the :meth:`push`/:meth:`pop` surface.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, EventType, int, int, int]] = []
        #: SUBMITs in ``(time, seq)`` order, each at or after the one before
        self._stream: deque[tuple[float, EventType, int, int, int]] = deque()
        self._seq = 0
        #: largest timestamp ever popped; pushes behind it are rejected.
        self._floor = -inf

    def __len__(self) -> int:
        return len(self._heap) + len(self._stream)

    def pending_kinds(self) -> list[int]:
        """Pending events per ``EventType``; safe beside a thread that pops."""
        counts = [0, 0, len(self._stream), 0]  # the stream holds SUBMITs only
        for entry in self._heap.copy():
            counts[entry[1]] += 1
        return counts

    @property
    def floor(self) -> float:
        """The monotonic time floor (largest timestamp ever popped)."""
        return self._floor

    @property
    def next_time(self) -> float:
        """The earliest pending timestamp (``inf`` when nothing is pending)."""
        heap, stream = self._heap, self._stream
        if stream and (not heap or stream[0] < heap[0]):
            return stream[0][0]
        return heap[0][0] if heap else inf

    def schedule(
        self, time: float, kind: EventType, job_id: int, version: int = 0
    ) -> None:
        """Add an event given by its fields; events never change once pushed."""
        if not time >= self._floor or time < 0:
            raise self._rejected(time)
        stream = self._stream
        if kind is _SUBMIT and (not stream or time >= stream[-1][0]):
            stream.append((time, kind, self._seq, job_id, version))
        else:
            heappush(self._heap, (time, kind, self._seq, job_id, version))
        self._seq += 1

    def push(self, event: Event) -> None:
        """Add an event (:meth:`schedule` with the fields of ``event``)."""
        self.schedule(*event)

    def _rejected(self, time: float) -> ValueError:
        if time < 0:
            return ValueError(f"event time must be >= 0, got {time}")
        return ValueError(
            f"event at t={time} is behind the queue's processed "
            f"floor t={self._floor}; streaming feeds must be monotonic"
        )

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        heap, stream = self._heap, self._stream
        if stream and (not heap or stream[0] < heap[0]):
            time, kind, _, job_id, version = stream.popleft()
        else:
            time, kind, _, job_id, version = heappop(heap)
        self._floor = time
        return _new_event(Event, (time, kind, job_id, version))

    def pop_instant(
        self, until: float = inf
    ) -> list[tuple[float, EventType, int, int, int]]:
        """Remove and return every event of the earliest pending instant.

        The raw ``(time, kind, seq, job_id, version)`` entries, in
        processing order -- exactly what repeated :meth:`pop` calls
        would yield for that timestamp -- or an empty list when nothing
        is pending at or before ``until``.  Raises the floor to the
        instant returned.
        """
        heap, stream = self._heap, self._stream
        if stream and (not heap or stream[0] < heap[0]):
            now = stream[0][0]
        elif heap:
            now = heap[0][0]
        else:
            return []
        if now > until:
            return []
        self._floor = now
        batch = []
        while heap and heap[0][0] == now:
            batch.append(heappop(heap))
        if stream and stream[0][0] == now:
            mixed = bool(batch)
            while stream and stream[0][0] == now:
                batch.append(stream.popleft())
            if mixed:  # both sources hold the instant: interleave by (kind, seq)
                batch.sort()
        return batch
