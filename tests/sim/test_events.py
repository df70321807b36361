"""Unit tests for the event queue."""

from heapq import heappop, heappush
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.events as events_module
from repro.sim.events import Event, EventQueue, EventType


class TestEventQueue:
    def test_pop_orders_by_time(self):
        q = EventQueue()
        q.push(Event(10.0, EventType.SUBMIT, 1))
        q.push(Event(5.0, EventType.SUBMIT, 2))
        q.push(Event(7.5, EventType.SUBMIT, 3))
        assert [q.pop().job_id for _ in range(3)] == [2, 3, 1]

    def test_same_time_kind_priority(self):
        """FINISH < EXPIRE < SUBMIT at equal timestamps."""
        q = EventQueue()
        q.push(Event(5.0, EventType.SUBMIT, 1))
        q.push(Event(5.0, EventType.FINISH, 2))
        q.push(Event(5.0, EventType.EXPIRE, 3))
        kinds = [q.pop().kind for _ in range(3)]
        assert kinds == [EventType.FINISH, EventType.EXPIRE, EventType.SUBMIT]

    def test_stable_within_kind(self):
        q = EventQueue()
        for job_id in (1, 2, 3):
            q.push(Event(5.0, EventType.SUBMIT, job_id))
        assert [q.pop().job_id for _ in range(3)] == [1, 2, 3]

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(Event(-1.0, EventType.SUBMIT, 1))

    @pytest.mark.parametrize("floor", [None, 5.0])
    def test_nan_time_rejected(self, floor):
        """NaN is behind every floor, the open one included: in the heap it
        would surface at whichever instant the sift happened to leave it."""
        q = EventQueue()
        if floor is not None:
            q.schedule(floor, EventType.SUBMIT, 1)
            q.pop_instant()
        with pytest.raises(ValueError, match="t=nan"):
            q.schedule(float("nan"), EventType.SUBMIT, 2)
        with pytest.raises(ValueError, match="t=nan"):
            q.push(Event(float("nan"), EventType.MACHINE, 3))
        assert len(q) == 0

    def test_bool_and_len(self):
        q = EventQueue()
        assert not q
        q.push(Event(0.0, EventType.SUBMIT, 1))
        assert q
        assert len(q) == 1

    def test_machine_events_order_after_submits(self):
        """MACHINE is the last kind at a timestamp: capacity changes land
        after every job event of the instant."""
        q = EventQueue()
        q.push(Event(5.0, EventType.MACHINE, 1))
        q.push(Event(5.0, EventType.SUBMIT, 2))
        q.push(Event(5.0, EventType.FINISH, 3))
        kinds = [q.pop().kind for _ in range(3)]
        assert kinds == [EventType.FINISH, EventType.SUBMIT, EventType.MACHINE]


class TestMonotonicFloor:
    def test_floor_starts_open(self):
        q = EventQueue()
        assert q.floor == float("-inf")
        q.push(Event(0.0, EventType.SUBMIT, 1))  # any time is fine initially

    def test_pop_raises_the_floor(self):
        q = EventQueue()
        q.push(Event(5.0, EventType.SUBMIT, 1))
        q.pop()
        assert q.floor == 5.0

    def test_push_behind_floor_rejected(self):
        q = EventQueue()
        q.push(Event(5.0, EventType.SUBMIT, 1))
        q.pop()
        with pytest.raises(ValueError, match="monotonic"):
            q.push(Event(4.0, EventType.SUBMIT, 2))

    def test_push_at_floor_allowed(self):
        """Same-instant pushes stay legal: a streaming feed may add more
        events at the timestamp currently being processed."""
        q = EventQueue()
        q.push(Event(5.0, EventType.SUBMIT, 1))
        q.pop()
        q.push(Event(5.0, EventType.SUBMIT, 2))
        assert q.pop().job_id == 2


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6),
            st.sampled_from(list(EventType)),
            st.integers(min_value=1, max_value=100),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_pop_sequence_is_globally_ordered(items):
    """Property: events pop in (time, kind) lexicographic order."""
    q = EventQueue()
    for time, kind, job_id in items:
        q.push(Event(time, kind, job_id))
    popped = [q.pop() for _ in range(len(items))]
    keys = [(e.time, int(e.kind)) for e in popped]
    assert keys == sorted(keys)


class TestPopInstant:
    def test_takes_the_whole_earliest_instant_in_processing_order(self):
        q = EventQueue()
        q.push(Event(5.0, EventType.SUBMIT, 1))
        q.schedule(5.0, EventType.EXPIRE, 2, 7)
        q.schedule(6.0, EventType.FINISH, 3)
        batch = q.pop_instant()
        assert [(t, kind, job_id, v) for t, kind, _, job_id, v in batch] == [
            (5.0, EventType.EXPIRE, 2, 7),
            (5.0, EventType.SUBMIT, 1, 0),
        ]
        assert len(q) == 1
        assert q.floor == 5.0
        with pytest.raises(ValueError, match="monotonic"):
            q.schedule(4.0, EventType.SUBMIT, 4)

    def test_nothing_due_leaves_queue_and_floor_alone(self):
        q = EventQueue()
        assert q.pop_instant() == []
        q.schedule(5.0, EventType.SUBMIT, 1)
        assert q.pop_instant(until=4.0) == []
        assert len(q) == 1
        assert q.floor == float("-inf")
        assert [entry[3] for entry in q.pop_instant(until=5.0)] == [1]

    def test_schedule_rejects_negative_time(self):
        with pytest.raises(ValueError, match=">= 0"):
            EventQueue().schedule(-1.0, EventType.SUBMIT, 1)

    def test_pop_returns_the_kind_member_that_was_pushed(self):
        q = EventQueue()
        q.schedule(1.0, EventType.MACHINE, 9, 3)
        event = q.pop()
        assert event == Event(1.0, EventType.MACHINE, 9, 3)
        assert event.kind is EventType.MACHINE
        assert (event.job_id, event.version) == (9, 3)


@given(
    st.lists(
        st.one_of(
            st.just(None),  # take the next instant
            st.tuples(
                st.sampled_from([0.0, 0.0, 1.0, 2.5]),  # delay past the floor; ties
                st.sampled_from(list(EventType)),
                st.integers(min_value=1, max_value=100),
                st.integers(min_value=0, max_value=5),
            ),
        ),
        min_size=1,
        max_size=80,
    )
)
def test_pop_instant_equals_repeated_pops(ops):
    """Property: one ``pop_instant()`` call returns exactly the events
    repeated ``pop()`` calls would for that timestamp (same order,
    ``job_id`` and ``version`` intact), raises the floor to it, and the
    by-fields and by-``Event`` push entry points order events alike."""
    one_call, one_by_one = EventQueue(), EventQueue()
    pending: list[tuple] = []  # the model: (time, kind, push order, job_id, version)
    for order, op in enumerate(ops):
        if op is not None:
            delay, kind, job_id, version = op
            time = max(one_call.floor, 0.0) + delay
            one_call.schedule(time, kind, job_id, version)
            one_by_one.push(Event(time, kind, job_id, version))
            pending.append((time, kind, order, job_id, version))
            continue
        batch = one_call.pop_instant()
        if not pending:
            assert batch == []
            continue
        now = min(entry[0] for entry in pending)
        instant = sorted(entry for entry in pending if entry[0] == now)
        pending = [entry for entry in pending if entry[0] != now]
        expected = [one_by_one.pop() for _ in instant]
        assert expected == [Event(t, kind, job_id, v) for t, kind, _, job_id, v in instant]
        assert [Event(t, kind, job_id, v) for t, kind, _, job_id, v in batch] == expected
        assert one_call.floor == one_by_one.floor == now
        assert len(one_call) == len(one_by_one)
        if now > 0:
            with pytest.raises(ValueError, match="monotonic"):
                one_call.schedule(now / 2, EventType.SUBMIT, 1)


class TestNextTime:
    def test_empty_is_inf_and_reads_change_nothing(self):
        q = EventQueue()
        assert q.next_time == inf
        q.schedule(5.0, EventType.SUBMIT, 1)
        assert q.next_time == 5.0 and q.next_time == 5.0
        assert len(q) == 1 and q.floor == -inf

    def test_across_the_stream_and_the_heap(self):
        """The in-order SUBMITs wait on the stream, the rest on the heap;
        ``next_time`` is the earlier head, whichever source holds it."""
        q = EventQueue()
        q.schedule(5.0, EventType.SUBMIT, 1)  # stream
        q.schedule(9.0, EventType.SUBMIT, 2)  # stream
        q.schedule(7.0, EventType.SUBMIT, 3)  # behind the stream's last: heap
        assert q.next_time == 5.0
        q.schedule(3.0, EventType.FINISH, 4)  # heap, ahead of the stream
        assert q.next_time == 3.0
        assert [e[3] for e in q.pop_instant()] == [4]
        assert q.next_time == 5.0
        assert [e[3] for e in q.pop_instant()] == [1]
        assert q.next_time == 7.0  # the heap's out-of-order SUBMIT
        assert [e[3] for e in q.pop_instant()] == [3]
        assert q.next_time == 9.0
        assert [e[3] for e in q.pop_instant()] == [2]
        assert q.next_time == inf and len(q) == 0


def test_a_fed_trace_is_never_heaped(monkeypatch):
    """SUBMITs pushed in time order (ties included) skip the heap, and
    still pop in trace order with the same-instant FINISH first."""
    pushed = []
    monkeypatch.setattr(events_module, "heappush", lambda heap, e: pushed.append(e))
    q = EventQueue()
    for job_id, time in enumerate([0.0, 0.0, 3.0, 3.0, 8.0]):
        q.schedule(time, EventType.SUBMIT, job_id)
    assert pushed == [] and len(q) == 5
    monkeypatch.undo()
    q.schedule(3.0, EventType.FINISH, 99)
    assert [e[3] for e in q.pop_instant()] == [0, 1]
    assert [(e[1], e[3]) for e in q.pop_instant()] == [
        (EventType.FINISH, 99), (EventType.SUBMIT, 2), (EventType.SUBMIT, 3),
    ]


# -- the heap-only design as an oracle ---------------------------------------
# ``EventQueue`` as it was before the in-order SUBMIT stream, verbatim apart
# from its name: every event on one heap, so its order is the contract.

_new_event = tuple.__new__


class HeapOnlyQueue:
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

    The heap holds plain ``(time, kind, seq, job_id, version)`` tuples,
    whose natural order is the contract's total order.  The session
    pushes by fields (:meth:`schedule`) and takes a whole instant's
    entries in one call (:meth:`pop_instant`); :class:`Event` objects
    exist only at the :meth:`push`/:meth:`pop` surface.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, EventType, int, int, int]] = []
        self._seq = 0
        #: largest timestamp ever popped; pushes behind it are rejected.
        self._floor = float("-inf")

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def floor(self) -> float:
        """The monotonic time floor (largest timestamp ever popped)."""
        return self._floor

    def schedule(
        self, time: float, kind: EventType, job_id: int, version: int = 0
    ) -> None:
        """Add an event given by its fields; events never change once pushed."""
        if not time >= self._floor or time < 0:
            raise self._rejected(time)
        heappush(self._heap, (time, kind, self._seq, job_id, version))
        self._seq += 1

    def push(self, event: Event) -> None:
        """Add an event; :meth:`schedule` spelled out, because forwarding
        through a star-call costs more than the heap push itself."""
        time, kind, job_id, version = event
        if not time >= self._floor or time < 0:
            raise self._rejected(time)
        heappush(self._heap, (time, kind, self._seq, job_id, version))
        self._seq += 1

    def _rejected(self, time: float) -> ValueError:
        if time < 0:
            return ValueError(f"event time must be >= 0, got {time}")
        return ValueError(
            f"event at t={time} is behind the queue's processed "
            f"floor t={self._floor}; streaming feeds must be monotonic"
        )

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        time, kind, _, job_id, version = heappop(self._heap)
        self._floor = time
        return _new_event(Event, (time, kind, job_id, version))

    def pop_instant(
        self, until: float = float("inf")
    ) -> list[tuple[float, EventType, int, int, int]]:
        """Remove and return every event of the earliest pending instant.

        The raw ``(time, kind, seq, job_id, version)`` heap entries, in
        processing order -- exactly what repeated :meth:`pop` calls
        would yield for that timestamp -- or an empty list when nothing
        is pending at or before ``until``.  Raises the floor to the
        instant returned.
        """
        heap = self._heap
        if not heap or heap[0][0] > until:
            return []
        entry = heappop(heap)
        now = self._floor = entry[0]
        batch = [entry]
        while heap and heap[0][0] == now:
            batch.append(heappop(heap))
        return batch


_KINDS = list(EventType)
#: one operation on both queues: (op, delay past the floor, kind, job_id, version)
_OPS = st.one_of(
    st.tuples(
        st.sampled_from(["schedule", "schedule", "schedule", "push"]),
        # ties, small and large steps (a later, smaller one is an
        # out-of-order SUBMIT), behind the floor, and below zero
        st.sampled_from([0.0, 0.0, 1.0, 2.5, 7.0, -1.0, -1e9]),
        st.sampled_from(_KINDS + [EventType.SUBMIT] * 4),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=3),
    ),
    # one instant filled from both sources: fed SUBMITs among FINISHes,
    # EXPIREs and MACHINE events at the same time
    st.tuples(
        st.just("burst"),
        st.sampled_from([0.0, 1.0, 2.5]),
        st.lists(st.sampled_from(_KINDS), min_size=2, max_size=6),
    ),
    st.tuples(st.just("pop_instant"), st.sampled_from([inf, 0.0, 1.0, 3.0])),
    st.tuples(st.just("pop")),
    # a failed instant: the first ``k`` + 1 entries are consumed and the
    # rest is scheduled again, as the session's loop does on a raise
    st.tuples(st.just("fail"), st.integers(min_value=0, max_value=3)),
)


def _apply(queue, op):
    """Run ``op`` on ``queue``: its result, or the error it raised."""
    try:
        name = op[0]
        if name in ("schedule", "push"):
            _, delay, kind, job_id, version = op
            time = max(queue.floor, 0.0) + delay
            if name == "push":
                return queue.push(Event(time, kind, job_id, version))
            return queue.schedule(time, kind, job_id, version)
        if name == "burst":
            time = max(queue.floor, 0.0) + op[1]
            for job_id, kind in enumerate(op[2]):
                queue.schedule(time, kind, job_id)
            return None
        if name == "pop_instant":
            return queue.pop_instant(max(queue.floor, 0.0) + op[1])
        if name == "pop":
            return queue.pop()
        batch = queue.pop_instant()
        for time, kind, _, job_id, version in batch[op[1] + 1 :]:
            queue.schedule(time, kind, job_id, version)
        return batch
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400)
@given(st.lists(_OPS, min_size=1, max_size=80))
def test_matches_the_heap_only_queue(ops):
    """Property: under any interleaving of schedules, pushes, pops, instant
    pops and failed-instant re-queues, the queue answers exactly as the
    heap-only one: batches (``seq`` included), popped events, floors,
    lengths, the next pending time and every error."""
    queue, oracle = EventQueue(), HeapOnlyQueue()
    for op in ops:
        assert _apply(queue, op) == _apply(oracle, op)
        assert queue.floor == oracle.floor
        assert len(queue) == len(oracle)
        assert queue.next_time == (oracle._heap[0][0] if oracle._heap else inf)
