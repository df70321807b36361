"""Unit tests for the event queue."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
