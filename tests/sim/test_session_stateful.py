"""A live session driven in random legal orders against one-shot replay.

The state machine feeds jobs, steps, advances, completes running jobs
externally, drains/restores processors and queries, in whatever order
Hypothesis picks.  After every rule the registry must reconcile with the
session's own run counters; at the end the schedule must equal a batch
replay of the same inputs (and the frozen ``legacy-*`` scheduler's), and
the telemetry snapshot must equal the one-shot replay's -- *how the
calls were chunked never shows in the numbers*.

Queries have an exact oracle of their own: every waiting job's estimate
and the probe's equal the reservations the seed's profile makes when it
is built from the machine alone (``tests.sched.test_plan_reuse``), in
whatever state the walk has reached -- behind a held head, after a
restore, an early external completion, a descending-id feed, a
correction storm, a ``predictor.on_finish`` that raised, a drain wider
than the free processors in the instant of a correction -- and again
after the clock moved with no event at all.

The machine's release table holds its running jobs' releases after
every rule, a raising ``predictor.on_finish`` or not.  A second machine,
``ProcessedInstantMachine``, also feeds a job or machine event *at* an
instant whose pass has already run: that makes a second instant at the
same time, which a batch replay would merge into the first, so its walks
keep every invariant and must lose no job, but are not compared with the
replay.  The EASY family is also
held to its own structure and guarantee, with no oracle involved: after
every rule the backfill candidates are exactly the queue in backfill
order, and every backfill pick of every pass
respects the head's reservation and is what a greedy scan of every
waiting job picks, however few the pass handed the hook
(``tests.helpers.guard_backfill``).
Conservative's carried plan is held to the seed's profile after every
rule: a prefix of the reservation order, placed where the seed places
it, and nobody left out who could start now.  The session's own count
of waiting jobs is the scheduler's queue length after every rule.  And
no settled session sits on processors its queue head fits: a fault that
took an instant's scheduling pass with it leaves the pass *owed*, and the
next call runs it.
"""

from __future__ import annotations

import os
from math import inf

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.correct import make_corrector
from repro.obs import Telemetry
from repro.predict import RecentAveragePredictor, make_predictor
from repro.sched import ConservativeScheduler, EasyScheduler, make_scheduler
from repro.sim import SimSession, simulate
from repro.workload import Trace

from tests.helpers import guard_backfill, make_job
from tests.obs.test_instrumentation import _count_consumed
from tests.sched.test_plan_reuse import assert_prefix_plan, assert_queries_exact

PROCESSORS = 16
#: drains never take more than this in total; a job wider than what is
#: left is *held* at the head of the queue until a restore (teardown
#: gives everything back, so every job starts eventually)
MAX_DRAINED = 4
#: a drain no machine of the walk can take: only
#: ``drain_wider_than_free_at_a_correction`` feeds one
ILLEGAL_DRAIN = PROCESSORS + 1
SCHEDULERS = ("easy", "easy-sjbf", "conservative", "conservative-sjbf")
TIMERS = ("engine.time.predict.seconds", "engine.time.sched.seconds")

_GAPS = st.sampled_from([0, 1, 7, 60, 400, 3000])
_JOBS = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 3, 50]),  # delay after the previous job of the feed
        st.sampled_from([1, 10, 30, 100, 600, 3000]),  # runtime
        st.sampled_from([1, 2, 5]),  # requested / runtime
        st.integers(min_value=1, max_value=PROCESSORS),
        st.integers(min_value=1, max_value=3),  # user
    ),
    min_size=1,
    max_size=4,
)


class InjectedFault(OSError):
    pass


class StartFault(InjectedFault):
    """Raised by ``on_start``: the pass has run, and nothing is owed."""


class FaultyAve2(RecentAveragePredictor):
    """AVE2 whose ``on_finish`` raises, before it learns anything, the
    first time it is handed every third job: the machine has then
    finished a job the predictor never learned from.  Its ``on_start``
    raises the first time it is handed a job numbered 2 modulo 4: the
    other jobs of that pass must still start."""

    def __init__(self) -> None:
        super().__init__(k=2)
        self.failed: set[int] = set()
        self.failed_start: set[int] = set()

    def on_finish(self, record, now):
        if record.job_id % 3 == 0 and record.job_id not in self.failed:
            self.failed.add(record.job_id)
            raise InjectedFault(f"model store unreachable for job {record.job_id}")
        super().on_finish(record, now)

    def on_start(self, record, now):
        if record.job_id % 4 == 2 and record.job_id not in self.failed_start:
            self.failed_start.add(record.job_id)
            raise StartFault(f"model store unreachable for job {record.job_id}")
        super().on_start(record, now)


def _is_the_illegal_drain(exc: ValueError) -> bool:
    return str(exc).startswith(f"cannot drain {ILLEGAL_DRAIN} ")


def riding_out_faults(call):
    """``call()``, again after every injected fault or ``ILLEGAL_DRAIN``:
    the failing event is consumed, so each retry gets further, here and in
    the replay alike.  Any other drain that raises fails the walk."""
    while True:
        try:
            return call()
        except InjectedFault:
            pass
        except ValueError as exc:
            if not _is_the_illegal_drain(exc):
                raise


def _rows(records) -> list[tuple]:
    return sorted((r.job_id, r.start_time, r.end_time, r.corrections) for r in records)


def _comparable(telemetry: Telemetry, queried: bool) -> dict:
    """A registry snapshot without what legitimately differs between two
    runs of the same schedule: the wall-clock timers, the last bits of
    the one real-valued sum (added up in a different order) and -- when
    queries were made -- conservative's plan-reuse sample: a query places
    jobs a later arrival may then outrank, so that the next pass replans."""
    snap = telemetry.snapshot()
    for name in TIMERS:
        snap["counters"].pop(name, None)
    if queried:
        snap["histograms"].pop("engine.sched.plan_reused", None)
    error = snap["histograms"].get("predict.abs_error.seconds")
    if error is not None:
        error["sum"] = pytest.approx(error["sum"], rel=1e-9)
    return snap


class SessionMachine(RuleBasedStateMachine):
    @initialize(
        scheduler=st.sampled_from(SCHEDULERS),
        components=st.sampled_from(
            [("requested", None), ("ave2", "incremental"), ("faulty-ave2", "incremental")]
        ),
    )
    def open_session(self, scheduler, components):
        self.scheduler = scheduler
        self.predictor, self.corrector = components
        self.telemetry = Telemetry(component="live")
        self.session = self._session(scheduler, self.telemetry)
        self.consumed = _count_consumed(self.session)
        if isinstance(self.session.scheduler, EasyScheduler):
            guard_backfill(self.session.scheduler)
        self.jobs: list = []  # in feed order
        self.fed_in_id_order = True
        self.machine_events: list = []
        self.completions: list[tuple[int, float]] = []
        self.last_now = self.session.now
        self.last_completion = -1.0
        self.queried = False
        self.held = False
        #: False between a ``step`` that raised and the next call that returns
        self.settled = True

    def _predictor(self):
        return FaultyAve2() if self.predictor == "faulty-ave2" else make_predictor(self.predictor)

    def _session(self, scheduler: str, telemetry: Telemetry | None) -> SimSession:
        return SimSession(
            PROCESSORS,
            make_scheduler(scheduler),
            self._predictor(),
            make_corrector(self.corrector) if self.corrector else None,
            telemetry=telemetry,
        )

    def _quiet_now(self) -> bool:
        """True when no scheduling pass has run at ``now`` yet, so what
        is fed *at* ``now`` joins the same instant a replay puts it in."""
        now = self.session.now
        return self.session._events.floor < now and self.last_completion < now

    # -- rules ---------------------------------------------------------------
    @rule(gap=_GAPS, jobs=_JOBS, descending=st.booleans())
    def feed(self, gap, jobs, descending):
        """``descending`` puts the whole feed on one instant, highest id
        first: the queue takes jobs as fed, ``fcfs_key`` orders by id."""
        time = self.session.now + (gap if gap or self._quiet_now() else 1)
        ids = range(len(self.jobs) + 1, len(self.jobs) + len(jobs) + 1)
        batch = []
        for job_id, (delay, runtime, factor, width, user) in zip(
            reversed(ids) if descending else ids, jobs, strict=True
        ):
            time += 0 if descending else delay
            batch.append(
                make_job(
                    job_id=job_id,
                    submit_time=time,
                    runtime=float(runtime),
                    processors=width,
                    requested_time=float(runtime * factor),
                    user=user,
                )
            )
        assert self.session.feed(batch) == len(batch)
        self.jobs += batch
        self.fed_in_id_order &= not descending or len(batch) == 1

    def _riding_out_faults(self, call):
        result = riding_out_faults(call)
        self.settled = True
        return result

    @rule()
    def step(self):
        pending = self.session.n_pending_events
        try:
            # (an owed pass may start a job, whose FINISH is then the step)
            assert (self.session.step() is None) == (pending == 0) or not self.settled
            self.settled = True
        except InjectedFault as fault:
            # the failing FINISH is consumed: the rest of its instant is
            # pending or, if it was the last of it, the instant's pass owed
            # (a failing ``on_start`` comes after the pass: nothing is owed)
            self.settled = isinstance(fault, StartFault)

    def _owes_a_pass(self) -> bool:
        """The ``step`` that raised consumed the last event of its instant."""
        return not self.settled and self.session._events.next_time > self.session.now

    @precondition(_owes_a_pass)
    @rule()
    def run_the_owed_pass(self):
        """A call with no event to process still runs the pass the fault
        took with it -- the first such call, and only that one."""
        session = self.session
        passes = session.stats.n_scheduling_passes
        for _ in range(2):  # (a job the pass starts may fail ``on_start``: the pass ran)
            assert riding_out_faults(lambda: session.advance_to(session.now)) == 0
            assert session.stats.n_scheduling_passes == passes + 1
        self.settled = True

    @rule(gap=_GAPS)
    def advance_to(self, gap):
        target = self.session.now + gap
        self._riding_out_faults(lambda: self.session.advance_to(target))
        assert self.session.now == target

    @rule(pick=st.integers(min_value=0), delay=st.sampled_from([0, 1, 20, 500]))
    def complete(self, pick, delay):
        running = sorted(record.job_id for record in self.session.machine.running)
        if not running:
            return
        job_id = running[pick % len(running)]
        time = self.session.now + delay
        record = self._riding_out_faults(lambda: self.session.complete(job_id, time))
        assert record.finished and record.end_time <= time
        self.completions.append((job_id, time))
        self.last_completion = time

    @rule(gap=_GAPS, drain=st.booleans(), share=st.integers(min_value=1, max_value=4))
    def feed_machine_event(self, gap, drain, share):
        """A legal capacity change, landing on an instant of its own so
        the machine it meets is the machine the rule saw."""
        target = self.session.now + gap
        self._riding_out_faults(lambda: self.session.advance_to(target))
        self._note_holds()  # the next lines may restore what held a job on the way here
        machine = self.session.machine
        room = min(machine.free, MAX_DRAINED - machine.drained) if drain else machine.drained
        if room <= 0 or not self._quiet_now():
            return
        event = self.session.feed_machine_event(
            kind="drain" if drain else "restore", processors=min(share, room)
        )
        self._riding_out_faults(lambda: self.session.advance_to(event.time))
        self.machine_events.append(event)

    def _next_to_expire(self):
        """The running job whose pending EXPIRE comes first (None: none)."""
        expiring = [r for r in self.session.machine.running if r.predicted_runtime < r.runtime]
        return min(expiring, key=lambda r: (r.predicted_end, r.job_id), default=None)

    @precondition(lambda self: self.corrector is not None and self._next_to_expire() is not None)
    @rule(width=st.integers(min_value=1, max_value=PROCESSORS))
    def drain_wider_than_free_at_a_correction(self, width):
        """An illegal drain lands in the instant of the next correction
        and raises there, after the EXPIRE and before the pass: a query in
        between must plan on the corrected end, the machine's."""
        session = self.session
        self._riding_out_faults(lambda: session.advance_to(session.now))  # settle first
        record = self._next_to_expire()  # (another job may end at the same time, unexpired)
        if record is None:
            return
        target = record.predicted_end
        corrections = record.corrections
        event = session.feed_machine_event(time=target, kind="drain", processors=ILLEGAL_DRAIN)
        self.machine_events.append(event)
        while True:  # an injected fault on the way is ridden out; the drain is not retried
            try:
                session.advance_to(target)
            except InjectedFault:
                continue
            except ValueError as exc:
                assert _is_the_illegal_drain(exc)
                break
            raise AssertionError("the drain wider than the machine did not raise")
        self.settled = False  # the drain was the instant's last event: its pass is owed
        now = session.now
        assert now == target and record.corrections == corrections + 1
        assert record.predicted_end > now
        assert (record.predicted_end, record.processors) in session.machine.predicted_releases(now)
        self.query(0, width)

    @rule(pick=st.integers(min_value=0), width=st.integers(min_value=1, max_value=PROCESSORS))
    def query(self, pick, width):
        """Every waiting job and a probe get exactly the oracle's start;
        started jobs their own."""
        session = self.session
        self.queried = True
        before = session.snapshot()
        for job in self.jobs[pick % (len(self.jobs) + 1) :][:3]:
            record = session.record(job.job_id)
            if record.started:
                assert session.query(job_id=job.job_id).start_time == record.start_time
        probe = make_job(job_id=10**6, submit_time=session.now, processors=width)
        assert len(assert_queries_exact(session, probe)) == len(before.waiting)
        assert session.snapshot() == before  # queries never mutate

    @rule(width=st.integers(min_value=1, max_value=PROCESSORS), share=st.sampled_from([2, 3, 10]))
    def query_around_a_quiet_advance(self, width, share):
        """The clock moves part of the way to the next pending event and
        nothing fires: whatever a scheduler carried over from the first
        round of answers must still give the oracle's in the second."""
        session = self.session
        self._riding_out_faults(lambda: session.advance_to(session.now))  # what was fed at now
        self.query(0, width)
        next_time = session._events.next_time
        gap = (next_time - session.now) / share if next_time < inf else 100.0
        passes = session.stats.n_scheduling_passes
        session.advance_to(session.now + gap)
        assert session.stats.n_scheduling_passes == passes
        self.query(0, width)

    # -- invariants ----------------------------------------------------------
    @invariant()
    def registry_is_current_and_the_machine_sound(self):
        """The registry derives the event-kind and start counts from the
        session's state when read: they equal the kinds of what the loop
        popped and consumed, counted one by one, also past a fault."""
        session, telemetry = self.session, self.telemetry
        counters = telemetry.snapshot()["counters"]
        assert counters.get("engine.sched.passes", 0) == session.stats.n_scheduling_passes
        derived = {
            name: n
            for name, n in counters.items()
            if name.startswith("engine.events.") or name == "engine.sched.jobs_started"
        }
        assert derived == self.consumed()
        assert session.now >= self.last_now
        self.last_now = session.now
        session.machine.check_invariants()
        self._note_holds()

    def _note_holds(self):
        """A waiting job wider than the undrained machine: the modern
        schedulers hold it for a restore, the seed's cannot place it."""
        room = PROCESSORS - self.session.machine.drained
        self.held |= any(r.processors > room for r in self.session.scheduler.queue)

    @invariant()
    def the_session_counts_the_waiting_jobs(self):
        """``_n_waiting`` is ``scheduler.queue_length`` without the call:
        +1 per ``on_submit``, minus what each pass started -- also between
        a call that raised and the one that runs the owed pass."""
        assert self.session._n_waiting == self.session.scheduler.queue_length

    @invariant()
    def candidates_are_the_queue_in_backfill_order(self):
        scheduler = self.session.scheduler  # records compare by identity
        assert scheduler._ordered == sorted(scheduler._queue, key=scheduler._key)

    @invariant()
    def the_release_table_is_the_machines(self):
        """Every start, finish and correction reached the machine's
        release table, also past a call that raised: it equals the sort
        of the running records.  (It orders equal ends by job id, the
        sort by width.)"""
        machine, now = self.session.machine, self.session.now
        assert sorted(machine.releases.releases(now)) == machine.predicted_releases(now)

    @invariant()
    def nobody_who_could_start_is_waiting(self):
        """Once a call has returned, every pass the session owed has run:
        the head does not fit the free processors (EASY family, no
        oracle), and conservative's carried plan is the seed's -- a prefix
        of the reservation order, nobody in it or behind it due now."""
        session, scheduler = self.session, self.session.scheduler
        if not self.settled:
            return
        if isinstance(scheduler, ConservativeScheduler):
            assert_prefix_plan(session)
        elif scheduler.queue:
            assert scheduler.queue[0].processors > session.machine.free

    # -- the oracles ---------------------------------------------------------
    def _one_shot(self, scheduler: str, telemetry: Telemetry | None) -> list[tuple]:
        """Everything the live session was given, handed over up front
        (a ``Trace`` sorts each instant by id, so it cannot hand over an
        instant that was fed in another order)."""
        session = self._session(scheduler, telemetry)
        if (
            self.machine_events
            or self.completions
            or not self.fed_in_id_order
            or self.predictor == "faulty-ave2"
        ):
            session.feed(self.jobs)
            for event in self.machine_events:
                session.feed_machine_event(event)
            for job_id, time in self.completions:
                riding_out_faults(lambda: session.complete(job_id, time))
            riding_out_faults(session.drain)
            return _rows(session.result())
        return _rows(
            simulate(
                Trace(self.jobs, PROCESSORS),
                session.scheduler,
                session.predictor,
                session.corrector,
                telemetry=telemetry,
            )
        )

    def teardown(self):
        if not hasattr(self, "session"):
            return
        while self.session.machine.drained:  # on the first instant quiet enough
            self.feed_machine_event(1, False, MAX_DRAINED)
        self._riding_out_faults(self.session.drain)
        # a fault in the last event of all still gets its pass: nobody is left waiting
        assert not self.session.scheduler.queue_length
        self.registry_is_current_and_the_machine_sound()
        live = _rows(self.session.result())
        assert len(live) == len(self.jobs)
        self.compare_with_the_replays(live)

    def compare_with_the_replays(self, live: list[tuple]) -> None:
        replayed = Telemetry(component="live")
        assert self._one_shot(self.scheduler, replayed) == live
        assert _comparable(replayed, self.queried) == _comparable(
            self.telemetry, self.queried
        )
        # the seed can neither hold a head nor be told of a completion
        if not (self.completions or self.held):
            assert self._one_shot(f"legacy-{self.scheduler}", None) == live


class ProcessedInstantMachine(SessionMachine):
    """The walk with one more rule, which leaves the replay's path: batch
    equality is not promised once an instant's pass has run and more is
    fed at its time (a replay merges the two instants, per the
    ``sim/session.py`` module docstring), so its walks are held to every
    invariant and to losing no job, and compared with no replay."""

    @precondition(lambda self: not self._quiet_now())
    @rule(
        machine_event=st.booleans(),
        runtime=st.sampled_from([1, 30, 600]),
        width=st.integers(min_value=1, max_value=PROCESSORS),
    )
    def feed_at_a_processed_instant(self, machine_event, runtime, width):
        """A job (or a legal capacity change) fed *at* ``now`` once the
        pass at ``now`` has run: the session opens a second instant at the
        same time.  Every job must still end, the table stay the machine's
        and queries answer the oracle's."""
        session, machine = self.session, self.session.machine
        drain = machine.drained < MAX_DRAINED and machine.free > 0
        if machine_event and (drain or machine.drained):
            room = min(machine.free, MAX_DRAINED - machine.drained) if drain else machine.drained
            event = session.feed_machine_event(
                kind="drain" if drain else "restore", processors=min(width, room)
            )
            self.machine_events.append(event)
        else:
            job = make_job(
                job_id=len(self.jobs) + 1,
                submit_time=session.now,
                runtime=float(runtime),
                processors=width,
                requested_time=float(2 * runtime),
            )
            assert session.feed(job) == 1
            self.jobs.append(job)
        self._riding_out_faults(lambda: session.advance_to(session.now))
        self.query(0, width)

    def compare_with_the_replays(self, live: list[tuple]) -> None:
        pass


_SETTINGS = dict(
    stateful_step_count=30,
    deadline=None,
    derandomize=bool(os.environ.get("CI")),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
TestSessionStateful = SessionMachine.TestCase
TestSessionStateful.settings = settings(max_examples=60, **_SETTINGS)
TestProcessedInstantStateful = ProcessedInstantMachine.TestCase
TestProcessedInstantStateful.settings = settings(max_examples=30, **_SETTINGS)


def test_a_scripted_walk_meets_every_state_the_queries_must_survive():
    """What Hypothesis is free to find, this walk is sure to: one pass
    through the machine's own rules that puts a query behind a correction
    storm, an external completion ahead of the predicted end, a head held
    by a drain (and a clock that moves under it), a raising
    ``predictor.on_finish`` and the pass it leaves owed, raising
    ``predictor.on_start`` calls, a restore, and an instant fed in
    descending id order."""
    walk = SessionMachine()
    walk.open_session("easy-sjbf", ("faulty-ave2", "incremental"))

    def then(rule, *args, **kwargs):
        rule(*args, **kwargs)
        walk.registry_is_current_and_the_machine_sound()
        walk.the_session_counts_the_waiting_jobs()
        walk.candidates_are_the_queue_in_backfill_order()
        walk.the_release_table_is_the_machines()
        walk.nobody_who_could_start_is_waiting()

    session, scheduler = walk.session, walk.session.scheduler
    # user 1's last two runtimes are 10 s: AVE2 will predict the floor for it
    then(walk.feed, gap=0, jobs=[(0, 10, 1, 1, 1), (0, 10, 1, 1, 1)], descending=False)
    then(walk.advance_to, gap=60)
    # jobs 3 and 4 fill the machine for 600 s on a 60 s prediction; 5 and 6 queue
    then(
        walk.feed, gap=0, descending=False,
        jobs=[(0, 600, 5, 8, 1), (0, 600, 5, 8, 1), (0, 100, 1, 14, 2), (0, 30, 2, 2, 2)],
    )
    then(walk.query, pick=0, width=3)
    then(walk.advance_to, gap=60)  # both predictions expire in one instant
    assert session.stats.n_corrections == 2
    then(walk.query_around_a_quiet_advance, width=3, share=2)
    then(walk.complete, pick=1, delay=1)  # job 4, far ahead of its corrected end
    assert walk.completions and session.record(4).end_time < session.record(4).predicted_end
    then(walk.query, pick=0, width=16)
    then(walk.feed_machine_event, gap=7, drain=True, share=4)  # 14-wide job 5 is held
    assert walk.held and scheduler.queue[0].job_id == 5
    then(walk.feed, gap=1, jobs=[(0, 30, 2, 2, 2)], descending=False)
    then(walk.query_around_a_quiet_advance, width=2, share=3)
    assert session.query(job_id=5).start_time == float("inf")
    # job 6 (backfilled when 4 left) ends alone in its instant and the predictor
    # raises on it: no pass follows, but the release table has already dropped it
    assert session.machine.is_running(6)
    then(walk.advance_to, gap=session.record(6).start_time + 29 - session.now)
    then(walk.step)
    assert session.predictor.failed == {6} and walk._owes_a_pass()
    assert 6 not in session.machine.releases._by_job
    then(walk.query, pick=0, width=3)
    then(walk.run_the_owed_pass)
    then(walk.query, pick=0, width=3)
    then(walk.advance_to, gap=3000)  # job 3 raises too, and the retry runs its pass
    assert session.predictor.failed == {3, 6}
    then(walk.query, pick=0, width=3)
    then(walk.feed_machine_event, gap=1, drain=False, share=4)
    assert not session.machine.drained and session.record(5).started
    then(walk.feed, gap=0, jobs=[(0, 100, 2, 12, 3)] * 3, descending=True)
    assert not walk.fed_in_id_order
    then(walk.step)
    then(walk.query_around_a_quiet_advance, width=8, share=10)
    storms = walk.telemetry.snapshot()["histograms"]["engine.expire_storm.size"]
    assert storms["max"] >= 2
    assert session.predictor.failed_start == {2, 6}  # each ``on_start`` raised once
    walk.teardown()


def _checked(walk):
    """``walk``'s rules, each followed by the invariants that hold for
    every scheduler."""

    def then(rule, *args, **kwargs):
        rule(*args, **kwargs)
        walk.registry_is_current_and_the_machine_sound()
        walk.the_session_counts_the_waiting_jobs()
        walk.the_release_table_is_the_machines()
        walk.nobody_who_could_start_is_waiting()

    return then


def test_a_scripted_walk_meets_an_illegal_drain_at_a_correction():
    """A drain wider than the machine in the instant of a correction,
    sure to run once: the query behind it plans on the corrected end, the
    pass it owes runs once, and the walk still equals its replays."""
    walk = SessionMachine()
    walk.open_session("conservative", ("ave2", "incremental"))
    then, session = _checked(walk), walk.session
    # user 1's last two runtimes are 10 s: AVE2 predicts the floor, 60 s, for job 3
    then(walk.feed, gap=0, jobs=[(0, 10, 1, 1, 1), (0, 10, 1, 1, 1)], descending=False)
    then(walk.advance_to, gap=60)
    then(walk.feed, gap=0, jobs=[(0, 600, 5, 8, 1), (0, 100, 1, 14, 2)], descending=False)
    then(walk.advance_to, gap=0)
    assert walk._next_to_expire() is session.record(3)
    assert session.record(3).predicted_end == session.now + 60
    then(walk.drain_wider_than_free_at_a_correction, width=3)
    assert session.stats.n_corrections == 1 and walk._owes_a_pass()
    assert session.query(job_id=4).start_time >= session.record(3).predicted_end
    then(walk.run_the_owed_pass)
    walk.teardown()


def test_a_scripted_walk_feeds_at_a_processed_instant():
    """A job and then a drain fed at an instant whose pass has run, each
    sure to run once: every job still ends."""
    walk = ProcessedInstantMachine()
    walk.open_session("conservative", ("ave2", "incremental"))
    then, session = _checked(walk), walk.session
    then(walk.feed, gap=0, jobs=[(0, 10, 1, 1, 1), (0, 600, 5, 8, 1)], descending=False)
    then(walk.advance_to, gap=10)  # job 1 ends at 10: that instant's pass runs
    assert session.now == 10.0 and not walk._quiet_now()
    then(walk.feed_at_a_processed_instant, machine_event=False, runtime=30, width=2)
    then(walk.feed_at_a_processed_instant, machine_event=True, runtime=30, width=2)
    assert session.machine.drained == 2
    walk.teardown()
    assert session.record(3).submit_time == 10.0 and session.record(3).finished
