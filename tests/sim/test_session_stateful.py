"""A live session driven in random legal orders against one-shot replay.

The state machine feeds jobs, steps, advances, completes running jobs
externally, drains/restores processors and queries, in whatever order
Hypothesis picks.  After every rule the registry must reconcile with the
session's own run counters; at the end the schedule must equal a batch
replay of the same inputs (and the frozen ``legacy-*`` scheduler's), and
the telemetry snapshot must equal the one-shot replay's -- *how the
calls were chunked never shows in the numbers*.

The EASY family is also held to its own structure and guarantee, with no
oracle involved: after every rule the backfill candidates are exactly
the queue in backfill order, and every backfill pick of every pass
respects the head's reservation (``tests.helpers.guard_backfill``).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.correct import make_corrector
from repro.obs import Telemetry
from repro.predict import make_predictor
from repro.sched import EasyScheduler, make_scheduler
from repro.sim import SimSession, simulate
from repro.workload import Trace

from tests.helpers import guard_backfill, make_job

PROCESSORS = 16
#: drains never take more than this in total, and no job is wider than
#: what is left, so every job can always start eventually
MAX_DRAINED = 4
MAX_WIDTH = PROCESSORS - MAX_DRAINED
TIMERS = ("engine.time.predict.seconds", "engine.time.sched.seconds")

_GAPS = st.sampled_from([0, 1, 7, 60, 400, 3000])
_JOBS = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 3, 50]),  # delay after the previous job of the feed
        st.sampled_from([1, 10, 30, 100, 600, 3000]),  # runtime
        st.sampled_from([1, 2, 5]),  # requested / runtime
        st.integers(min_value=1, max_value=MAX_WIDTH),
        st.integers(min_value=1, max_value=3),  # user
    ),
    min_size=1,
    max_size=4,
)


def _rows(records) -> list[tuple]:
    return sorted((r.job_id, r.start_time, r.end_time, r.corrections) for r in records)


def _comparable(telemetry: Telemetry, queried: bool) -> dict:
    """A registry snapshot without what legitimately differs between two
    runs of the same schedule: the wall-clock timers, the last bits of
    the one real-valued sum (added up in a different order) and -- when
    queries were made -- conservative's sampled segment count, because
    a query trims the stale head of its base profile."""
    snap = telemetry.snapshot()
    for name in TIMERS:
        snap["counters"].pop(name, None)
    if queried:
        snap["histograms"].pop("engine.sched.profile_segments", None)
    error = snap["histograms"].get("predict.abs_error.seconds")
    if error is not None:
        error["sum"] = pytest.approx(error["sum"], rel=1e-9)
    return snap


class SessionMachine(RuleBasedStateMachine):
    @initialize(
        scheduler=st.sampled_from(["easy", "easy-sjbf", "easy-narrow", "conservative"]),
        components=st.sampled_from([("requested", None), ("ave2", "incremental")]),
    )
    def open_session(self, scheduler, components):
        self.scheduler = scheduler
        self.predictor, self.corrector = components
        self.telemetry = Telemetry(component="live")
        self.session = self._session(scheduler, self.telemetry)
        if isinstance(self.session.scheduler, EasyScheduler):
            guard_backfill(self.session.scheduler)
        self.jobs: list = []  # in feed order
        self.fed_in_id_order = True
        self.machine_events: list = []
        self.completions: list[tuple[int, float]] = []
        self.last_now = self.session.now
        self.last_completion = -1.0
        self.queried = False

    def _session(self, scheduler: str, telemetry: Telemetry | None) -> SimSession:
        return SimSession(
            PROCESSORS,
            make_scheduler(scheduler),
            make_predictor(self.predictor),
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

    @rule()
    def step(self):
        pending = self.session.n_pending_events
        assert (self.session.step() is None) == (pending == 0)

    @rule(gap=_GAPS)
    def advance_to(self, gap):
        target = self.session.now + gap
        self.session.advance_to(target)
        assert self.session.now == target

    @rule(pick=st.integers(min_value=0), delay=st.sampled_from([0, 1, 20, 500]))
    def complete(self, pick, delay):
        running = sorted(run.record.job_id for run in self.session.machine.running)
        if not running:
            return
        job_id = running[pick % len(running)]
        time = self.session.now + delay
        record = self.session.complete(job_id, time)
        assert record.finished and record.end_time <= time
        self.completions.append((job_id, time))
        self.last_completion = time

    @rule(gap=_GAPS, drain=st.booleans(), share=st.integers(min_value=1, max_value=4))
    def feed_machine_event(self, gap, drain, share):
        """A legal capacity change, landing on an instant of its own so
        the machine it meets is the machine the rule saw."""
        self.session.advance_to(self.session.now + gap)
        machine = self.session.machine
        room = min(machine.free, MAX_DRAINED - machine.drained) if drain else machine.drained
        if room <= 0 or not self._quiet_now():
            return
        event = self.session.feed_machine_event(
            kind="drain" if drain else "restore", processors=min(share, room)
        )
        self.session.advance_to(event.time)
        self.machine_events.append(event)

    @rule(pick=st.integers(min_value=0), width=st.integers(min_value=1, max_value=MAX_WIDTH))
    def query(self, pick, width):
        session = self.session
        self.queried = True
        before = session.snapshot()
        waiting = {job_id for job_id, _width, _predicted in before.waiting}
        for job in self.jobs[pick % (len(self.jobs) + 1) :][:3]:
            record = session.record(job.job_id)
            if record.started:
                assert session.query(job_id=job.job_id).start_time == record.start_time
            elif job.job_id in waiting:
                assert session.query(job_id=job.job_id).start_time >= session.now
        probe = make_job(job_id=10**6, submit_time=session.now, processors=width)
        assert session.query(probe).start_time >= session.now
        assert session.snapshot() == before  # queries never mutate

    # -- invariants ----------------------------------------------------------
    @invariant()
    def registry_is_current_and_the_machine_sound(self):
        session, telemetry = self.session, self.telemetry
        counters = telemetry.snapshot()["counters"]
        assert counters.get("engine.sched.passes", 0) == session.stats.n_scheduling_passes
        assert session.stats.n_events == sum(
            n for name, n in counters.items() if name.startswith("engine.events.")
        )
        assert session.now >= self.last_now
        self.last_now = session.now
        session.machine.check_invariants()

    @invariant()
    def candidates_are_the_queue_in_backfill_order(self):
        scheduler = self.session.scheduler
        if isinstance(scheduler, EasyScheduler):  # records compare by identity
            assert scheduler._candidates == sorted(scheduler._queue, key=scheduler._key)

    # -- the oracles ---------------------------------------------------------
    def _one_shot(self, scheduler: str, telemetry: Telemetry | None) -> list[tuple]:
        """Everything the live session was given, handed over up front
        (a ``Trace`` sorts each instant by id, so it cannot hand over an
        instant that was fed in another order)."""
        if not self.machine_events and not self.completions and self.fed_in_id_order:
            return _rows(
                simulate(
                    Trace(self.jobs, PROCESSORS),
                    make_scheduler(scheduler),
                    make_predictor(self.predictor),
                    make_corrector(self.corrector) if self.corrector else None,
                    telemetry=telemetry,
                )
            )
        session = self._session(scheduler, telemetry)
        session.feed(self.jobs)
        for event in self.machine_events:
            session.feed_machine_event(event)
        for job_id, time in self.completions:
            session.complete(job_id, time)
        session.drain()
        return _rows(session.result())

    def teardown(self):
        if not hasattr(self, "session"):
            return
        self.session.drain()
        self.registry_is_current_and_the_machine_sound()
        live = _rows(self.session.result())
        assert len(live) == len(self.jobs)
        replayed = Telemetry(component="live")
        assert self._one_shot(self.scheduler, replayed) == live
        assert _comparable(replayed, self.queried) == _comparable(
            self.telemetry, self.queried
        )
        if not self.completions:
            assert self._one_shot(f"legacy-{self.scheduler}", None) == live


TestSessionStateful = SessionMachine.TestCase
TestSessionStateful.settings = settings(
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
    derandomize=bool(os.environ.get("CI")),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
