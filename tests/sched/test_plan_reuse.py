"""Carried reservation plan vs the seed's per-pass rebuild.

``ConservativeScheduler`` keeps its reservation plan between passes and
replans only when the running set moved under it.  Every way a pass can
be reached -- on-time and early finishes, EXPIRE storms, machine events,
external completions, mid-stream feeds, interleaved queries -- must give
the schedule of ``legacy-conservative*``, which rebuilds everything from
the machine at every pass and shares no profile-update code with it.
"""

import random
from collections import Counter

import pytest

from repro.correct import IncrementalCorrector
from repro.predict import ClairvoyantPredictor, RequestedTimePredictor
from repro.predict.base import Predictor
from repro.sched import make_scheduler
from repro.sched.legacy import _SeedProfile
from repro.sched.ordering import order_queue
from repro.sim import SimSession
from repro.sim.profile import AvailabilityProfile
from repro.workload import Trace
from tests.helpers import make_job, make_record

PAIRS = [
    ("conservative", "legacy-conservative"),
    ("conservative-sjbf", "legacy-conservative-sjbf"),
]
SEEDS = [1, 2, 3]
PROCESSORS = 16


class HalfPredictor(Predictor):
    """Always under-predicts: every job outlives its first prediction."""

    name = "half"

    def predict(self, record, now):
        return record.runtime / 2.0


def make_trace(seed, n_jobs=120, over=(1.0, 1.5, 3.0), max_width=10):
    """Bursty integer-valued trace: submit ties, and finishes that land
    on other jobs' submissions and reserved starts."""
    rng = random.Random(seed)
    now = 0
    jobs = []
    for job_id in range(1, n_jobs + 1):
        now += rng.choice([0, 0, rng.randint(1, 90)])
        runtime = float(rng.randint(10, 400))
        jobs.append(
            make_job(
                job_id=job_id,
                submit_time=float(now),
                runtime=runtime,
                processors=rng.randint(1, max_width),
                requested_time=runtime * rng.choice(over),
                user=rng.randint(1, 5),
            )
        )
    return Trace(jobs, PROCESSORS, name=f"plan-{seed}")


def make_session(name, predictor=RequestedTimePredictor, corrector=None):
    return SimSession(
        PROCESSORS,
        make_scheduler(name),
        predictor(),
        corrector() if corrector else None,
        min_prediction=1.0,
    )


def schedule_of(session):
    return sorted(
        (r.job_id, r.start_time, r.end_time, r.corrections)
        for r in session.result()
    )


def plan_state(scheduler):
    """Everything the carried plan consists of, as comparable values."""
    return (
        None if scheduler._plan is None else scheduler._plan.steps(),
        dict(scheduler._starts),
        [r.job_id for r in scheduler._order_cache],
        [r.job_id for r in scheduler.queue],
    )


def replay(name, trace, **components):
    session = make_session(name, **components)
    session.feed(trace)
    session.drain()
    return session


@pytest.mark.parametrize("modern,legacy", PAIRS)
@pytest.mark.parametrize("seed", SEEDS)
class TestSchedulesIdentical:
    def test_on_time_finishes(self, modern, legacy, seed):
        """runtime == requested: no finish ever invalidates the plan, so
        every start after the first is a reservation coming due."""
        trace = make_trace(seed, over=(1.0,))
        new, old = replay(modern, trace), replay(legacy, trace)
        assert schedule_of(new) == schedule_of(old)

    def test_exact_predictions_of_loose_requests(self, modern, legacy, seed):
        trace = make_trace(seed)
        new = replay(modern, trace, predictor=ClairvoyantPredictor)
        old = replay(legacy, trace, predictor=ClairvoyantPredictor)
        assert schedule_of(new) == schedule_of(old)

    def test_early_finishes(self, modern, legacy, seed):
        trace = make_trace(seed)
        new, old = replay(modern, trace), replay(legacy, trace)
        assert schedule_of(new) == schedule_of(old)

    def test_expire_storms(self, modern, legacy, seed):
        trace = make_trace(seed)
        components = dict(predictor=HalfPredictor, corrector=IncrementalCorrector)
        new, old = replay(modern, trace, **components), replay(legacy, trace, **components)
        assert new.stats.n_corrections >= len(trace)
        assert schedule_of(new) == schedule_of(old)

    def test_machine_events_with_a_queued_plan(self, modern, legacy, seed):
        """Drain two processors whenever two are free under a queue of
        reservations, give them back a few passes later."""
        # nothing is wider than the drained machine: the seed cannot hold jobs
        trace = make_trace(seed, max_width=PROCESSORS - 2)

        def run(name):
            session = make_session(name)
            session.feed(trace)
            n_events = 0
            while session.step() is not None:
                snap = session.snapshot()
                if snap.drained:
                    if session.stats.n_scheduling_passes % 5 == 0:
                        session.feed_machine_event(
                            time=session.now, kind="restore", processors=2
                        )
                        n_events += 1
                elif snap.free >= 2 and len(snap.waiting) >= 2:
                    session.feed_machine_event(
                        time=session.now, kind="drain", processors=2
                    )
                    n_events += 1
            assert n_events >= 4
            return session

        assert schedule_of(run(modern)) == schedule_of(run(legacy))

    def test_external_completions(self, modern, legacy, seed):
        """Every third pass, the job that has run longest is reported
        complete from outside, a moment after the last event."""
        trace = make_trace(seed)

        def run(name):
            session = make_session(name)
            session.feed(trace)
            n_completed = 0
            while session.step() is not None:
                running = session.snapshot().running
                if running and session.stats.n_scheduling_passes % 3 == 0:
                    job_id = min(running, key=lambda run: (run[1], run[0]))[0]
                    session.complete(job_id, session.now + 0.25)
                    n_completed += 1
            assert n_completed >= 10
            return session

        assert schedule_of(run(modern)) == schedule_of(run(legacy))

    def test_mid_stream_feed(self, modern, legacy, seed):
        """One job per feed, submit ties newest-first: a late arrival can
        sort ahead of a queue that was already planned at that instant."""
        trace = make_trace(seed)
        jobs = sorted(trace, key=lambda job: (job.submit_time, -job.job_id))

        def run(name):
            session = make_session(name)
            for job in jobs:
                session.advance_to(job.submit_time)
                session.feed(job)
                session.advance_to(job.submit_time)
            session.drain()
            return session

        assert schedule_of(run(modern)) == schedule_of(run(legacy))

    def test_queries_between_passes(self, modern, legacy, seed):
        """query() answers what the seed profile would reserve, in this
        scheduler's order, and leaves the plan as it was."""
        trace = make_trace(seed)
        probe = make_record(job_id=10_000, runtime=50.0, processors=3)
        order = make_scheduler(modern).reservation_order
        session = make_session(modern)
        session.feed(trace)
        n_queries = 0
        while session.step() is not None:
            before = plan_state(session.scheduler)
            expected = seed_starts(session, order, extra=(probe,))
            assert session.query(probe.job).start_time == expected.pop(probe.job_id)
            for job_id, start in expected.items():
                assert session.query(job_id=job_id).start_time == start
                n_queries += 1
            assert plan_state(session.scheduler) == before
        assert n_queries > len(trace)
        assert schedule_of(session) == schedule_of(replay(legacy, trace))


def seed_starts(session, order, extra=()):
    """Reservation starts computed the seed's way, from the machine alone."""
    now, machine = session.now, session.machine
    profile = _SeedProfile.from_releases(
        machine.processors, now, machine.free, machine.predicted_releases(now)
    )
    starts = {}
    for record in (*order_queue(list(session.scheduler.queue), order), *extra):
        start = profile.earliest_fit(record.processors, record.predicted_runtime, now)
        profile.reserve(start, record.predicted_runtime, record.processors)
        starts[record.job_id] = start
    return starts


def test_out_of_order_arrival_invalidates_sjbf_plan():
    """A short job submitted behind a planned long one sorts ahead of it."""
    session = make_session("conservative-sjbf")
    session.feed(make_job(job_id=1, runtime=100.0, processors=PROCESSORS))
    session.feed(make_job(job_id=2, submit_time=1.0, runtime=300.0, processors=PROCESSORS))
    session.feed(make_job(job_id=3, submit_time=2.0, runtime=20.0, processors=PROCESSORS))
    session.advance_to(1.0)
    assert session.scheduler.introspect()["plan_reused"] == 1.0
    session.advance_to(2.0)
    assert session.scheduler.introspect()["plan_reused"] == 0.0
    assert session.query(job_id=3).start_time < session.query(job_id=2).start_time


def test_submit_only_passes_place_one_reservation(monkeypatch):
    """FCFS with on-time finishes: once the first start has fed the delta
    hooks, a pass reserves for its arrivals and for nobody else."""
    plan_reserves = []
    reserve = AvailabilityProfile.reserve

    def counting(self, start, duration, processors):
        # the base profile (an IncrementalProfile) claims started jobs too
        if type(self) is AvailabilityProfile:
            plan_reserves.append(start)
        reserve(self, start, duration, processors)

    monkeypatch.setattr(AvailabilityProfile, "reserve", counting)
    trace = make_trace(4, over=(1.0,))
    arrivals_at = Counter(job.submit_time for job in trace)
    session = make_session("conservative")
    session.feed(trace)
    session.step()  # the first pass builds the plan from scratch
    n_submit_passes = 0
    while session.n_pending_events:
        before = len(plan_reserves)
        now = session.step()
        assert len(plan_reserves) - before == arrivals_at[now]
        if arrivals_at[now]:
            assert session.scheduler.introspect()["plan_reused"] == 1.0
            n_submit_passes += 1
    assert n_submit_passes > len(trace) // 4
