"""Carried reservation plans vs the seed's rebuild from the machine.

``ConservativeScheduler`` keeps its reservation plan between passes,
replans only when the running set moved under it, and places the queue
only as far as the last job that can still start now; queries place the
rest.  Every way a pass can be reached -- on-time and early finishes,
EXPIRE storms, machine events, external completions, mid-stream feeds,
interleaved queries -- must give the schedule of
``legacy-conservative*``, which rebuilds everything from the machine at
every pass and shares no profile-update code with it; and at every
instant on the way the placed jobs must be a prefix of the reservation
order, placed where the seed's profile places them, with nobody left
out who could start now (``assert_prefix_plan``).

The EASY family carries a plan too, from *query* to query
(``BackfillScheduler._reservations``): every answer must be the one the
seed's profile gives when built from the machine alone, and a query must
cost placements only for what changed since the one before.  Under every
scheduler a probe is fitted on the queue's plan and places nothing.
"""

import inspect
import random
from collections import Counter
from math import inf

import pytest

from repro.correct import IncrementalCorrector
from repro.learn import LinearSoftmaxPolicy, RLBackfillScheduler
from repro.predict import ClairvoyantPredictor, RequestedTimePredictor
from repro.predict.base import Predictor
from repro.sched import conservative, make_scheduler
from repro.sched.legacy import _SeedProfile
from repro.sched.ordering import order_queue
from repro.sim import SimSession, simulate
from repro.sim.machine import Machine
from repro.sim.profile import AvailabilityProfile
from repro.workload import Job, Trace
from tests.helpers import make_job, make_record
from tests.sched import test_easy
from tests.sched.test_profile_equivalence import EASY_PAIRS

PAIRS = [
    ("conservative", "legacy-conservative"),
    ("conservative-sjbf", "legacy-conservative-sjbf"),
]
#: schedulers the registry does not build the way these tests want them:
#: the greedy learned pick, which has no ``legacy-`` twin
BUILT = {
    "rl-backfill": lambda: RLBackfillScheduler(LinearSoftmaxPolicy.sjbf_init()),
}
#: every scheduler whose queries are held to the oracle -> its schedule's reference
QUERIED = {**dict(PAIRS), **dict(EASY_PAIRS), "rl-backfill": None}
SEEDS = [1, 2, 3]
PROCESSORS = 16


class HalfPredictor(Predictor):
    """Always under-predicts: every job outlives its first prediction."""

    name = "half"

    def predict(self, record, now):
        return record.runtime / 2.0

    estimate = predict


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
        BUILT[name]() if name in BUILT else make_scheduler(name),
        predictor(),
        corrector() if corrector else None,
        min_prediction=1.0,
    )


def schedule_of(session):
    return sorted(
        (r.job_id, r.start_time, r.end_time, r.corrections)
        for r in session.result()
    )


def replay(name, trace, check=None, **components):
    """Feed everything, then step to the end; ``check(session)`` after
    every instant."""
    session = make_session(name, **components)
    session.feed(trace)
    while session.step() is not None:
        if check:
            check(session)
    return session


def step_with_machine_events(session, check=None):
    """Step to the end, ``check(session)`` after every instant; drain two
    processors whenever two are free under a queue of two, give them
    back every fifth pass.  Returns the number of machine events fed."""
    n_events = 0
    while session.step() is not None:
        if check:
            check(session)
        snap = session.snapshot()
        if snap.drained:
            if session.stats.n_scheduling_passes % 5 == 0:
                session.feed_machine_event(time=session.now, kind="restore", processors=2)
                n_events += 1
        elif snap.free >= 2 and len(snap.waiting) >= 2:
            session.feed_machine_event(time=session.now, kind="drain", processors=2)
            n_events += 1
    return n_events


def descending_instants(trace):
    """The jobs of ``trace``, each instant highest id first: the queue
    takes them as fed, ``fcfs_key`` orders by id."""
    return sorted(trace, key=lambda job: (job.submit_time, -job.job_id))


@pytest.mark.parametrize("modern,legacy", PAIRS)
@pytest.mark.parametrize("seed", SEEDS)
class TestSchedulesIdentical:
    """Every scenario under the seed's rebuild and under the carried
    plan, watched at every instant; where ``test_queries_between_passes``
    does not go (machine events, completions, feeds) a third time watched
    *and queried* at every instant -- a query completes the plan, so the
    two walk different prefixes.  One schedule."""

    @staticmethod
    def same_schedule(run, modern, legacy, queried=False):
        expected = schedule_of(run(legacy, None))
        assert schedule_of(run(modern, assert_prefix_plan)) == expected
        if queried:
            assert schedule_of(run(modern, assert_queried_plan)) == expected

    def test_on_time_finishes(self, modern, legacy, seed):
        """runtime == requested: no finish ever invalidates the plan, so
        every start after the first is a reservation coming due."""
        trace = make_trace(seed, over=(1.0,))
        self.same_schedule(lambda name, check: replay(name, trace, check), modern, legacy)

    def test_exact_predictions_of_loose_requests(self, modern, legacy, seed):
        trace = make_trace(seed)
        self.same_schedule(
            lambda name, check: replay(name, trace, check, predictor=ClairvoyantPredictor),
            modern, legacy,
        )

    def test_early_finishes(self, modern, legacy, seed):
        trace = make_trace(seed)
        self.same_schedule(lambda name, check: replay(name, trace, check), modern, legacy)

    def test_expire_storms(self, modern, legacy, seed):
        trace = make_trace(seed)
        components = dict(predictor=HalfPredictor, corrector=IncrementalCorrector)

        def run(name, check):
            session = replay(name, trace, check, **components)
            assert session.stats.n_corrections >= len(trace)
            return session

        self.same_schedule(run, modern, legacy)

    def test_machine_events_with_a_queued_plan(self, modern, legacy, seed):
        """Drain two processors whenever two are free under a queue of
        reservations, give them back a few passes later."""
        # nothing is wider than the drained machine: the seed cannot hold jobs
        trace = make_trace(seed, max_width=PROCESSORS - 2)

        def run(name, check):
            session = make_session(name)
            session.feed(trace)
            assert step_with_machine_events(session, check) >= 4
            return session

        self.same_schedule(run, modern, legacy, queried=True)

    def test_external_completions(self, modern, legacy, seed):
        """Every third pass, the job that has run longest is reported
        complete from outside, a moment after the last event."""
        trace = make_trace(seed)

        def run(name, check):
            session = make_session(name)
            session.feed(trace)
            n_completed = 0
            while session.step() is not None:
                if check:
                    check(session)
                running = session.snapshot().running
                if running and session.stats.n_scheduling_passes % 3 == 0:
                    job_id = min(running, key=lambda run: (run[1], run[0]))[0]
                    session.complete(job_id, session.now + 0.25)
                    n_completed += 1
                    if check:
                        check(session)
            assert n_completed >= 10
            return session

        self.same_schedule(run, modern, legacy, queried=True)

    def test_mid_stream_feed(self, modern, legacy, seed):
        """One job per feed, submit ties newest-first: a late arrival can
        sort ahead of a queue that was already planned at that instant."""
        trace = make_trace(seed)

        def run(name, check):
            session = make_session(name)
            for job in descending_instants(trace):
                session.advance_to(job.submit_time)
                session.feed(job)
                session.advance_to(job.submit_time)
                if check:
                    check(session)
            session.drain()
            return session

        self.same_schedule(run, modern, legacy, queried=True)

    def test_instants_fed_in_descending_id_order(self, modern, legacy, seed):
        """The feed order within an instant is not the reservation order:
        the queue holds each instant newest-first, the plan is by key."""
        trace = make_trace(seed)
        jobs = descending_instants(trace)
        assert jobs != list(trace)
        components = dict(predictor=OddHalfPredictor, corrector=IncrementalCorrector)

        def run(name, check):
            session = replay(name, jobs, check, **components)
            assert session.stats.n_corrections > 20
            return session

        self.same_schedule(run, modern, legacy, queried=True)

    def test_queries_between_passes(self, modern, legacy, seed):
        check_queries_between_passes(modern, seed, "early-finishes")


def seed_starts(session, extra=()):
    """Reservation starts computed the seed's way, from the machine alone:
    in the queue's own order, or for conservative sorted by its
    reservation order; a job wider than the undrained machine is held --
    ``inf``, and it reserves nothing."""
    now, machine, scheduler = session.now, session.machine, session.scheduler
    profile = _SeedProfile.from_releases(
        machine.processors, now, machine.free, machine.predicted_releases(now)
    )
    queue = list(scheduler.queue)
    if hasattr(scheduler, "reservation_order"):
        queue = order_queue(queue, scheduler.reservation_order)
    starts = {}
    for record in (*queue, *extra):
        if record.processors > machine.processors - machine.drained:
            starts[record.job_id] = inf
            continue
        start = profile.earliest_fit(record.processors, record.predicted_runtime, now)
        profile.reserve(start, record.predicted_runtime, record.processors)
        starts[record.job_id] = start
    return starts


def assert_queries_exact(session, probe_job):
    """The probe first, then every waiting job: each answer is the
    oracle's.  Returns the oracle's starts of the waiting jobs."""
    answer = session.query(probe_job)
    probe = make_record(job_id=probe_job.job_id, processors=probe_job.processors)
    probe.predicted_runtime = answer.predicted_runtime
    expected = seed_starts(session, extra=(probe,))
    assert answer.start_time == expected.pop(probe.job_id)
    for job_id, start in expected.items():
        assert session.query(job_id=job_id).start_time == start
    return expected


def assert_prefix_plan(session, placed=None, expected=None):
    """Conservative's carried plan at a settled instant, against the
    machine alone: the placed jobs are a prefix of the queue in
    reservation order, each at the start the seed's profile gives it, and
    every waiting job, left unplaced or not, starts later than now -- the
    stop rule is sound, checked by code the fast path does not share."""
    placed = session.scheduler._starts if placed is None else placed
    expected = seed_starts(session) if expected is None else expected  # in reservation order
    assert list(placed) == list(expected)[: len(placed)]
    assert placed == {job_id: expected[job_id] for job_id in placed}
    assert all(start > session.now for start in expected.values())


def assert_queried_plan(session):
    """A query may extend the placed prefix -- to the whole queue; no
    placed start and no queue entry changes, every answer is the
    oracle's (returned)."""
    scheduler = session.scheduler
    placed, queue = dict(scheduler._starts), scheduler.queue
    expected = assert_queries_exact(session, PROBE)
    assert_prefix_plan(session, placed, expected)
    assert scheduler._starts == expected and scheduler.queue == queue
    return expected


def check_queries_between_passes(name, seed, components):
    """query() answers what the seed profile would reserve, in this
    scheduler's order, at every instant of a run (under
    ``machine-events``, one ``step_with_machine_events`` drives).  A
    query may extend conservative's placed prefix; no placed start, no
    ``_queue`` entry and no schedule changes."""
    events = components == "machine-events"
    # nothing is wider than the drained machine: the seed cannot hold jobs
    trace = make_trace(seed, max_width=PROCESSORS - 2) if events else make_trace(seed)
    components = (
        dict(predictor=HalfPredictor, corrector=IncrementalCorrector)
        if components == "expire-storms"
        else {}
    )
    conservative = name.startswith("conservative")
    n_queries = 0

    def query_every_job(session):
        nonlocal n_queries
        n_queries += len(
            assert_queried_plan(session) if conservative else assert_queries_exact(session, PROBE)
        )

    def run(name, check=None):
        if not events:
            return replay(name, trace, check, **components)
        session = make_session(name, **components)
        session.feed(trace)
        assert step_with_machine_events(session, check) >= 4
        return session

    session = run(name, query_every_job)
    assert n_queries > len(trace)
    assert schedule_of(session) == schedule_of(run(QUERIED[name] or name))


@pytest.mark.parametrize(
    "name,seed,components",
    [
        # conservative runs both in TestSchedulesIdentical
        *((name, seed, components) for components in ("early-finishes", "machine-events")
          for name in QUERIED for seed in SEEDS if not name.startswith("conservative")),
        *((name, 1, "expire-storms") for name in QUERIED),
    ],
)
def test_queries_between_passes(name, seed, components):
    check_queries_between_passes(name, seed, components)


@pytest.mark.parametrize("placed", [True, False])
def test_out_of_order_arrival_invalidates_sjbf_plan(placed):
    """A short job submitted behind a long one sorts ahead of it: the
    plan starts over when the long one holds a reservation (here a query
    asked for it) and carries on when no pass had needed to place it."""
    session = make_session("conservative-sjbf")
    session.feed(make_job(job_id=1, runtime=100.0, processors=PROCESSORS))
    session.feed(make_job(job_id=2, submit_time=1.0, runtime=300.0, processors=PROCESSORS))
    session.feed(make_job(job_id=3, submit_time=2.0, runtime=20.0, processors=PROCESSORS))
    session.advance_to(1.0)
    assert session.scheduler.introspect(session.machine)["plan_reused"] == 1.0
    if placed:
        assert session.query(job_id=2).start_time == session.record(1).predicted_end
    assert list(session.scheduler._starts) == ([2] if placed else [])
    session.advance_to(2.0)
    assert session.scheduler.introspect(session.machine)["plan_reused"] == (0.0 if placed else 1.0)
    assert session.query(job_id=3).start_time < session.query(job_id=2).start_time
    assert_prefix_plan(session)


def test_submit_only_passes_place_one_reservation(monkeypatch):
    """FCFS with on-time finishes: once the first start has fed the delta
    hooks, a pass reserves for nobody it has placed before -- at most as
    many reservations as jobs arrived since the first pass, however the
    passes share them out."""
    plan_reserves = []
    place = AvailabilityProfile.place

    def counting(self, processors, duration, not_before):
        plan_reserves.append(not_before)
        return place(self, processors, duration, not_before)

    monkeypatch.setattr(AvailabilityProfile, "place", counting)
    trace = make_trace(4, over=(1.0,))
    arrivals_at = Counter(job.submit_time for job in trace)
    session = make_session("conservative")
    session.feed(trace)
    session.step()  # the first pass builds the plan from scratch
    n_submit_passes = 0
    n_arrived = session.scheduler.queue_length - len(session.scheduler._starts)  # left unplaced
    before = len(plan_reserves)
    while session.n_pending_events:
        now = session.step()
        n_arrived += arrivals_at[now]
        assert len(plan_reserves) - before <= n_arrived
        if arrivals_at[now]:
            assert session.scheduler.introspect(session.machine)["plan_reused"] == 1.0
            n_submit_passes += 1
    assert n_submit_passes > len(trace) // 4
    assert len(plan_reserves) - before == n_arrived  # every job is placed before it starts


@pytest.mark.parametrize("name", ["conservative", "conservative-sjbf"])
def test_plan_placements_per_job_stay_bounded(name, monkeypatch):
    """Requested-time predictions on a flurry trace: two finishes in three
    are early and drop the plan, the queue passes 150 -- and a pass still
    places only as far as the last job that can start now, not the queue:
    4.1 placements per job under fcfs and 2.8 under sjbf (39 and 85 when
    every replan placed the queue; 24 and 53 with a stop rule that looks
    at widths alone).  Counted in ``place`` calls: no clock."""
    placements = [0]
    place = AvailabilityProfile.place

    def counting(profile, *args, **kwargs):
        placements[0] += 1
        return place(profile, *args, **kwargs)

    monkeypatch.setattr(AvailabilityProfile, "place", counting)
    trace = test_easy.TestNoPerPassSort.flurries(processors=128)
    result = simulate(trace, make_scheduler(name), RequestedTimePredictor())
    assert len(trace) >= 2000 and result.stats.max_queue_length >= 100
    assert len(trace) <= placements[0] <= 5 * len(trace)


def deep_flurries(n_days=3, per_day=90, processors=64):
    """Daily flurries of ``per_day`` jobs within a minute on a 64-processor
    machine, widths 1 to 64: each flurry asks for many machines at once,
    so the queue runs deep and the placed prefix long -- the regime of
    conservative backfilling on a wide arrival."""
    rng = random.Random(41)
    jobs = []
    for job_id in range(1, n_days * per_day + 1):
        runtime = float(rng.randint(300, 5400))
        jobs.append(
            Job(
                job_id=job_id,
                submit_time=86400.0 * ((job_id - 1) // per_day) + rng.uniform(0.0, 60.0),
                runtime=runtime,
                processors=rng.choice([1, 1, 1, 2, 2, 4, 8, 16, 64]),
                requested_time=runtime * rng.choice([1.2, 2.0, 3.0]),
            )
        )
    trace = Trace(jobs, processors)
    assert sum(job.processors for job in jobs[:per_day]) > 10 * processors
    return trace


def holding(seed):
    """The seed's rebuild, which cannot hold a job, with the hold rule
    stated outside it: a pass does not see the waiting jobs wider than
    the undrained machine, and they keep their place in the queue."""
    select = seed.select_jobs

    def select_jobs(now, machine):
        queue = seed._queue
        seed._queue = [r for r in queue if r.processors <= machine.processors - machine.drained]
        started = select(now, machine)
        seed._queue = [r for r in queue if r not in started]
        return started

    seed.select_jobs = select_jobs
    return seed


@pytest.mark.parametrize("predictor", [RequestedTimePredictor, ClairvoyantPredictor])
@pytest.mark.parametrize("modern,legacy", PAIRS)
class TestDeepQueue:
    """Flurries much wider than the machine: a queue of forty and more,
    and each pass extends a long placed prefix.  One schedule with the
    seed's rebuild, batch and on a live session drained mid-queue."""

    def test_batch(self, modern, legacy, predictor):
        trace = deep_flurries()
        result = simulate(trace, make_scheduler(modern), predictor())
        assert result.stats.max_queue_length >= 40
        expected = simulate(trace, make_scheduler(legacy), predictor())
        assert [(r.job_id, r.start_time) for r in result] == [
            (r.job_id, r.start_time) for r in expected
        ]

    def test_drain_and_restore_mid_queue(self, modern, legacy, predictor):
        """Drain every free processor under a queue of forty -- the
        64-wide jobs are then held -- and restore them ten instants on."""
        sessions = []
        for scheduler in (make_scheduler(modern), holding(make_scheduler(legacy))):
            session = SimSession(64, scheduler, predictor())
            session.feed(deep_flurries())
            sessions.append(session)
        session, twin = sessions
        drained_at, held, held_instants = None, [], 0
        while (now := session.step()) is not None:
            assert twin.step() == now
            snap = session.snapshot()
            if drained_at is None and len(snap.waiting) >= 40 and snap.free:
                held = [r.job_id for r in session.scheduler.queue if r.processors > 64 - snap.free]
                for each in sessions:
                    each.feed_machine_event(time=now, kind="drain", processors=snap.free)
                drained_at = session.stats.n_scheduling_passes
            elif snap.drained and session.stats.n_scheduling_passes >= drained_at + 10:
                for each in sessions:
                    each.feed_machine_event(time=now, kind="restore", processors=snap.drained)
            elif snap.drained:
                assert {session.query(job_id=job_id).start_time for job_id in held} == {inf}
                held_instants += 1
        assert held_instants >= 5 and session.machine.drained == 0
        assert schedule_of(session) == schedule_of(twin)


def test_no_sort_in_the_module():
    assert "sorted(" not in inspect.getsource(conservative)


# -- EASY: the plan carried from query to query -------------------------------
class Placements:
    """Counts ``place`` and ``earliest_fit`` calls made inside one
    scheduler's ``estimated_starts``: one per reservation a query really
    placed, and one per probe it fitted."""

    def __init__(self, monkeypatch, scheduler):
        self.n = 0
        self._inside = False
        answer = scheduler.estimated_starts

        def counting(method):
            def call(profile, *args, **kwargs):
                self.n += self._inside
                return method(profile, *args, **kwargs)

            return call

        def entered(*args, **kwargs):
            self._inside = True
            try:
                return answer(*args, **kwargs)
            finally:
                self._inside = False

        for name in ("place", "earliest_fit"):
            method = getattr(AvailabilityProfile, name)
            monkeypatch.setattr(AvailabilityProfile, name, counting(method))
        scheduler.estimated_starts = entered

    def during(self, call):
        before = self.n
        call()
        return self.n - before


class OddHalfPredictor(HalfPredictor):
    """Under-predicts the odd job ids only, so both early finishes and
    EXPIRE corrections come between the submissions."""

    def predict(self, record, now):
        return record.runtime / 2.0 if record.job_id % 2 else record.requested_time

    estimate = predict


def running_state(session):
    machine = session.machine
    return machine.free, sorted((r.job_id, r.predicted_end) for r in machine.running)


def only_on_time_finishes(before, after, now):
    """``after`` is the ``running_state`` ``before`` minus jobs that ended
    at ``now``, their predicted end: nobody started, ended early or was
    corrected."""
    (_, runs_before), (_, runs_after) = before, after
    gone = set(runs_before) - set(runs_after)
    return set(runs_after) <= set(runs_before) and all(end == now for _, end in gone)


def test_queries_place_only_what_changed(monkeypatch):
    """Under ``easy-sjbf`` on a flurry trace: after an instant that only
    queued its submissions, or saw jobs end where they were predicted to,
    a cold query places the arrivals and nobody else; after one that
    started, finished early or corrected anything, it places the whole
    queue once; the probe then costs one placement either way, and the
    repeated query none."""
    trace = make_trace(4)
    session = make_session(
        "easy-sjbf", predictor=OddHalfPredictor, corrector=IncrementalCorrector
    )
    placements = Placements(monkeypatch, session.scheduler)
    probe = make_job(job_id=10_000, runtime=50.0, processors=3)
    session.feed(trace)
    seen = Counter()
    waiting_before, state_before = set(), running_state(session)
    while session.step() is not None:
        queue = session.scheduler.queue
        state = running_state(session)
        arrivals = [r for r in queue if r.job_id not in waiting_before]
        if state == state_before:
            kind = "submit-only"
        elif only_on_time_finishes(state_before, state, session.now):
            kind = "on-time"
        else:
            kind = "moved"
        if queue:
            asked = queue[-1].job_id
            cold = placements.during(lambda: session.query(job_id=asked))
            assert cold == (len(queue) if kind == "moved" else len(arrivals)), kind
            assert placements.during(lambda: session.query(job_id=asked)) == 0
            seen[kind] += 1
        assert placements.during(lambda: session.query(probe)) == 1
        waiting_before, state_before = {r.job_id for r in queue}, state
    assert session.stats.n_corrections > 20
    # the 12 on-time instants each placed the whole queue while any finish dropped the plan
    assert seen == {"submit-only": 34, "on-time": 12, "moved": 206}


def full_machine_session(name="easy-sjbf"):
    """Jobs 2 (10 wide, ends at 1000 as predicted) and 1 (6 wide, ends at
    300 but predicted to end at 150) fill the machine from t=0; jobs 4 and
    6 (8 wide, an hour each, side by side from t=1000) queue behind them
    at t=10 and t=20."""
    session = make_session(name, predictor=OddHalfPredictor, corrector=IncrementalCorrector)
    session.feed(
        [
            make_job(job_id=2, runtime=1000.0, processors=10, requested_time=1000.0),
            make_job(job_id=1, runtime=300.0, processors=6, requested_time=2000.0),
            *(
                make_job(job_id=job_id, submit_time=submit, runtime=3600.0, processors=8,
                         requested_time=3600.0)
                for job_id, submit in ((4, 10.0), (6, 20.0))
            ),
        ]
    )
    session.advance_to(20.0)
    assert [r.job_id for r in session.scheduler.queue] == [4, 6]
    return session


PROBE = make_job(job_id=10_000, runtime=50.0, processors=3)


@pytest.mark.parametrize(
    "trigger",
    ["correction", "finish", "start", "drain", "restore", "quiet-advance", "submission"],
)
def test_what_replans_the_query_plan(monkeypatch, trigger):
    """A correction, an early finish, a start and a machine event each
    cost the next query one placement per waiting job and the one after
    none; a clock that merely moved, or a submission that queued, cost
    none."""
    session = full_machine_session()
    placements = Placements(monkeypatch, session.scheduler)
    assert placements.during(lambda: assert_queries_exact(session, PROBE)) == 2 + 1
    replans = True
    if trigger == "correction":
        session.advance_to(150.0)  # job 1 outlives its prediction
        assert session.stats.n_corrections == 1
    elif trigger == "finish":
        session.advance_to(300.0)  # 6 processors come free, nobody fits them
        assert session.machine.free == 6 and session.record(1).predicted_end > 300.0
    elif trigger == "start":
        session.advance_to(300.0)
        assert_queries_exact(session, PROBE)
        session.feed(make_job(job_id=8, submit_time=310.0, runtime=60.0, processors=6))
        session.advance_to(310.0)  # backfilled on arrival: the queue is as it was
        assert session.machine.is_running(8)
    elif trigger in ("drain", "restore"):
        session.advance_to(300.0)
        for kind in ("drain", "restore") if trigger == "restore" else ("drain",):
            assert_queries_exact(session, PROBE)  # so the event is the only news
            session.feed_machine_event(kind=kind, processors=4)
            session.advance_to(300.0)
    elif trigger == "quiet-advance":
        session.advance_to(100.0)
        replans = False
    else:
        session.feed(make_job(job_id=8, submit_time=30.0, runtime=60.0, processors=8))
        session.advance_to(30.0)
        replans = False
    n_waiting = session.scheduler.queue_length
    new = 1 if trigger == "submission" else 0
    first = placements.during(lambda: assert_queries_exact(session, PROBE))
    assert first == (n_waiting if replans else new) + 1
    assert placements.during(lambda: assert_queries_exact(session, PROBE)) == 1


@pytest.mark.parametrize("name", QUERIED)
def test_a_redrain_after_a_start_and_its_finish_replans(name):
    """Drained to 12, the query plans 6-wide job 2 at 1000 and 10-wide
    job 3 behind it; a restore starts job 2, it finishes, and the same
    drain brings back the free count and the running set of that query.
    Job 2 is gone from the queue all the same: the next query places
    job 3 at 1000 and answers for job 4, queued since."""
    session = make_session(name)
    session.feed(make_job(job_id=1, runtime=1000.0, processors=8, requested_time=1000.0))
    session.feed_machine_event(time=5.0, kind="drain", processors=4)
    session.feed(make_job(job_id=2, submit_time=10.0, runtime=50.0, processors=6,
                          requested_time=50.0))
    session.feed(make_job(job_id=3, submit_time=10.0, runtime=100.0, processors=10))
    session.advance_to(10.0)
    assert assert_queries_exact(session, PROBE) == {2: 1000.0, 3: 1050.0}
    state = running_state(session)
    session.feed_machine_event(time=20.0, kind="restore", processors=4)
    session.advance_to(70.0)
    assert session.record(2).end_time == 70.0
    session.feed_machine_event(kind="drain", processors=4)
    session.feed(make_job(job_id=4, submit_time=80.0, processors=5))
    session.advance_to(80.0)
    assert running_state(session) == state
    assert assert_queries_exact(session, PROBE) == {3: 1000.0, 4: 1200.0}


def test_a_probe_leaves_no_trace_in_the_carried_plan(monkeypatch):
    """The probe is fitted, never placed: the arrival queued after it gets
    the start it would have had without the probe ever being asked."""
    session = full_machine_session()
    wide_probe = make_job(job_id=10_000, runtime=3000.0, processors=16)
    assert session.query(wide_probe).start_time == 1000.0 + 3600.0
    session.feed(make_job(job_id=8, submit_time=30.0, runtime=60.0, processors=16))
    session.advance_to(30.0)
    assert session.query(job_id=8).start_time == 1000.0 + 3600.0
    assert_queries_exact(session, PROBE)


class ProbeCost:
    """Counts the ``AvailabilityProfile.place`` and ``reserve`` calls one
    scheduler's ``estimated_starts`` makes outside ``_reservations``: what
    a probe costs beyond the queue's own plan."""

    def __init__(self, monkeypatch, scheduler):
        self.reserves = 0
        counting = [False]

        def counted(method):
            def call(profile, *args, **kwargs):
                self.reserves += counting[0]
                return method(profile, *args, **kwargs)

            return call

        def scoped(method, value):
            def call(*args, **kwargs):
                outer, counting[0] = counting[0], value
                try:
                    return method(*args, **kwargs)
                finally:
                    counting[0] = outer

            return call

        for name in ("place", "reserve"):
            method = getattr(AvailabilityProfile, name)
            monkeypatch.setattr(AvailabilityProfile, name, counted(method))
        monkeypatch.setattr(scheduler, "estimated_starts", scoped(scheduler.estimated_starts, True))
        monkeypatch.setattr(scheduler, "_reservations", scoped(scheduler._reservations, False))


#: each scheduler's oracle for queries: the twin that reserves in the same
#: order (fcfs and rl-backfill queue like classic EASY; in
#: ``full_machine_session`` nobody has backfilled, so the states agree)
QUERY_TWIN = {
    "easy": "legacy-easy",
    "easy-sjbf": "legacy-easy-sjbf",
    "conservative": "legacy-conservative",
    "fcfs": "legacy-easy",
    "rl-backfill": "legacy-easy",
}


@pytest.mark.parametrize("name", QUERY_TWIN)
def test_a_probe_places_nothing(monkeypatch, name):
    """One hypothetical record is fitted on the queue's plan read-only: no
    reservation; its answer is the twin's, and a waiting
    query after it is served from the carried plan with no placement
    (``fcfs`` carries none: it replaces the queue)."""
    session, twin = full_machine_session(name), full_machine_session(QUERY_TWIN[name])
    wide = make_job(job_id=10_001, runtime=3000.0, processors=PROCESSORS)
    for each in (session, twin):
        each.query(job_id=4)  # the queue's plan, once
        each.advance_to(100.0)  # nothing happens: the session forgets its answers
    cost = ProbeCost(monkeypatch, session.scheduler)
    placements = Placements(monkeypatch, session.scheduler)
    for probe in (PROBE, wide):
        assert session.query(probe) == twin.query(probe)
    assert cost.reserves == 0
    n_waiting = session.scheduler.queue_length
    waiting = placements.during(lambda: session.query(job_id=6))
    assert waiting == (n_waiting if name == "fcfs" else 0)
    assert session.query(job_id=6) == twin.query(job_id=6)


def test_hooks_that_start_nothing_drop_the_query_plan():
    """An early finish, an EXPIRE storm and a lone correction come while a
    12-wide head waits, and none of them starts anybody: the queue is what
    the carried plan saw, the releases are not.  Queried at every instant,
    every answer is ``legacy-easy-sjbf``'s -- a plan kept past any of these
    hooks answers from a release that moved."""
    jobs = [
        make_job(job_id=2, runtime=200.0, processors=6, requested_time=2000.0),  # ends early
        *(  # predicted to end at 500 together, corrected together
            make_job(job_id=job_id, runtime=1000.0, processors=2, requested_time=3000.0)
            for job_id in (1, 3)
        ),
        make_job(job_id=5, runtime=1400.0, processors=6, requested_time=3000.0),  # alone, at 700
        *(
            make_job(job_id=job_id, submit_time=submit, runtime=3600.0, processors=12,
                     requested_time=3600.0)
            for job_id, submit in ((4, 10.0), (6, 20.0))
        ),
    ]
    session, twin = (
        make_session(name, predictor=OddHalfPredictor, corrector=IncrementalCorrector)
        for name in ("easy-sjbf", "legacy-easy-sjbf")
    )
    session.feed(jobs)
    twin.feed(jobs)
    probes = (PROBE, make_job(job_id=10_001, runtime=50.0, processors=8))
    seen = Counter()
    while session.step() is not None:
        assert twin.step() == session.now
        queue = [r.job_id for r in session.scheduler.queue]
        if queue == [4, 6] and session.now > 20.0:  # no submission, no start: what else came
            n_corrected = session.stats.n_corrections - seen["corrections"]
            seen["corrections"] += n_corrected
            seen["storm" if n_corrected > 1 else "lone" if n_corrected else "finish"] += 1
        answers = [
            [each.query(job_id=job_id) for job_id in queue] + [each.query(p) for p in probes]
            for each in (session, twin)
        ]
        assert answers[0] == answers[1]
        assert session.scheduler._plan is not None
    assert seen["finish"] >= 1 and seen["storm"] >= 1 and seen["lone"] >= 1


@pytest.mark.parametrize("name", ["easy-sjbf", "conservative", "legacy-easy-sjbf"])
def test_the_answer_is_a_read_only_view(name):
    """What comes back may be the scheduler's own carried starts: a caller
    cannot write through it, so it cannot change a later answer."""
    session = full_machine_session(name)
    scheduler, machine = session.scheduler, session.machine
    probe = make_record(job_id=10_000, processors=3)
    for starts in (
        scheduler.estimated_starts(20.0, machine),
        scheduler.estimated_starts(20.0, machine, probe),
    ):
        with pytest.raises(TypeError):
            starts[4] = 0.0
        with pytest.raises(TypeError):
            del starts[4]
    assert dict(scheduler.estimated_starts(20.0, machine)) == {4: 1000.0, 6: 1000.0}
    assert_queries_exact(session, PROBE)


def test_a_held_head_lets_reserved_starts_fall_behind_the_clock():
    """Drained to 12 processors, a 14-wide head holds the whole queue, and
    the job behind it keeps a reservation at the instant it was made: no
    event has to fire before the clock passes it.  The next query replans."""
    session = make_session("easy-sjbf")
    session.feed(make_job(job_id=1, runtime=500.0, processors=8, requested_time=500.0))
    session.feed_machine_event(kind="drain", processors=4)
    session.feed(make_job(job_id=2, submit_time=5.0, processors=14))
    session.feed(make_job(job_id=3, submit_time=5.0, processors=2))
    session.advance_to(5.0)
    assert [r.job_id for r in session.scheduler.queue] == [2, 3]
    assert session.query(job_id=2).start_time == inf
    assert session.query(job_id=3).start_time == 5.0
    session.advance_to(50.0)
    assert session.query(job_id=3).start_time == 50.0
    assert_queries_exact(session, PROBE)
    session.feed_machine_event(kind="restore", processors=4)
    session.drain()
    assert session.record(2).start_time == 500.0


class FailsOnce(RequestedTimePredictor):
    """``on_finish`` raises for job 1."""

    def on_finish(self, record, now):
        if record.job_id == 1:
            raise OSError("model store unreachable")


def test_a_raising_predictor_leaves_the_query_plan_standing(monkeypatch):
    """``predictor.on_finish`` raises on job 1's on-time finish, after the
    scheduler was told of it: the carried plan still holds, so the next
    queries are exact and place only the probe, and after the owed pass
    and an arrival, only the arrival and the probe."""
    session = make_session("easy-sjbf", predictor=FailsOnce)
    placements = Placements(monkeypatch, session.scheduler)
    session.feed(make_job(job_id=1, runtime=100.0, processors=6, requested_time=100.0))
    session.feed(make_job(job_id=2, runtime=900.0, processors=10, requested_time=900.0))
    session.feed(make_job(job_id=3, submit_time=10.0, processors=12))
    session.feed(make_job(job_id=4, submit_time=20.0, processors=12))
    session.advance_to(20.0)
    assert placements.during(lambda: assert_queries_exact(session, PROBE)) == 2 + 1
    with pytest.raises(OSError):
        session.advance_to(100.0)
    assert placements.during(lambda: assert_queries_exact(session, PROBE)) == 1
    session.feed(make_job(job_id=5, submit_time=110.0, processors=12))
    session.advance_to(110.0)  # the owed pass, then 110's: the head cannot start
    assert placements.during(lambda: assert_queries_exact(session, PROBE)) == 1 + 1


@pytest.mark.parametrize("name", ["easy-sjbf", "conservative"])
def test_a_hand_driven_scheduler_plans_from_the_machine(name):
    """Driven without a session, a scheduler reads the running set from
    the machine: with a job started there, it answers from that job's
    predicted end and keeps the plan; told of an early finish, it drops
    it and the next answer is the machine's."""
    scheduler, machine = make_scheduler(name), Machine(16)
    machine.start(make_record(job_id=1, processors=16, predicted_runtime=100.0), 0.0)
    scheduler.on_submit(make_record(job_id=2, processors=4))
    assert scheduler.estimated_starts(0.0, machine) == {2: 100.0}
    assert scheduler._plan is not None
    scheduler.on_finish(machine.finish(1, 40.0))
    assert scheduler._plan is None
    assert scheduler.estimated_starts(40.0, machine) == {2: 40.0}
