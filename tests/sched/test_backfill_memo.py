"""EASY's backfill memo under random inputs.

A scan hands the backfill hook only the jobs submitted since the last
scan while the head, the clock, ``free``, ``shadow`` and ``extra`` have
not moved the wrong way (``EasyScheduler._memo``).  Here every pass of
``easy``, ``easy-sjbf`` and ``rl-backfill`` runs under
``tests.helpers.guard_backfill``, which checks the picks of an EASY hook
against a greedy scan of every waiting job, pass by pass, and the
schedule must be the seed's (``legacy-*``, which rescans everything):
on synthetic archive traces, and on hand-built bursts of same-instant
submits with drains, restores and external completions between them.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.correct import IncrementalCorrector
from repro.learn import LinearSoftmaxPolicy, RLBackfillScheduler
from repro.predict import RecentAveragePredictor, RequestedTimePredictor
from repro.sched import make_scheduler
from repro.sim import SimSession, simulate
from repro.workload import get_trace
from repro.workload.archive import LOG_NAMES

from tests.helpers import guard_backfill, make_job
from tests.sched.test_profile_equivalence import schedule_of

#: each scheduler and the seed's scheduler that picks as it does
#: (the ``rl-backfill`` policy's SJBF init picks as EASY-SJBF)
SCHEDULERS = {
    "easy": (lambda: make_scheduler("easy"), "legacy-easy"),
    "easy-sjbf": (lambda: make_scheduler("easy-sjbf"), "legacy-easy-sjbf"),
    "rl-backfill": (
        lambda: RLBackfillScheduler(LinearSoftmaxPolicy.sjbf_init()),
        "legacy-easy-sjbf",
    ),
}
COMPONENTS = {
    "requested": (RequestedTimePredictor, None),
    "ave2-incremental": (lambda: RecentAveragePredictor(2), IncrementalCorrector),
}
PROCESSORS = 32
#: drains never take more than this, and no job is wider than what is
#: left: no head is ever held for a restore, which the seed cannot do
MAX_DRAINED = 8

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _components(components):
    predictor, corrector = COMPONENTS[components]
    return predictor(), corrector() if corrector else None


@SETTINGS
@given(
    name=st.sampled_from(sorted(SCHEDULERS)),
    components=st.sampled_from(sorted(COMPONENTS)),
    log=st.sampled_from(LOG_NAMES),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_synthetic_traces_schedule_as_the_seed(name, components, log, seed):
    trace = get_trace(log, n_jobs=150, seed=seed)
    build, legacy = SCHEDULERS[name]
    scheduler = build()
    guard_backfill(scheduler)
    rows = schedule_of(simulate(trace, scheduler, *_components(components)))
    assert rows == schedule_of(simulate(trace, make_scheduler(legacy), *_components(components)))
    assert len(rows) == len(trace)


_GAPS = st.sampled_from([0, 1, 7, 60, 400, 3000])
_BURST = st.lists(
    st.tuples(
        st.sampled_from([1, 10, 30, 100, 600, 3000]),  # runtime
        st.sampled_from([1, 2, 5]),  # requested / runtime
        st.integers(min_value=1, max_value=PROCESSORS - MAX_DRAINED),
        st.integers(min_value=1, max_value=3),  # user
    ),
    min_size=1,
    max_size=6,
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), _GAPS, _BURST),
        st.tuples(st.sampled_from(["drain", "restore"]), _GAPS, st.integers(1, 4)),
        st.tuples(st.just("complete"), st.integers(min_value=0), st.sampled_from([0, 1, 20, 500])),
    ),
    min_size=1,
    max_size=30,
)


def drive(session: SimSession, steps) -> list[tuple]:
    """Play ``steps`` on ``session``, give back what is drained, run it out."""
    n_jobs = 0
    for kind, arg, value in steps:
        if kind == "submit":  # one instant, ids ascending
            time = session.now + arg
            burst = []
            for runtime, factor, width, user in value:
                n_jobs += 1
                burst.append(
                    make_job(
                        job_id=n_jobs,
                        submit_time=time,
                        runtime=float(runtime),
                        processors=width,
                        requested_time=float(runtime * factor),
                        user=user,
                    )
                )
            session.feed(burst)
        elif kind == "complete":
            running = sorted(record.job_id for record in session.machine.running)
            if running:
                session.complete(running[arg % len(running)], session.now + value)
        else:
            session.advance_to(session.now + arg)
            machine = session.machine
            if kind == "drain":
                room = min(machine.free, MAX_DRAINED - machine.drained)
            else:
                room = machine.drained
            if room > 0:
                event = session.feed_machine_event(kind=kind, processors=min(value, room))
                session.advance_to(event.time)
    session.advance_to(session.now)
    if session.machine.drained:
        session.feed_machine_event(kind="restore", processors=session.machine.drained)
    session.drain()
    assert not session.scheduler.queue_length
    return schedule_of(session.result())


@SETTINGS
@given(
    name=st.sampled_from(sorted(SCHEDULERS)),
    components=st.sampled_from(sorted(COMPONENTS)),
    steps=_STEPS,
)
def test_bursts_drains_and_completions_schedule_as_the_seed(name, components, steps):
    build, legacy = SCHEDULERS[name]
    scheduler = build()
    guard_backfill(scheduler)
    rows = drive(SimSession(PROCESSORS, scheduler, *_components(components)), steps)
    seed = SimSession(PROCESSORS, make_scheduler(legacy), *_components(components))
    assert rows == drive(seed, steps)


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_a_deep_burst_backfills_under_the_guard(name):
    """One fixed script that is sure to reach the memo: a wide head waits
    while narrow jobs arrive an instant at a time, a drain and a restore
    move ``free`` both ways, and an early completion moves it up."""
    steps = [
        ("submit", 0, [(3000, 1, 20, 1), (600, 2, 24, 2), (100, 1, 4, 3)]),
        ("submit", 7, [(30, 2, 2, 1), (600, 5, 3, 2)]),
        ("drain", 1, 3),
        ("submit", 60, [(10, 1, 1, 3), (10, 2, 1, 3), (3000, 1, 24, 1)]),
        ("restore", 7, 3),
        ("complete", 0, 20),
        ("submit", 1, [(100, 2, 1, 2)]),
    ]
    build, legacy = SCHEDULERS[name]
    scheduler = build()
    seen = guard_backfill(scheduler)
    components = "ave2-incremental"
    rows = drive(SimSession(PROCESSORS, scheduler, *_components(components)), steps)
    seed = SimSession(PROCESSORS, make_scheduler(legacy), *_components(components))
    assert rows == drive(seed, steps)
    assert seen["memo"] > 0 and seen["picks"] > 0
