"""Schedule-equivalence: profile-based hot path vs the seed rescan.

The PR that introduced the incremental availability structures promises
*identical* schedules -- the same start time for every job -- not merely
similar metrics.  These property-style tests pin that promise on random
synthetic traces across schedulers, predictors and correction load.
"""

import random

import pytest

from repro.correct import IncrementalCorrector
from repro.learn import LinearSoftmaxPolicy, RLBackfillScheduler
from repro.predict import (
    ClairvoyantPredictor,
    RecentAveragePredictor,
    RequestedTimePredictor,
)
from repro.sched import make_scheduler
from repro.sim import SimSession, simulate
from repro.workload import get_trace
from tests.helpers import guard_backfill, make_job

EASY_PAIRS = [
    ("easy", "legacy-easy"),
    ("easy-sjbf", "legacy-easy-sjbf"),
]
PAIRS = [
    *EASY_PAIRS,
    ("conservative", "legacy-conservative"),
    ("conservative-sjbf", "legacy-conservative-sjbf"),
]


def schedule_of(result):
    """The full per-job schedule, as comparable tuples."""
    return sorted(
        (r.job_id, r.start_time, r.end_time, r.corrections) for r in result
    )


def run_pair(trace, modern, legacy, predictor_factory, corrector_factory):
    new = simulate(
        trace, make_scheduler(modern), predictor_factory(),
        corrector_factory() if corrector_factory else None,
    )
    old = simulate(
        trace, make_scheduler(legacy), predictor_factory(),
        corrector_factory() if corrector_factory else None,
    )
    return new, old


@pytest.mark.parametrize("modern,legacy", PAIRS)
@pytest.mark.parametrize("seed", [11, 42])
def test_requested_time_schedules_identical(modern, legacy, seed):
    """No corrections: the pure reservation/backfill logic must agree."""
    trace = get_trace("KTH-SP2", n_jobs=300, seed=seed)
    new, old = run_pair(trace, modern, legacy, RequestedTimePredictor, None)
    assert schedule_of(new) == schedule_of(old)


@pytest.mark.parametrize("modern,legacy", PAIRS)
def test_correction_heavy_schedules_identical(modern, legacy):
    """AVE2 under-predicts constantly: every EXPIRE exercises the
    incremental correction delta against the seed's full rescan."""
    trace = get_trace("CTC-SP2", n_jobs=300, seed=7)
    new, old = run_pair(
        trace, modern, legacy,
        lambda: RecentAveragePredictor(2), IncrementalCorrector,
    )
    assert new.total_corrections() > 0
    assert schedule_of(new) == schedule_of(old)


@pytest.mark.parametrize("modern,legacy", EASY_PAIRS)
def test_clairvoyant_schedules_identical(modern, legacy):
    """Exact predictions: finishes land exactly on predicted ends, the
    trickiest tie-handling for the release table."""
    trace = get_trace("KTH-SP2", n_jobs=300, seed=3)
    new, old = run_pair(trace, modern, legacy, ClairvoyantPredictor, None)
    assert schedule_of(new) == schedule_of(old)


@pytest.mark.parametrize("modern,legacy", PAIRS)
def test_engine_stats_match(modern, legacy):
    """Same schedules imply the same pass/correction counters."""
    trace = get_trace("KTH-SP2", n_jobs=200, seed=5)
    new = simulate(
        trace, make_scheduler(modern),
        RecentAveragePredictor(2), IncrementalCorrector(),
    )
    old = simulate(
        trace, make_scheduler(legacy),
        RecentAveragePredictor(2), IncrementalCorrector(),
    )
    assert schedule_of(new) == schedule_of(old)
    assert new.stats.n_corrections == old.stats.n_corrections
    assert new.stats.max_queue_length == old.stats.max_queue_length


def shuffled_instants(seed, n_jobs=400, processors=16):
    """Several jobs per instant, fed with the ids of each instant
    shuffled: the queue (feed order) and ``fcfs_key`` (submit, id) then
    disagree on who came first, and ``Trace`` would sort that away."""
    rng = random.Random(seed)
    now, jobs = 0.0, []
    while len(jobs) < n_jobs:
        now += rng.choice([1, 30, 200, 900])
        ids = list(range(len(jobs) + 1, len(jobs) + 1 + rng.randint(2, 6)))
        rng.shuffle(ids)
        for job_id in ids:
            runtime = float(rng.choice([20, 90, 400, 400, 1500]))
            jobs.append(
                make_job(
                    job_id=job_id,
                    submit_time=now,
                    runtime=runtime,
                    processors=rng.randint(1, 10),
                    requested_time=runtime * rng.choice([1, 2, 5]),
                    user=rng.randint(1, 4),
                )
            )
    return jobs, processors


@pytest.mark.parametrize("modern,legacy", EASY_PAIRS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_feed_order_within_an_instant_is_not_the_backfill_order(modern, legacy, seed):
    """The backfill order is the key's, whatever order an instant was fed
    in -- under every order, FCFS included -- while the head is the
    queue's.  AVE2 + incremental: corrections land between the passes."""
    jobs, processors = shuffled_instants(seed)
    schedules = []
    for name in (modern, legacy):
        session = SimSession(
            processors, make_scheduler(name), RecentAveragePredictor(2), IncrementalCorrector()
        )
        session.feed(jobs)
        session.drain()
        schedules.append(schedule_of(session.result()))
        assert session.stats.max_queue_length >= 10
        assert session.stats.n_corrections > 0
    assert schedules[0] == schedules[1]


GUARDED = {
    "easy": lambda: make_scheduler("easy"),
    "easy-sjbf": lambda: make_scheduler("easy-sjbf"),
    "rl-backfill": lambda: RLBackfillScheduler(LinearSoftmaxPolicy.sjbf_init()),
}
TRACES = {
    "requested": ("KTH-SP2", 11, RequestedTimePredictor, None),
    "ave2-incremental": ("CTC-SP2", 7, lambda: RecentAveragePredictor(2), IncrementalCorrector),
    "clairvoyant": ("KTH-SP2", 3, ClairvoyantPredictor, None),
}


@pytest.mark.parametrize("scheduler", GUARDED)
@pytest.mark.parametrize("components", TRACES)
def test_no_backfill_delays_the_head(scheduler, components):
    """EASY's guarantee, pick by pick, on the equivalence traces -- with
    no oracle: every backfilled job fits what is free when it is picked
    and ends by the shadow or fits what is left of the extra processors."""
    log, seed, predictor, corrector = TRACES[components]
    guarded = GUARDED[scheduler]()
    seen = guard_backfill(guarded)
    result = simulate(
        get_trace(log, n_jobs=300, seed=seed),
        guarded, predictor(), corrector() if corrector else None,
    )
    assert len(result) == 300
    assert seen["picks"] > 0
