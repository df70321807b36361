"""Schedule-equivalence: profile-based hot path vs the seed rescan.

The PR that introduced the incremental availability structures promises
*identical* schedules -- the same start time for every job -- not merely
similar metrics.  These property-style tests pin that promise on random
synthetic traces across schedulers, predictors and correction load.
"""

import pytest

from repro.correct import IncrementalCorrector
from repro.predict import (
    ClairvoyantPredictor,
    RecentAveragePredictor,
    RequestedTimePredictor,
)
from repro.sched import make_scheduler
from repro.sim import simulate
from repro.workload import get_trace

PAIRS = [
    ("easy", "legacy-easy"),
    ("easy-sjbf", "legacy-easy-sjbf"),
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


@pytest.mark.parametrize("modern,legacy", PAIRS[:2])
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
