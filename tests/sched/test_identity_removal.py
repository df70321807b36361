"""A started job leaves the waiting lists by identity, and only it.

Every EASY-family and conservative pass is spied on: afterwards
``_queue`` and the second waiting list, ``_ordered``, must be what they
were minus the records the pass started, in the same order, compared by
identity -- whatever order an instant was fed in.
The same sessions are held to the frozen ``legacy-*`` oracle where one
exists.
"""

from contextlib import contextmanager
from operator import is_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.correct import IncrementalCorrector
from repro.learn import LinearSoftmaxPolicy, RLBackfillScheduler
from repro.predict import RecentAveragePredictor
from repro.sched import ConservativeScheduler, EasyScheduler, make_scheduler
from repro.sched.ordering import fcfs_key
from repro.sim import SimSession

from tests.helpers import make_job

PROCESSORS = 16

SCHEDULERS = {
    "easy": "legacy-easy",
    "easy-sjbf": "legacy-easy-sjbf",
    "rl-backfill": None,
    "conservative": "legacy-conservative",
    "conservative-sjbf": "legacy-conservative-sjbf",
}


def build(name):
    if name == "rl-backfill":
        return RLBackfillScheduler(LinearSoftmaxPolicy.sjbf_init())
    return make_scheduler(name)


def _spying(select, seen):
    def select_jobs(self, now, machine):
        before = list(self._queue), list(self._ordered)
        started = select(self, now, machine)
        gone = {id(record) for record in started}
        assert len(gone) == len(started), "a record started twice"
        assert gone <= {id(record) for record in before[0]}, "started a job not waiting"
        for old, new in zip(before, (self._queue, self._ordered), strict=True):
            kept = [record for record in old if id(record) not in gone]
            assert len(new) == len(kept) and all(map(is_, new, kept))
        seen["passes"] += 1
        seen["started"] += len(started)
        return started

    return select_jobs


@contextmanager
def removal_spy():
    """Check every EASY-family / conservative pass run inside the block;
    yields the live ``{"passes", "started"}`` tally.  Patched on the
    classes, so an ``rl-backfill`` pass is checked too."""
    seen = {"passes": 0, "started": 0}
    with pytest.MonkeyPatch.context() as patch:
        for cls in (EasyScheduler, ConservativeScheduler):
            patch.setattr(cls, "select_jobs", _spying(cls.select_jobs, seen))
        yield seen


def session_of(name):
    """AVE2 + incremental: corrections land between the passes."""
    return SimSession(PROCESSORS, build(name), RecentAveragePredictor(2), IncrementalCorrector())


def run(name, jobs):
    """A live session fed ``jobs`` in the order given; its schedule."""
    session = session_of(name)
    session.feed(jobs)
    session.drain()
    return sorted((r.job_id, r.start_time, r.end_time, r.corrections) for r in session.result())


@st.composite
def instants(draw):
    """Jobs in groups sharing a submit time, each group fed in a drawn
    order (so arrival order and ``fcfs_key`` order disagree)."""
    now, jobs = 0.0, []
    for _ in range(draw(st.integers(1, 8))):
        now += draw(st.sampled_from([1.0, 30.0, 200.0, 900.0]))
        ids = range(len(jobs) + 1, len(jobs) + 1 + draw(st.integers(1, 7)))
        for job_id in draw(st.permutations(ids)):
            runtime = float(draw(st.sampled_from([20, 90, 400, 1500])))
            jobs.append(
                make_job(
                    job_id=job_id,
                    submit_time=now,
                    runtime=runtime,
                    processors=draw(st.integers(1, PROCESSORS)),
                    requested_time=runtime * draw(st.sampled_from([1, 2, 5])),
                    user=draw(st.integers(1, 3)),
                )
            )
    return jobs


@pytest.mark.parametrize("name", SCHEDULERS)
@settings(max_examples=25, deadline=None)
@given(jobs=instants())
def test_a_pass_removes_exactly_what_it_started(name, jobs):
    with removal_spy() as seen:
        schedule = run(name, jobs)
    assert seen["started"] == len(jobs)
    if SCHEDULERS[name]:
        assert schedule == run(SCHEDULERS[name], jobs)


def decreasing_ids(n_instants=10, per_instant=12):
    """Flurries of same-submit-time jobs fed in *decreasing* id order: the
    queue holds them newest-id first, ``fcfs_key`` oldest-id first."""
    jobs = []
    for instant in range(n_instants):
        first = instant * per_instant + 1
        for job_id in reversed(range(first, first + per_instant)):
            runtime = float(100 + 97 * (job_id % 7))
            jobs.append(
                make_job(
                    job_id=job_id,
                    submit_time=600.0 * instant,
                    runtime=runtime,
                    processors=1 + (job_id * 5) % 9,
                    requested_time=runtime * (1 + job_id % 3),
                    user=1 + job_id % 3,
                )
            )
    return jobs


@pytest.mark.parametrize("name", SCHEDULERS)
def test_same_instant_fed_in_decreasing_id_order(name):
    """Key order and arrival order differ here, so removing a started job
    by a key bisect of ``_queue`` would take the wrong one; removal by
    identity takes the started record and keeps everyone else's order."""
    jobs = decreasing_ids()
    session = session_of(name)
    session.feed(jobs)
    session.advance_to(0.0)
    queue = session.scheduler.queue
    assert len(queue) >= 2
    assert list(queue) != sorted(queue, key=fcfs_key)
    with removal_spy() as seen:
        schedule = run(name, jobs)
    assert seen["started"] == len(jobs) and seen["passes"] > len(jobs) // 2
    if SCHEDULERS[name]:
        assert schedule == run(SCHEDULERS[name], jobs)
