"""Unit tests for the multifactor priority scheduler (extension)."""

import pytest

from repro.correct import IncrementalCorrector
from repro.predict import RecentAveragePredictor, RequestedTimePredictor
from repro.sched import (
    EasyScheduler,
    LegacyEasyScheduler,
    MultifactorScheduler,
    PriorityWeights,
)
from repro.sim import simulate
from repro.sim.machine import Machine
from repro.workload import get_trace

from tests.helpers import guard_backfill, make_record


class TestPriorityWeights:
    def test_defaults_are_age_only(self):
        weights = PriorityWeights()
        assert weights.age == 1.0
        assert weights.size == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PriorityWeights(age=-1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            PriorityWeights(age=0.0, size=0.0, short=0.0)


class TestMultifactorScheduler:
    def test_age_only_behaves_like_fcfs(self, kth_trace):
        """With pure age priority, the queue order is arrival order, so
        the schedule must match classic EASY exactly."""
        easy = simulate(kth_trace, EasyScheduler("fcfs"), RequestedTimePredictor())
        multi = simulate(
            kth_trace,
            MultifactorScheduler(PriorityWeights(age=1.0)),
            RequestedTimePredictor(),
        )
        assert easy.avebsld() == pytest.approx(multi.avebsld())

    def test_size_priority_prefers_narrow_head(self):
        machine = Machine(8)
        sched = MultifactorScheduler(PriorityWeights(age=0.0, size=1.0))
        # a running job leaves 2 processors free
        running = make_record(job_id=0, processors=6, predicted_runtime=1000.0)
        machine.start(running, now=0.0)
        sched.on_submit(make_record(job_id=1, submit_time=0.0, processors=8,
                                    predicted_runtime=100.0))
        sched.on_submit(make_record(job_id=2, submit_time=1.0, processors=2,
                                    predicted_runtime=100.0))
        started = sched.select_jobs(2.0, machine)
        # the narrow job outranks the wide one and starts immediately
        assert [r.job_id for r in started] == [2]

    def test_short_priority_prefers_short_predicted_head(self):
        machine = Machine(8)
        sched = MultifactorScheduler(PriorityWeights(age=0.0, short=1.0))
        running = make_record(job_id=0, processors=6, predicted_runtime=1000.0)
        machine.start(running, now=0.0)
        sched.on_submit(make_record(job_id=1, submit_time=0.0, processors=2,
                                    predicted_runtime=5000.0))
        sched.on_submit(make_record(job_id=2, submit_time=1.0, processors=2,
                                    predicted_runtime=50.0))
        started = sched.select_jobs(2.0, machine)
        assert started and started[0].job_id == 2

    def test_runs_full_trace(self, kth_trace):
        result = simulate(
            kth_trace,
            MultifactorScheduler(PriorityWeights(age=1.0, size=0.5, short=0.5),
                                 backfill_order="sjbf"),
            RequestedTimePredictor(),
        )
        assert len(result) == len(kth_trace)
        assert (result.wait_times >= 0).all()

    def test_registry(self):
        from repro.sched import make_scheduler

        sched = make_scheduler("multifactor-sjbf")
        assert isinstance(sched, MultifactorScheduler)
        assert sched.backfill_order == "sjbf"


class RankedPerRecord(LegacyEasyScheduler):
    """The twin: the multifactor re-rank as written down in the module
    docstring, both maxima recomputed over the whole queue for every
    record ranked, in front of the frozen per-pass-sort EASY -- no queue
    code shared with the scheduler under test.  It ranks over a *copy* of
    the queue: CPython detaches a list's items while ``list.sort`` runs,
    so a key function that reads the list being sorted sees it empty."""

    def __init__(self, weights, backfill_order):
        super().__init__(backfill_order)
        self.weights = weights

    def _priority(self, record, now, machine, waiting):
        longest_wait = max(now - r.submit_time for r in waiting)
        age = (now - record.submit_time) / longest_wait if longest_wait > 0 else 0.0
        size = 1.0 - record.processors / machine.processors
        longest_pred = max(r.predicted_runtime for r in waiting)
        short = 1.0 - record.predicted_runtime / longest_pred if longest_pred > 0 else 0.0
        w = self.weights
        return w.age * age + w.size * size + w.short * short

    def select_jobs(self, now, machine):
        waiting = tuple(self._queue)
        self._queue.sort(
            key=lambda r: (-self._priority(r, now, machine, waiting), r.submit_time, r.job_id)
        )
        return super().select_jobs(now, machine)


def _rows(result):
    return sorted((r.job_id, r.start_time, r.end_time, r.corrections) for r in result)


@pytest.mark.parametrize("order", ["fcfs", "sjbf"])
@pytest.mark.parametrize(
    "weights",
    [PriorityWeights(), PriorityWeights(age=1.0, size=2.0, short=0.5),
     PriorityWeights(age=0.0, size=1.0, short=1.0)],
    ids=["age", "age-size-short", "size-short"],
)
def test_schedule_equals_the_per_record_rerank(order, weights):
    """One pair of maxima per pass gives the floats, the ranking and the
    schedule of one pair per record; with size/short weights the head is
    a job from the middle of the backfill order, not its first."""
    trace = get_trace("CTC-SP2", n_jobs=300, seed=7)
    modern = MultifactorScheduler(weights, backfill_order=order)
    seen = guard_backfill(modern)
    new, old = (
        simulate(trace, scheduler, RecentAveragePredictor(2), IncrementalCorrector())
        for scheduler in (modern, RankedPerRecord(weights, order))
    )
    assert _rows(new) == _rows(old)
    assert seen["picks"] > 0 and new.total_corrections() > 0
    assert new.stats.max_queue_length == old.stats.max_queue_length >= 10
    # what the registry builds (age only): oldest first is arrival order
    plain = simulate(
        trace, LegacyEasyScheduler(order), RecentAveragePredictor(2), IncrementalCorrector()
    )
    assert (_rows(new) == _rows(plain)) == (weights == PriorityWeights())
