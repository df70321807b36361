"""Integration-grade unit tests for the simulation engine."""

import pytest

from repro.correct import IncrementalCorrector, RequestedTimeCorrector
from repro.predict import (
    ClairvoyantPredictor,
    RecentAveragePredictor,
    RequestedTimePredictor,
)
from repro.predict.base import Predictor
from repro.sched import EasyScheduler, FcfsScheduler
from repro.sim import simulate
from repro.workload import Trace

from tests.helpers import make_job


class ConstantPredictor(Predictor):
    """Test helper: always predicts the same value."""

    name = "constant"

    def __init__(self, value: float) -> None:
        self.value = value

    def predict(self, record, now):
        return self.value


class TestFigure2Scenario:
    """The paper's Figure 2: 3 jobs on 4 processors under EASY."""

    def test_easy_backfills_job3(self, tiny_trace):
        result = simulate(tiny_trace, EasyScheduler("fcfs"), ClairvoyantPredictor())
        by_id = {r.job_id: r for r in result}
        assert by_id[1].start_time == 0.0  # head starts immediately
        assert by_id[3].start_time == 0.0  # backfilled alongside
        assert by_id[2].start_time == 100.0  # waits for job 1 (and 3)

    def test_fcfs_does_not_backfill(self, tiny_trace):
        result = simulate(tiny_trace, FcfsScheduler(), ClairvoyantPredictor())
        by_id = {r.job_id: r for r in result}
        assert by_id[1].start_time == 0.0
        assert by_id[2].start_time == 100.0
        # job 3 is stuck behind job 2 without backfilling
        assert by_id[3].start_time == 100.0

    def test_long_estimate_blocks_backfill(self):
        """If job 3's prediction exceeds the backfill window and the extra
        processors, it must not be backfilled (Figure 2's discussion)."""
        jobs = [
            make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=3,
                     requested_time=100.0),
            make_job(job_id=2, submit_time=0.0, runtime=50.0, processors=4,
                     requested_time=50.0),
            make_job(job_id=3, submit_time=0.0, runtime=90.0, processors=1,
                     requested_time=500.0),
        ]
        trace = Trace(jobs, processors=4)
        # Requested-time predictions: job 3 looks like 500s > shadow (100s),
        # and job 2 needs the whole machine so extra = 0.
        result = simulate(trace, EasyScheduler("fcfs"), RequestedTimePredictor())
        by_id = {r.job_id: r for r in result}
        assert by_id[3].start_time > 0.0


class TestCorrections:
    def test_underprediction_triggers_corrections(self):
        jobs = [make_job(job_id=1, runtime=1000.0, requested_time=4000.0)]
        trace = Trace(jobs, processors=4)
        result = simulate(
            trace, EasyScheduler("fcfs"), ConstantPredictor(60.0),
            IncrementalCorrector(),
        )
        rec = result[0]
        # 60s predicted, +60 => 120, +300 => 420, +900 => 1320 > 1000: done
        assert rec.corrections == 3
        assert rec.end_time == 1000.0

    def test_requested_corrector_jumps_once(self):
        jobs = [make_job(job_id=1, runtime=1000.0, requested_time=4000.0)]
        trace = Trace(jobs, processors=4)
        result = simulate(
            trace, EasyScheduler("fcfs"), ConstantPredictor(60.0),
            RequestedTimeCorrector(),
        )
        assert result[0].corrections == 1
        assert result[0].predicted_runtime == 4000.0

    def test_clairvoyant_never_corrects(self, kth_trace):
        result = simulate(
            kth_trace, EasyScheduler("fcfs"), ClairvoyantPredictor(),
            IncrementalCorrector(),
        )
        assert result.total_corrections() == 0

    def test_missing_corrector_raises_on_underprediction(self):
        jobs = [make_job(job_id=1, runtime=1000.0, requested_time=4000.0)]
        trace = Trace(jobs, processors=4)
        with pytest.raises(RuntimeError, match="no\\s+correction mechanism"):
            simulate(trace, EasyScheduler("fcfs"), ConstantPredictor(60.0))

    def test_prediction_never_exceeds_requested(self):
        jobs = [make_job(job_id=1, runtime=3900.0, requested_time=4000.0)]
        trace = Trace(jobs, processors=4)
        result = simulate(
            trace, EasyScheduler("fcfs"), ConstantPredictor(60.0),
            IncrementalCorrector(),
        )
        assert result[0].predicted_runtime <= 4000.0


class TestEngineInvariants:
    def test_predictions_clamped_to_requested(self, tiny_trace):
        result = simulate(
            tiny_trace, EasyScheduler("fcfs"), ConstantPredictor(1e9),
        )
        for rec in result:
            assert rec.initial_prediction <= rec.requested_time

    def test_min_prediction_floor(self, tiny_trace):
        result = simulate(
            tiny_trace, EasyScheduler("fcfs"), ClairvoyantPredictor(),
            min_prediction=60.0,
        )
        for rec in result:
            # the floor applies, but the requested time still dominates
            assert rec.initial_prediction >= min(60.0, rec.requested_time)

    def test_bad_min_prediction_rejected(self, tiny_trace):
        with pytest.raises(ValueError):
            simulate(tiny_trace, EasyScheduler("fcfs"), ClairvoyantPredictor(),
                     min_prediction=0.0)

    def test_all_jobs_finish_all_waits_nonnegative(self, kth_trace):
        result = simulate(
            kth_trace, EasyScheduler("sjbf"), RecentAveragePredictor(2),
            IncrementalCorrector(),
        )
        assert len(result) == len(kth_trace)
        assert (result.wait_times >= 0).all()
        for rec in result:
            assert rec.end_time == pytest.approx(rec.start_time + rec.runtime)

    def test_stats_counters(self, kth_trace):
        stats = simulate(
            kth_trace, EasyScheduler("fcfs"), RequestedTimePredictor()
        ).stats
        assert stats.n_events >= 2 * len(kth_trace)
        assert stats.n_scheduling_passes > 0

    def test_deterministic_replay(self, kth_trace):
        r1 = simulate(kth_trace, EasyScheduler("sjbf"),
                      RecentAveragePredictor(2), IncrementalCorrector())
        r2 = simulate(kth_trace, EasyScheduler("sjbf"),
                      RecentAveragePredictor(2), IncrementalCorrector())
        assert (r1.wait_times == r2.wait_times).all()

    def test_machine_never_oversubscribed(self, kth_trace):
        """Replay the schedule and check processor conservation over time."""
        result = simulate(kth_trace, EasyScheduler("fcfs"), RequestedTimePredictor())
        events = []
        for rec in result:
            events.append((rec.start_time, rec.processors))
            events.append((rec.end_time, -rec.processors))
        events.sort()
        used = 0
        for _t, delta in events:
            used += delta
            assert 0 <= used <= kth_trace.processors
