"""Failure-injection and edge-case tests for the engine."""

import pytest

from repro.correct import (
    IncrementalCorrector,
    RecursiveDoublingCorrector,
    RequestedTimeCorrector,
)
from repro.predict import ClairvoyantPredictor
from repro.predict.base import Predictor
from repro.sched import EasyScheduler
from repro.sim import simulate
from repro.workload import Trace

from tests.helpers import make_job


class ConstantPredictor(Predictor):
    name = "constant"

    def __init__(self, value: float) -> None:
        self.value = value

    def predict(self, record, now):
        return self.value


class ChattyPredictor(Predictor):
    """Counts its hook invocations (protocol-contract check)."""

    name = "chatty"

    def __init__(self) -> None:
        self.predicted = []
        self.started = []
        self.finished = []

    def predict(self, record, now):
        self.predicted.append(record.job_id)
        return record.requested_time

    def on_start(self, record, now):
        self.started.append(record.job_id)

    def on_finish(self, record, now):
        self.finished.append(record.job_id)


class TestKillBoundary:
    def test_job_running_exactly_to_requested(self):
        """runtime == requested: the FINISH event must win over EXPIRE."""
        jobs = [make_job(job_id=1, runtime=1000.0, requested_time=1000.0)]
        trace = Trace(jobs, processors=4)
        result = simulate(
            trace, EasyScheduler("fcfs"), ConstantPredictor(1000.0),
            IncrementalCorrector(),
        )
        assert result[0].corrections == 0
        assert result[0].end_time == 1000.0

    def test_underpredicted_job_hitting_requested(self):
        """Corrections must converge below/at the requested bound even when
        the job runs its full request."""
        jobs = [make_job(job_id=1, runtime=4000.0, requested_time=4000.0)]
        trace = Trace(jobs, processors=4)
        for corrector in (IncrementalCorrector(), RecursiveDoublingCorrector(),
                          RequestedTimeCorrector()):
            result = simulate(
                trace, EasyScheduler("fcfs"), ConstantPredictor(60.0), corrector
            )
            rec = result[0]
            assert rec.end_time == 4000.0
            assert rec.predicted_runtime <= 4000.0
            assert rec.corrections >= 1


class TestPredictorContract:
    def test_hooks_called_once_per_job_in_order(self, tiny_trace):
        predictor = ChattyPredictor()
        simulate(tiny_trace, EasyScheduler("fcfs"), predictor)
        assert sorted(predictor.predicted) == [1, 2, 3]
        assert sorted(predictor.started) == [1, 2, 3]
        assert sorted(predictor.finished) == [1, 2, 3]

    def test_nonfinite_prediction_rejected(self, tiny_trace):
        class NanPredictor(Predictor):
            name = "nan"

            def predict(self, record, now):
                return float("nan")

        with pytest.raises(ValueError):
            simulate(tiny_trace, EasyScheduler("fcfs"), NanPredictor())


class TestSimultaneousEvents:
    def test_mass_simultaneous_submission(self):
        """A thousand jobs at t=0 must schedule without pathologies."""
        jobs = [
            make_job(job_id=i, submit_time=0.0, runtime=60.0 + i % 7,
                     processors=1 + i % 4, requested_time=600.0)
            for i in range(1, 301)
        ]
        trace = Trace(jobs, processors=16)
        result = simulate(trace, EasyScheduler("sjbf"), ClairvoyantPredictor())
        assert len(result) == 300
        assert (result.wait_times >= 0).all()

    def test_finish_and_submit_same_instant(self):
        """A job submitted exactly when another finishes must see the
        freed processors (FINISH processed before SUBMIT)."""
        jobs = [
            make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=4,
                     requested_time=100.0),
            make_job(job_id=2, submit_time=100.0, runtime=50.0, processors=4,
                     requested_time=50.0),
        ]
        trace = Trace(jobs, processors=4)
        result = simulate(trace, EasyScheduler("fcfs"), ClairvoyantPredictor())
        by_id = {r.job_id: r for r in result}
        assert by_id[2].start_time == 100.0  # no artificial delay


class TestEngineStatsAccuracy:
    def test_event_count_lower_bound(self, tiny_trace):
        result = simulate(tiny_trace, EasyScheduler("fcfs"), ClairvoyantPredictor())
        # 3 submits + 3 finishes minimum
        assert result.stats.n_events >= 6

    def test_correction_count_matches_records(self):
        jobs = [
            make_job(job_id=i, runtime=2000.0, requested_time=40000.0)
            for i in (1, 2)
        ]
        trace = Trace(jobs, processors=8)
        result = simulate(
            trace, EasyScheduler("fcfs"), ConstantPredictor(60.0),
            IncrementalCorrector(),
        )
        assert result.stats.n_corrections == result.total_corrections()
        assert result.stats.n_corrections > 0
