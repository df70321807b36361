"""Failure-injection and edge-case tests for the engine."""

import math

import pytest

from repro.correct import (
    Corrector,
    IncrementalCorrector,
    RecursiveDoublingCorrector,
    RequestedTimeCorrector,
    make_corrector,
)
from repro.metrics import average_bounded_slowdown
from repro.obs import Telemetry
from repro.predict import ClairvoyantPredictor, make_predictor
from repro.predict.base import Predictor
from repro.sched import EasyScheduler, make_scheduler
from repro.sim import SimSession, simulate
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


class TestRequestedBelowRuntime:
    """A job that outlives its requested time (ROADMAP 6(a)).  ``Job``
    refuses one by name when it is built; one that gets past that -- a
    field assigned afterwards, or inside ``validate_job``'s 1e-9 relative
    tolerance -- has no prediction the cap allows that covers it, and every
    correction at the cap would expire again in the same instant, forever."""

    CORRECTORS = ("requested", "incremental", "doubling")

    def test_a_job_is_refused_by_name_when_it_is_built(self):
        with pytest.raises(ValueError, match="job 7: runtime 200.0 exceeds requested_time 100.0"):
            make_job(job_id=7, runtime=200.0, requested_time=100.0)

    @pytest.mark.parametrize("corrector", CORRECTORS)
    @pytest.mark.parametrize("telemetry", [None, "on"])
    @pytest.mark.parametrize("runtime", [500.0, 100.0 * (1 + 5e-10)])
    def test_the_run_ends_in_a_named_error_not_in_a_loop(self, corrector, telemetry, runtime):
        job = make_job(job_id=7, runtime=runtime, requested_time=1000.0)
        job.requested_time = 100.0  # behind ``Job.__post_init__``'s back
        other = make_job(job_id=8, submit_time=5.0, runtime=50.0, requested_time=60.0)
        tele = Telemetry(component="test") if telemetry else None
        session = SimSession(
            4, make_scheduler("easy-sjbf"), make_predictor("ave2"), make_corrector(corrector),
            telemetry=tele,
        )
        session.feed([job, other])
        with pytest.raises(ValueError, match="job 7 outlives its requested time"):
            session.drain()
        # refused before the record was touched: no prediction is past the cap
        record = session.record(7)
        assert record.predicted_runtime <= 100.0
        assert record.corrections == session.stats.n_corrections  # counted as each landed
        assert session.now <= 100.0
        # the failing EXPIRE is consumed like any failing event: the session goes on,
        # the job ends when it ends and nothing was corrected past the cap
        session.drain()
        assert session.record(7).end_time == runtime and session.record(8).finished
        assert session.record(7).predicted_runtime <= 100.0
        assert session.stats.n_corrections == session.result().total_corrections()
        if tele is not None:
            assert tele.counter_value("engine.sched.passes") == session.stats.n_scheduling_passes
            storms = tele.histogram("engine.expire_storm.size")
            assert (storms.total if storms else 0) == session.stats.n_corrections

    @pytest.mark.parametrize("corrector", CORRECTORS)
    def test_requested_equal_to_runtime_still_finishes(self, corrector):
        """The boundary on the legal side: corrected up to the cap, the
        FINISH at the cap wins over another EXPIRE."""
        jobs = [make_job(job_id=1, runtime=4000.0, requested_time=4000.0, user=3)]
        result = simulate(
            Trace(jobs, processors=4), make_scheduler("easy"), ConstantPredictor(60.0),
            make_corrector(corrector),
        )
        assert result[0].end_time == 4000.0 and 1 <= result[0].corrections
        assert result[0].predicted_runtime == 4000.0
        assert result.stats.n_corrections == result[0].corrections


class NonFiniteCorrector(Corrector):
    name = "broken"

    def __init__(self, value: float) -> None:
        self.value = value

    def correct(self, record, now):
        return self.value


class TestNonFiniteCorrection:
    """A corrector that returns NaN or inf is refused by name, like a
    predictor that does: ``max`` keeps a leading NaN, so the floor alone
    would hand it to the scheduler."""

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "scheduler",
        ["easy", "easy-sjbf", "conservative", "legacy-easy", "legacy-conservative"],
    )
    def test_the_run_ends_in_a_named_error(self, scheduler, value):
        session = SimSession(
            4, make_scheduler(scheduler), ConstantPredictor(10.0), NonFiniteCorrector(value)
        )
        session.feed([
            make_job(job_id=1, runtime=100.0, processors=4, requested_time=1000.0),
            make_job(job_id=2, submit_time=1.0, runtime=50.0, processors=2),
            make_job(job_id=3, submit_time=2.0, runtime=50.0, processors=4),
        ])
        with pytest.raises(
            ValueError,
            match="corrector 'broken' returned a non-finite prediction for job 1",
        ):
            session.drain()
        record = session.record(1)  # refused before the record was touched
        assert (record.predicted_runtime, record.corrections) == (record.initial_prediction, 0)


class NonFiniteEstimate(ConstantPredictor):
    """Predicts a sane 10 s at submission; its pure probe estimate is ``value``."""

    name = "broken-estimate"

    def predict(self, record, now):
        return 10.0

    def estimate(self, record, now):
        return self.value


class TestNonFiniteProbeEstimate:
    """A hypothetical query whose predictor estimates NaN or inf is refused
    by name, as a submission is: ``max(nan, floor)`` is NaN, and a fit of a
    NaN duration would answer a number."""

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("scheduler", ["easy", "easy-sjbf", "conservative"])
    def test_the_query_ends_in_a_named_error(self, scheduler, value):
        session = SimSession(4, make_scheduler(scheduler), NonFiniteEstimate(value))
        session.feed([
            make_job(job_id=1, runtime=200.0, processors=4, requested_time=1000.0),
            make_job(job_id=2, submit_time=1.0, runtime=50.0, processors=2),
        ])
        session.advance_to(5.0)
        before = session.query(job_id=2)
        with pytest.raises(
            ValueError,
            match="predictor 'broken-estimate' returned a non-finite prediction for job 9",
        ):
            session.query(make_job(job_id=9, submit_time=5.0, runtime=50.0, processors=2))
        assert session.query(job_id=2) == before


class TestDegenerateTraces:
    """Empty, one-job and single-user traces through ``simulate``, with
    telemetry on and off: finite metrics or a named error (ROADMAP 6(a))."""

    TRIPLES = (
        ("easy-sjbf", "ave2", "incremental"),
        ("conservative", "requested", None),
        ("easy", "ml:sq-lin-large-area", "doubling"),
    )

    @staticmethod
    def _run(jobs, triple, telemetry):
        scheduler, predictor, corrector = triple
        return simulate(
            Trace(jobs, processors=8),
            make_scheduler(scheduler),
            make_predictor(predictor),
            make_corrector(corrector) if corrector else None,
            telemetry=telemetry,
        )

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_an_empty_trace_runs_folds_nothing_and_has_no_avebsld(self, triple):
        for tele in (None, Telemetry(component="test")):
            result = self._run([], triple, tele)
            assert len(result) == 0
            assert result.stats.n_events == result.stats.n_scheduling_passes == 0
            assert result.utilization() == 0.0 and result.total_corrections() == 0
            with pytest.raises(ValueError, match="no finished job"):
                result.avebsld()
            with pytest.raises(ValueError, match="no finished job"):
                average_bounded_slowdown(result)
            if tele is not None:
                assert tele.snapshot() == {"component": "test", "counters": {}, "histograms": {}}

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_one_job(self, triple):
        jobs = [make_job(job_id=1, submit_time=30.0, runtime=500.0, requested_time=2000.0)]
        plain = self._run(jobs, triple, None)
        tele = Telemetry(component="test")
        observed = self._run(jobs, triple, tele)
        for result in (plain, observed):
            assert (result[0].start_time, result[0].end_time) == (30.0, 530.0)
            assert result.avebsld() == average_bounded_slowdown(result) == 1.0
            assert result.utilization() == pytest.approx(1 / 8)
        assert observed[0].corrections == plain[0].corrections
        snap = tele.snapshot()
        assert snap["counters"]["engine.sched.jobs_started"] == 1
        assert snap["counters"]["engine.sched.passes"] == observed.stats.n_scheduling_passes
        # the first pass is the sampled one: the job is still in the queue
        assert snap["histograms"]["engine.sched.queue_length"]["count"] == 1
        assert snap["histograms"]["engine.sched.queue_length"]["max"] == 1

    @pytest.mark.parametrize("triple", TRIPLES)
    def test_a_single_user(self, triple):
        """Every per-user statistic of every predictor has one user to
        learn from; some jobs underrun their prediction, some overrun."""
        jobs = [
            make_job(
                job_id=i, submit_time=40.0 * i, runtime=float(30 + 170 * (i % 5)),
                processors=1 + i % 4, requested_time=3600.0, user=1,
            )
            for i in range(1, 41)
        ]
        plain = self._run(jobs, triple, None)
        tele = Telemetry(component="test")
        observed = self._run(jobs, triple, tele)
        rows = [(r.job_id, r.start_time, r.end_time, r.corrections) for r in plain]
        assert rows == [(r.job_id, r.start_time, r.end_time, r.corrections) for r in observed]
        assert len(plain) == 40 and math.isfinite(plain.avebsld()) and plain.avebsld() >= 1.0
        assert 0.0 < plain.utilization() <= 1.0
        assert all(r.predicted_runtime <= r.requested_time for r in plain)
        assert tele.counter_value("predict.finished") == 40
        assert tele.counter_value("engine.events.expire") >= plain.stats.n_corrections
        passes = tele.counter_value("engine.sched.passes")
        assert tele.histogram("engine.sched.queue_length").count == math.ceil(passes / 16)


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
