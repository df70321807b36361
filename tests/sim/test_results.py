"""Unit tests for job records and simulation results."""

import numpy as np
import pytest

from repro.metrics.slowdown import bounded_slowdowns
from repro.sim.results import JobRecord, SimulationResult

from tests.helpers import make_job, make_record


def bsld(rec):
    """The record's bounded slowdown, through the one bsld formula."""
    return bounded_slowdowns([rec.wait_time], [rec.runtime])[0]


def finished_record(job_id=1, submit=0.0, start=10.0, runtime=100.0, processors=1):
    rec = make_record(job_id=job_id, submit_time=submit, runtime=runtime,
                      processors=processors)
    rec.start_time = start
    rec.end_time = start + runtime
    return rec


class TestJobRecord:
    def test_wait_time(self):
        rec = finished_record(submit=5.0, start=25.0)
        assert rec.wait_time == 20.0

    def test_wait_time_before_start_raises(self):
        rec = make_record()
        with pytest.raises(ValueError):
            _ = rec.wait_time

    def test_bounded_slowdown_long_job(self):
        rec = finished_record(submit=0.0, start=100.0, runtime=100.0)
        # (100 + 100) / max(100, 10) = 2
        assert bsld(rec) == pytest.approx(2.0)

    def test_bounded_slowdown_short_job_uses_tau(self):
        rec = finished_record(submit=0.0, start=0.0, runtime=1.0)
        # max((0+1)/max(1,10), 1) = 1
        assert bsld(rec) == 1.0

    def test_bounded_slowdown_floor_is_one(self):
        rec = finished_record(submit=0.0, start=0.0, runtime=5.0)
        assert bsld(rec) >= 1.0

    def test_predicted_end(self):
        rec = finished_record(start=50.0)
        rec.predicted_runtime = 30.0
        assert rec.predicted_end == 80.0


class TestSimulationResult:
    def test_requires_finished_jobs(self):
        with pytest.raises(ValueError, match="did not finish"):
            SimulationResult([make_record()], machine_processors=8)

    def test_avebsld(self):
        records = [
            finished_record(job_id=1, submit=0.0, start=0.0, runtime=100.0),
            finished_record(job_id=2, submit=0.0, start=100.0, runtime=100.0),
        ]
        result = SimulationResult(records, machine_processors=8)
        assert result.avebsld() == pytest.approx((1.0 + 2.0) / 2)

    def test_avebsld_refuses_a_negative_wait(self):
        """A start before submit is a simulation bug: the result's AVEbsld
        goes through the metrics layer's checks instead of scoring it."""
        records = [
            finished_record(job_id=1, submit=0.0, start=0.0, runtime=100.0),
            finished_record(job_id=2, submit=50.0, start=20.0, runtime=100.0),
        ]
        result = SimulationResult(records, machine_processors=8)
        with pytest.raises(ValueError, match="negative wait time"):
            result.avebsld()
        with pytest.raises(ValueError, match="negative wait time"):
            result.bounded_slowdowns()

    def test_iteration_in_submit_order(self):
        records = [
            finished_record(job_id=2, submit=50.0),
            finished_record(job_id=1, submit=0.0),
        ]
        result = SimulationResult(records, machine_processors=8)
        assert [r.job_id for r in result] == [1, 2]

    def test_utilization(self):
        records = [finished_record(job_id=1, start=0.0, runtime=100.0, processors=4)]
        result = SimulationResult(records, machine_processors=8)
        assert result.utilization() == pytest.approx(0.5)

    def test_arrays(self):
        records = [
            finished_record(job_id=1, submit=0.0, start=10.0),
            finished_record(job_id=2, submit=5.0, start=30.0),
        ]
        result = SimulationResult(records, machine_processors=8)
        assert np.allclose(result.wait_times, [10.0, 25.0])
        assert len(result.runtimes) == 2

    def test_total_corrections(self):
        rec = finished_record()
        rec.corrections = 3
        result = SimulationResult([rec], machine_processors=8)
        assert result.total_corrections() == 3


class TestJobRecordSlots:
    def test_copied_slots_equal_the_job_fields(self):
        job = make_job(job_id=7, submit_time=12.5, runtime=40.0, processors=3,
                       requested_time=90.0)
        rec = JobRecord(job=job)
        assert (rec.job_id, rec.submit_time, rec.processors, rec.requested_time) == (
            job.job_id, job.submit_time, job.processors, job.requested_time
        )
        assert rec.job is job

    def test_runtime_follows_observed_runtime(self):
        rec = make_record(runtime=100.0)
        assert rec.runtime == 100.0
        rec.observed_runtime = 70.0
        assert rec.runtime == 70.0
        rec.observed_runtime = None
        assert rec.runtime == rec.job.runtime

    def test_fed_job_is_documented_as_immutable(self):
        """The copies are taken once: the contract has to say so."""
        assert "immutable" in JobRecord.__doc__
        job = make_job(job_id=1, processors=2)
        rec = JobRecord(job=job)
        job.processors = 4
        assert rec.processors == 2

    def test_records_are_identity_objects(self):
        """Two records of one job are distinct, unequal and hashable; a
        record equals itself -- so removing one from a list is a pointer
        scan that never compares fields."""
        job = make_job(job_id=3)
        first, second = JobRecord(job=job), JobRecord(job=job)
        assert first == first and first != second
        assert len({first, second, first}) == 2
        assert {first: "a", second: "b"}[second] == "b"
        # by value the two are equal, and this would remove ``first``
        waiting = [first, second]
        waiting.remove(second)
        assert waiting == [first] and waiting[0] is first
