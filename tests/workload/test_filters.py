"""Unit tests for trace cleaning filters."""

import pytest

from repro.workload import Trace
from repro.workload.filters import (
    clamp_requested,
    drop_flurries,
    drop_status,
    standard_clean,
)

from tests.helpers import make_job


@pytest.fixture
def mixed_trace():
    jobs = [
        make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=4),
        make_job(job_id=2, submit_time=10.0, runtime=100.0, processors=8, status=5),
        make_job(job_id=3, submit_time=20.0, runtime=5000.0, processors=2,
                 requested_time=20000.0),
        make_job(job_id=4, submit_time=4000.0, runtime=50.0, processors=1),
    ]
    return Trace(jobs, processors=8)


class TestBasicFilters:
    def test_drop_status_removes_cancelled(self, mixed_trace):
        cleaned = drop_status(mixed_trace)
        assert all(j.status != 5 for j in cleaned)
        assert len(cleaned) == 3

    def test_clamp_requested(self, mixed_trace):
        cleaned = clamp_requested(mixed_trace, max_seconds=10000.0)
        job3 = next(j for j in cleaned if j.job_id == 3)
        assert job3.requested_time == 10000.0
        assert job3.runtime == 5000.0

    def test_clamp_requested_clamps_runtime_too(self, mixed_trace):
        cleaned = clamp_requested(mixed_trace, max_seconds=1000.0)
        job3 = next(j for j in cleaned if j.job_id == 3)
        assert job3.requested_time == 1000.0
        assert job3.runtime == 1000.0

    def test_clamp_requested_rejects_nonpositive(self, mixed_trace):
        with pytest.raises(ValueError):
            clamp_requested(mixed_trace, 0.0)


class TestFlurries:
    def test_flurry_removed(self):
        # one user submitting 200 jobs in a minute is a flurry
        flurry = [
            make_job(job_id=i, submit_time=float(i) * 0.2, user=1)
            for i in range(1, 201)
        ]
        normal = [
            make_job(job_id=1000 + i, submit_time=float(i) * 400.0, user=2)
            for i in range(10)
        ]
        trace = Trace(flurry + normal, processors=8)
        cleaned = drop_flurries(trace, user_jobs_per_hour=100.0)
        kept_user1 = sum(1 for j in cleaned if j.user == 1)
        assert kept_user1 == 100  # rate-capped
        assert sum(1 for j in cleaned if j.user == 2) == 10

    def test_normal_rate_untouched(self, mixed_trace):
        assert len(drop_flurries(mixed_trace)) == len(mixed_trace)

    def test_rejects_nonpositive_rate(self, mixed_trace):
        with pytest.raises(ValueError):
            drop_flurries(mixed_trace, user_jobs_per_hour=0.0)


class TestStandardClean:
    def test_pipeline_runs(self, mixed_trace):
        cleaned = standard_clean(mixed_trace, max_requested_seconds=10000.0)
        assert len(cleaned) == 3  # cancelled job dropped
        assert cleaned[0].submit_time == 0.0
        assert all(j.requested_time <= 10000.0 for j in cleaned)
