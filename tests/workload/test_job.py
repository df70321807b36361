"""Unit tests for the job model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workload import Job

from tests.helpers import make_job


class TestJobValidation:
    def test_valid_job_constructs(self):
        job = make_job()
        assert job.job_id == 1
        assert job.runtime == 100.0

    def test_zero_processors_rejected(self):
        with pytest.raises(ValueError, match="processors"):
            make_job(processors=0)

    def test_negative_processors_rejected(self):
        with pytest.raises(ValueError, match="processors"):
            make_job(processors=-4)

    def test_negative_submit_time_rejected(self):
        with pytest.raises(ValueError, match="submit_time"):
            make_job(submit_time=-1.0)

    def test_zero_runtime_rejected(self):
        with pytest.raises(ValueError, match="runtime"):
            make_job(runtime=0.0)

    def test_zero_requested_rejected(self):
        with pytest.raises(ValueError, match="requested_time"):
            make_job(requested_time=0.0)

    def test_runtime_above_requested_rejected(self):
        # jobs are killed at the requested time, so this is inconsistent
        with pytest.raises(ValueError, match="exceeds requested_time"):
            make_job(runtime=200.0, requested_time=100.0)

    @pytest.mark.parametrize("field", ["submit_time", "runtime", "requested_time", "processors"])
    def test_nan_is_refused_by_the_field_that_carries_it(self, field):
        """``nan < 0`` and ``nan <= 0`` are false: a check spelled that way
        waves a NaN through, all three times at once included."""
        with pytest.raises(ValueError, match=f"job 7: {field} must be .* got nan"):
            make_job(job_id=7, **{field: float("nan")})
        nan = float("nan")
        with pytest.raises(ValueError, match="job 7: submit_time"):
            Job(job_id=7, submit_time=nan, runtime=nan, processors=1, requested_time=nan)

    def test_runtime_equal_requested_allowed(self):
        job = make_job(runtime=100.0, requested_time=100.0)
        assert job.runtime == job.requested_time


class TestJobDerived:
    def test_area(self):
        job = make_job(runtime=100.0, processors=4)
        assert job.area == 400.0

    def test_overestimation_factor(self):
        job = make_job(runtime=100.0, requested_time=250.0)
        assert job.overestimation_factor == pytest.approx(2.5)

    def test_with_updates_returns_new_object(self):
        job = make_job()
        moved = job.with_updates(submit_time=50.0)
        assert moved.submit_time == 50.0
        assert job.submit_time == 0.0
        assert moved.job_id == job.job_id

    def test_with_updates_validates(self):
        job = make_job(runtime=100.0, requested_time=100.0)
        with pytest.raises(ValueError):
            job.with_updates(runtime=500.0)


@given(
    runtime=st.floats(min_value=1.0, max_value=1e6),
    factor=st.floats(min_value=1.0, max_value=100.0),
    processors=st.integers(min_value=1, max_value=100_000),
)
def test_job_invariants_hold_for_any_valid_job(runtime, factor, processors):
    job = Job(
        job_id=1,
        submit_time=0.0,
        runtime=runtime,
        processors=processors,
        requested_time=runtime * factor,
    )
    assert job.runtime <= job.requested_time * (1 + 1e-9)
    assert job.area == pytest.approx(runtime * processors)
    assert job.overestimation_factor >= 1.0 - 1e-9
