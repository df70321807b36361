"""Unit tests for the Table 2 feature extractor."""


import numpy as np
import pytest

from repro.predict.base import UserHistoryTracker
from repro.predict.features import (
    FEATURE_NAMES,
    N_FEATURES,
    compute_static_features,
    extract_features,
)

from tests.helpers import make_job

DAY = 86400.0


def idx(name: str) -> int:
    return FEATURE_NAMES.index(name)


class TestFeatureLayout:
    def test_twenty_features(self):
        assert N_FEATURES == 20
        assert len(FEATURE_NAMES) == 20

    def test_vector_shape(self):
        tracker = UserHistoryTracker()
        x = extract_features(make_job(), tracker, now=0.0)
        assert x.shape == (N_FEATURES,)
        assert np.all(np.isfinite(x))


class TestColdStart:
    def test_no_history_zeros(self):
        tracker = UserHistoryTracker()
        job = make_job(requested_time=600.0, processors=4)
        x = extract_features(job, tracker, now=100.0)
        assert x[idx("requested_time")] == 600.0
        assert x[idx("processors")] == 4.0
        assert x[idx("last_runtime_1")] == 0.0
        assert x[idx("ave2_runtime")] == 0.0
        assert x[idx("aveall_runtime")] == 0.0
        assert x[idx("n_running")] == 0.0
        assert x[idx("break_time")] == 0.0
        # ratio defaults to 1 when the user has no request history
        assert x[idx("processors_over_avehist")] == 1.0


class TestHistoryFeatures:
    def make_history(self):
        tracker = UserHistoryTracker()
        for i, runtime in enumerate((100.0, 200.0, 400.0), start=1):
            job = make_job(job_id=i, runtime=runtime, processors=2)
            tracker.on_submit(job, now=float(i))
            tracker.on_start(job, now=float(i))
            tracker.on_finish(job, now=float(i) + runtime)
        return tracker

    def test_last_runtimes_most_recent_first(self):
        tracker = self.make_history()
        x = extract_features(make_job(job_id=9), tracker, now=1000.0)
        assert x[idx("last_runtime_1")] == 400.0
        assert x[idx("last_runtime_2")] == 200.0
        assert x[idx("last_runtime_3")] == 100.0

    def test_averages(self):
        tracker = self.make_history()
        x = extract_features(make_job(job_id=9), tracker, now=1000.0)
        assert x[idx("ave2_runtime")] == pytest.approx(300.0)
        assert x[idx("ave3_runtime")] == pytest.approx(700.0 / 3)
        assert x[idx("aveall_runtime")] == pytest.approx(700.0 / 3)

    def test_request_history(self):
        tracker = self.make_history()
        x = extract_features(make_job(job_id=9, processors=4), tracker, now=1000.0)
        assert x[idx("ave_hist_processors")] == pytest.approx(2.0)
        assert x[idx("processors_over_avehist")] == pytest.approx(2.0)

    def test_break_time(self):
        tracker = self.make_history()
        # last completion at 3 + 400 = 403
        x = extract_features(make_job(job_id=9), tracker, now=1000.0)
        assert x[idx("break_time")] == pytest.approx(1000.0 - 403.0)


class TestRunningJobFeatures:
    def test_current_running_aggregates(self):
        tracker = UserHistoryTracker()
        a = make_job(job_id=1, processors=4, runtime=500.0)
        b = make_job(job_id=2, processors=2, runtime=500.0)
        tracker.on_submit(a, 0.0)
        tracker.on_start(a, 0.0)
        tracker.on_submit(b, 50.0)
        tracker.on_start(b, 50.0)
        x = extract_features(make_job(job_id=3), tracker, now=100.0)
        assert x[idx("n_running")] == 2.0
        assert x[idx("longest_running")] == pytest.approx(100.0)
        assert x[idx("sum_running")] == pytest.approx(100.0 + 50.0)
        assert x[idx("occupied_resources")] == 6.0
        assert x[idx("ave_running_processors")] == pytest.approx(3.0)

    def test_finish_clears_running(self):
        tracker = UserHistoryTracker()
        a = make_job(job_id=1, processors=4)
        tracker.on_submit(a, 0.0)
        tracker.on_start(a, 0.0)
        tracker.on_finish(a, 100.0)
        x = extract_features(make_job(job_id=2), tracker, now=200.0)
        assert x[idx("n_running")] == 0.0
        assert x[idx("occupied_resources")] == 0.0


class TestTimeFeatures:
    def test_day_periodicity(self):
        tracker = UserHistoryTracker()
        x0 = extract_features(make_job(job_id=1), tracker, now=0.0)
        x1 = extract_features(make_job(job_id=2), tracker, now=DAY)
        assert x0[idx("cos_day")] == pytest.approx(x1[idx("cos_day")])
        assert x0[idx("sin_day")] == pytest.approx(x1[idx("sin_day")])

    def test_unit_circle(self):
        tracker = UserHistoryTracker()
        x = extract_features(make_job(), tracker, now=12345.0)
        assert x[idx("cos_day")] ** 2 + x[idx("sin_day")] ** 2 == pytest.approx(1.0)
        assert x[idx("cos_week")] ** 2 + x[idx("sin_week")] ** 2 == pytest.approx(1.0)

    def test_noon_vs_midnight_differ(self):
        tracker = UserHistoryTracker()
        midnight = extract_features(make_job(job_id=1), tracker, now=0.0)
        noon = extract_features(make_job(job_id=2), tracker, now=DAY / 2)
        assert midnight[idx("cos_day")] == pytest.approx(-noon[idx("cos_day")])


class TestUserIsolation:
    def test_histories_are_per_user(self):
        tracker = UserHistoryTracker()
        a = make_job(job_id=1, user=1, runtime=100.0)
        tracker.on_submit(a, 0.0)
        tracker.on_start(a, 0.0)
        tracker.on_finish(a, 100.0)
        x = extract_features(make_job(job_id=2, user=2), tracker, now=200.0)
        assert x[idx("last_runtime_1")] == 0.0
        assert x[idx("aveall_runtime")] == 0.0


class TestLastRuntimes:
    """``UserHistoryTracker.last_runtimes`` reads k entries off the right
    end of the window; the values and their order (most recent first) are
    what a copy-and-slice of the whole deque gave."""

    @staticmethod
    def copy_and_slice(tracker, user, k):
        return list(tracker.state(user).recent_runtimes)[-1 : -k - 1 : -1]

    @pytest.mark.parametrize("n_completed", [0, 1, 2, 3, 5, 64, 70])
    @pytest.mark.parametrize("k", [1, 2, 3, 10])
    def test_same_values_same_order(self, n_completed, k):
        tracker = UserHistoryTracker()
        for i in range(n_completed):
            job = make_job(job_id=i + 1, runtime=10.0 + 1.7 * i)
            tracker.on_finish(job, now=float(i))
        got = tracker.last_runtimes(1, k)
        assert got == self.copy_and_slice(tracker, 1, k)
        assert len(got) == min(k, n_completed, 64)
        if n_completed:
            assert got[0] == 10.0 + 1.7 * (n_completed - 1)

    def test_unknown_user_has_no_history(self):
        tracker = UserHistoryTracker()
        assert tracker.last_runtimes(99, 3) == []
        assert tracker.average_recent_runtime(99, 2) is None

    def test_average_sums_most_recent_first(self):
        """ave3 associates as (r3 + r2) + r1 -- the order the slice had;
        oldest first would lose both small terms here."""
        tracker = UserHistoryTracker()
        for i, runtime in enumerate((1e16, 1.0, 1.0), start=1):
            tracker.on_finish(make_job(job_id=i, runtime=runtime), now=float(i))
        assert (1.0 + 1.0) + 1e16 != (1e16 + 1.0) + 1.0
        assert tracker.average_recent_runtime(1, 3) == ((1.0 + 1.0) + 1e16) / 3

    def test_features_with_one_and_two_completions(self):
        tracker = UserHistoryTracker()
        tracker.on_finish(make_job(job_id=1, runtime=100.0), now=100.0)
        x = extract_features(make_job(job_id=8), tracker, now=500.0)
        assert [x[idx(f"last_runtime_{i}")] for i in (1, 2, 3)] == [100.0, 0.0, 0.0]
        assert x[idx("ave2_runtime")] == x[idx("ave3_runtime")] == 100.0
        tracker.on_finish(make_job(job_id=2, runtime=300.0), now=400.0)
        x = extract_features(make_job(job_id=9), tracker, now=500.0)
        assert [x[idx(f"last_runtime_{i}")] for i in (1, 2, 3)] == [300.0, 100.0, 0.0]
        assert x[idx("ave2_runtime")] == x[idx("ave3_runtime")] == 200.0


class TestSubmissionReplay:
    def test_rows_extract_each_job_at_its_submit_time(self):
        jobs = [
            make_job(job_id=i, submit_time=3600.0 * i, processors=i, user=1 + i % 2)
            for i in range(1, 7)
        ]
        rows = compute_static_features(jobs)
        assert list(rows) == [job.job_id for job in jobs]
        tracker = UserHistoryTracker()
        for job in jobs:
            assert np.array_equal(rows[job.job_id], extract_features(job, tracker, job.submit_time))
            tracker.on_submit(job, job.submit_time)
            assert rows[job.job_id][idx("n_running")] == 0.0
        # job 5 (user 2) follows that user's jobs 1 and 3
        assert rows[5][idx("ave_hist_processors")] == (1 + 3) / 2
