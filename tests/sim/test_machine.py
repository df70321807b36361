"""Unit tests for the machine model."""

import pytest

from repro.sim.machine import Machine

from tests.helpers import make_record


class TestMachineLifecycle:
    def test_start_allocates(self):
        m = Machine(10)
        rec = make_record(processors=4)
        m.start(rec, now=0.0)
        assert m.free == 6
        assert m.is_running(rec.job_id)
        m.check_invariants()

    def test_finish_releases(self):
        m = Machine(10)
        rec = make_record(processors=4)
        m.start(rec, now=0.0)
        finished = m.finish(rec.job_id, now=100.0)
        assert m.free == 10
        assert finished.end_time == 100.0
        m.check_invariants()

    def test_start_records_start_time(self):
        m = Machine(10)
        rec = make_record()
        m.start(rec, now=42.0)
        assert rec.start_time == 42.0

    def test_overallocation_rejected(self):
        m = Machine(4)
        m.start(make_record(job_id=1, processors=3), now=0.0)
        with pytest.raises(ValueError, match="needs"):
            m.start(make_record(job_id=2, processors=2), now=0.0)

    def test_double_start_rejected(self):
        m = Machine(10)
        rec = make_record()
        m.start(rec, now=0.0)
        with pytest.raises(ValueError, match="already running"):
            m.start(rec, now=1.0)

    def test_finish_unknown_rejected(self):
        with pytest.raises(ValueError, match="not running"):
            Machine(10).finish(99, now=0.0)

    def test_start_without_prediction_rejected(self):
        m = Machine(10)
        rec = make_record()
        rec.predicted_runtime = 0.0
        with pytest.raises(ValueError, match="predicted"):
            m.start(rec, now=0.0)

    def test_start_with_a_nan_prediction_rejected_and_nothing_moves(self):
        """NaN fails ``<= 0`` as it fails every comparison: it must still be
        refused, before it could land in the release table's sort."""
        m = Machine(8)
        rec = make_record(processors=2)
        rec.predicted_runtime = float("nan")
        with pytest.raises(ValueError, match="predicted"):
            m.start(rec, now=0.0)
        assert m.free == 8 and not m.is_running(rec.job_id) and m.running == []
        assert rec.start_time < 0
        assert m.predicted_releases(0.0) == [] and len(m.releases) == 0
        m.check_invariants()

    def test_nonpositive_machine_rejected(self):
        with pytest.raises(ValueError):
            Machine(0)


class TestPredictedReleases:
    def test_sorted_by_predicted_end(self):
        m = Machine(10)
        a = make_record(job_id=1, processors=2, predicted_runtime=100.0)
        b = make_record(job_id=2, processors=3, predicted_runtime=50.0)
        m.start(a, now=0.0)
        m.start(b, now=0.0)
        releases = m.predicted_releases(now=0.0)
        assert releases == [(50.0, 3), (100.0, 2)]

    def test_the_release_table_follows_starts_finishes_and_moves(self):
        m = Machine(10)
        a = make_record(job_id=1, processors=2, predicted_runtime=100.0)
        b = make_record(job_id=2, processors=3, predicted_runtime=50.0)
        m.start(a, now=0.0)
        m.start(b, now=10.0)
        assert m.releases.releases(0.0) == [(60.0, 3), (100.0, 2)]
        m.repredict(b, 150.0)  # corrected: the release moves with it
        assert m.releases.releases(0.0) == m.predicted_releases(0.0) == [(100.0, 2), (160.0, 3)]
        m.finish(1, 30.0)
        assert m.releases.releases(30.0) == m.predicted_releases(30.0) == [(160.0, 3)]

    def test_expired_predictions_clamped_to_now(self):
        m = Machine(10)
        a = make_record(job_id=1, processors=2, predicted_runtime=10.0)
        m.start(a, now=0.0)
        releases = m.predicted_releases(now=25.0)
        assert releases == [(25.0, 2)]
