"""Unit tests for synthetic workload generation."""

import numpy as np
import pytest

from repro.workload import ARCHIVE, WorkloadModel, arrival_intensity, synthesize
from repro.workload.archive import stable_seed


def small_model(**overrides) -> WorkloadModel:
    base = ARCHIVE["KTH-SP2"].model.resized(400)
    if overrides:
        from dataclasses import replace

        base = replace(base, **overrides)
    return base


class TestArrivalIntensity:
    def test_bounded(self):
        for t in np.linspace(0, 14 * 86400, 500):
            value = arrival_intensity(float(t), 0.7, 0.5)
            assert 0.0 < value <= 1.0

    def test_weekend_suppressed(self):
        # t=0 is Monday 0:00; Saturday noon is day 5.5
        weekday = arrival_intensity(2.5 * 86400, 0.5, 0.6)
        weekend = arrival_intensity(5.5 * 86400, 0.5, 0.6)
        assert weekend < weekday

    def test_night_suppressed(self):
        night = arrival_intensity(4 * 3600.0, 0.8, 0.0)  # 4 am Monday
        afternoon = arrival_intensity(16 * 3600.0, 0.8, 0.0)  # 4 pm Monday
        assert night < afternoon


class TestSynthesize:
    def test_job_count_exact(self):
        trace = synthesize(small_model(), seed=1)
        assert len(trace) == 400

    def test_deterministic_in_seed(self):
        a = synthesize(small_model(), seed=7)
        b = synthesize(small_model(), seed=7)
        assert len(a) == len(b)
        for ja, jb in zip(a, b, strict=True):
            assert ja.submit_time == jb.submit_time
            assert ja.runtime == jb.runtime
            assert ja.processors == jb.processors
            assert ja.user == jb.user

    def test_different_seeds_differ(self):
        a = synthesize(small_model(), seed=1)
        b = synthesize(small_model(), seed=2)
        assert any(x.runtime != y.runtime for x, y in zip(a, b, strict=False))

    def test_invariants(self):
        trace = synthesize(small_model(), seed=3)
        for job in trace:
            assert job.runtime > 0
            assert job.runtime <= job.requested_time + 1e-9
            assert 1 <= job.processors <= trace.processors
        assert trace[0].submit_time == 0.0

    def test_offered_load_near_target(self):
        model = small_model()
        trace = synthesize(model, seed=4)
        stats = trace.stats()
        # stats.duration includes trailing completions, so achieved load
        # lands a bit under target; allow a generous band.
        assert 0.5 * model.offered_load < stats.offered_load < 1.3 * model.offered_load

    def test_submission_monotone(self):
        trace = synthesize(small_model(), seed=5)
        times = [j.submit_time for j in trace]
        assert times == sorted(times)

    def test_resized_scales_users(self):
        full = ARCHIVE["KTH-SP2"].model
        small = full.resized(400)
        assert small.n_jobs == 400
        assert small.n_users < full.n_users
        assert small.target_days is not None

    def test_resized_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ARCHIVE["KTH-SP2"].model.resized(0)

    def test_a_model_without_a_span_is_refused(self):
        """Every caller synthesizes a resized model; a full-size one has no
        span to fit the trace into, and is refused rather than calibrated."""
        full = ARCHIVE["KTH-SP2"].model
        assert full.target_days is None
        with pytest.raises(ValueError, match=r"KTH-SP2.*resized\("):
            synthesize(full, seed=1)

    def test_requested_times_overestimate_on_average(self):
        trace = synthesize(small_model(), seed=6)
        ratios = [j.requested_time / j.runtime for j in trace]
        assert np.mean(ratios) > 2.0  # users over-estimate heavily (paper Sec 1)

    def test_multiple_users_present(self):
        trace = synthesize(small_model(), seed=8)
        users = {j.user for j in trace}
        assert len(users) >= 5


class TestArchiveModels:
    @pytest.mark.parametrize("name", list(ARCHIVE))
    def test_every_log_synthesises(self, name):
        trace = synthesize(ARCHIVE[name].model.resized(250), seed=stable_seed(name))
        assert len(trace) == 250
        stats = trace.stats()
        assert stats.offered_load > 0.3
        assert stats.n_users >= 5
