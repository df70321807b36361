"""Unit tests for synthetic workload generation."""

import copy

import numpy as np
import pytest

from repro.workload import ARCHIVE, WorkloadModel, arrival_intensity, get_trace, synthesize
from repro.workload.archive import stable_seed
from repro.workload.synthetic import _pilot_draws
from repro.workload.usermodel import UserProfile

from tests.workload.test_usermodel import sample_profiles


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


#: (log, seed, n_jobs) -> (digest, unix_start_time), taken before the pilot
#: stopped building jobs and the trace stopped being rebased after the fact.
#: A moved digest orphans every cached cell of that trace.
TRACE_PINS = {
    ("CTC-SP2", 0, 50): ("2c93af996e5fe905", 1253),
    ("CTC-SP2", 0, 300): ("1efe725a1fee6568", 858),
    ("CTC-SP2", 1, 50): ("f8a488aaff02345f", 11082),
    ("CTC-SP2", 1, 300): ("7e3244a3bc30efa8", 1184),
    ("Curie", 0, 50): ("5f129865e2b31960", 11713),
    ("Curie", 0, 300): ("f26b8a0cf9df7dc7", 2950),
    ("Curie", 1, 50): ("4d2d7e30f6b82ef0", 20242),
    ("Curie", 1, 300): ("3a77ef62551cba94", 0),
    ("KTH-SP2", 0, 50): ("2911a8302a4073f1", 1253),
    ("KTH-SP2", 0, 300): ("d9a9329e1894199e", 5630),
    ("KTH-SP2", 1, 50): ("6cc1247aaf31653a", 32362),
    ("KTH-SP2", 1, 300): ("edadce8221e7ffbf", 7040),
    ("Metacentrum", 0, 50): ("8affd0e66dd68e5a", 1611),
    ("Metacentrum", 0, 300): ("1af4c8952232af1b", 1253),
    ("Metacentrum", 1, 50): ("25c0a4dff5b8ae22", 6328),
    ("Metacentrum", 1, 300): ("156b411df9db5f83", 66),
    ("SDSC-BLUE", 0, 50): ("2da37d053299d2c1", 39784),
    ("SDSC-BLUE", 0, 300): ("397a247635c92d7d", 790),
    ("SDSC-BLUE", 1, 50): ("c2f3db54799aaa6b", 11082),
    ("SDSC-BLUE", 1, 300): ("34e6e9abb98060ab", 78),
    ("SDSC-SP2", 0, 50): ("a3ae797a5a92615d", 7128),
    ("SDSC-SP2", 0, 300): ("670f239451040819", 5908),
    ("SDSC-SP2", 1, 50): ("372891bbaa8e86e2", 991),
    ("SDSC-SP2", 1, 300): ("d7cf0beebe296ac8", 3672),
}


def test_trace_pins_cover_every_archive_log():
    assert {log for log, _, _ in TRACE_PINS} == set(ARCHIVE)


@pytest.mark.parametrize("log, seed, n_jobs", sorted(TRACE_PINS))
def test_trace_digest_pinned(log, seed, n_jobs):
    trace = get_trace(log, n_jobs=n_jobs, seed=seed)
    assert (trace.digest(), trace.unix_start_time) == TRACE_PINS[log, seed, n_jobs]
    assert trace[0].submit_time == 0.0


class TestSessionDraws:
    @pytest.mark.parametrize("failure_prob", [0.0, 0.5, 1.0])
    def test_draws_leave_the_stream_where_a_built_session_does(self, failure_prob):
        """``session_draws`` consumes exactly what ``generate_session`` does,
        on a profile's first session (no mode-switch test) and on later ones."""
        for profile in sample_profiles(np.random.default_rng(4), failure_prob=failure_prob):
            built, drawn = copy.copy(profile), copy.copy(profile)
            rng_built, rng_drawn = np.random.default_rng(9), np.random.default_rng(9)
            for _session in range(4):
                jobs = built.generate_session(rng_built)
                draws = drawn.session_draws(rng_drawn)
                assert rng_built.bit_generator.state == rng_drawn.bit_generator.state
                assert len(jobs) == len(draws)
                assert [job.failed for job in jobs] == [draw[0] for draw in draws]
            assert built == drawn


class TestPilotPick:
    def test_pick_equals_numpy_choice(self, monkeypatch):
        """Over 200 seeds, the pilot's table pick is ``rng.choice(n, p=weights)``
        draw for draw.  This also catches a numpy that changes its algorithm."""
        picks = []

        def one_job_no_draws(profile, rng):
            picks.append(profile.user_id - 1)
            return [()]

        monkeypatch.setattr(UserProfile, "session_draws", one_job_no_draws)
        for seed in range(200):
            gen = np.random.default_rng(seed)
            n = int(gen.integers(1, 40))
            weights = gen.random(n) * (gen.random(n) < 0.8)  # exact zeros too
            weights[gen.integers(n)] += 0.5
            weights = weights / weights.sum()
            profiles = sample_profiles(np.random.default_rng(seed), n_users=n)
            picks.clear()
            rng = np.random.default_rng(seed + 1000)
            _pilot_draws(profiles, weights, rng)
            reference = np.random.default_rng(seed + 1000)
            expected = [int(reference.choice(n, p=weights)) for _ in range(400)]
            assert picks == expected, f"seed {seed}"
            assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize(
        "weights", [[0.5, np.nan, 0.5], [1.5, -0.5], [0.5, np.inf], [0.5, 0.4]]
    )
    def test_weights_are_checked_once_as_choice_checks_them(self, weights):
        profiles = sample_profiles(np.random.default_rng(0), n_users=len(weights))
        with pytest.raises(ValueError, match="probability distribution"):
            _pilot_draws(profiles, np.array(weights), np.random.default_rng(0))
