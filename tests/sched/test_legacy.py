"""Unit + property tests for the frozen oracle's own helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.legacy import compute_shadow
from repro.sim.profile import AvailabilityProfile


class TestComputeShadow:
    def test_head_fits_now(self):
        shadow, extra = compute_shadow(4, free=6, releases=[], now=100.0)
        assert shadow == 100.0
        assert extra == 2

    def test_waits_for_first_release(self):
        shadow, extra = compute_shadow(4, free=2, releases=[(150.0, 3)], now=100.0)
        assert shadow == 150.0
        assert extra == 1

    def test_accumulates_releases(self):
        releases = [(150.0, 1), (200.0, 2), (300.0, 5)]
        shadow, extra = compute_shadow(6, free=1, releases=releases, now=100.0)
        assert shadow == 300.0
        assert extra == 3

    def test_never_startable_raises(self):
        with pytest.raises(ValueError):
            compute_shadow(10, free=2, releases=[(5.0, 3)], now=0.0)

    @settings(max_examples=100)
    @given(
        head_q=st.integers(min_value=1, max_value=16),
        free=st.integers(min_value=0, max_value=16),
        releases=st.lists(
            st.tuples(
                st.floats(min_value=0.001, max_value=1000.0),
                st.integers(min_value=1, max_value=8),
            ),
            max_size=10,
        ),
    )
    def test_shadow_matches_profile_oracle(self, head_q, free, releases):
        """Property: the shadow time equals the earliest time the head fits
        according to an independently-built availability profile, and the
        extra pool equals the profile's surplus at the shadow."""
        m = free + sum(q for _, q in releases)
        if head_q > m or head_q <= free:
            return  # degenerate cases covered by the unit tests above
        releases = sorted(releases)
        shadow, extra = compute_shadow(head_q, free, releases, now=0.0)
        profile = AvailabilityProfile.from_releases(m, 0.0, free, releases)
        oracle = profile.earliest_fit(head_q, duration=1e-9, not_before=0.0)
        assert shadow == pytest.approx(oracle)
        assert extra == profile.available_at(shadow) - head_q
