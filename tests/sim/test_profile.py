"""Unit + property tests for the availability profile."""

import math
from bisect import bisect_left
from functools import partial
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.profile import AvailabilityProfile


class TestConstruction:
    def test_initial_availability(self):
        p = AvailabilityProfile(10, now=0.0, free=4)
        assert p.available_at(0.0) == 4
        assert p.available_at(1e9) == 4

    def test_from_releases(self):
        p = AvailabilityProfile.from_releases(10, now=0.0, free=2,
                                              releases=[(5.0, 3), (8.0, 5)])
        assert p.available_at(0.0) == 2
        assert p.available_at(5.0) == 5
        assert p.available_at(8.0) == 10

    def test_bad_free_rejected(self):
        with pytest.raises(ValueError):
            AvailabilityProfile(10, now=0.0, free=11)

    def test_query_before_start_rejected(self):
        p = AvailabilityProfile(10, now=5.0)
        with pytest.raises(ValueError):
            p.available_at(4.0)


class TestQueries:
    def test_min_available_spanning_steps(self):
        p = AvailabilityProfile.from_releases(10, 0.0, 2, [(5.0, 3)])
        assert p.min_available(0.0, 10.0) == 2
        assert p.min_available(5.0, 10.0) == 5

    def test_earliest_fit_now(self):
        p = AvailabilityProfile(10, 0.0, free=10)
        assert p.earliest_fit(4, 100.0, not_before=0.0) == 0.0

    def test_earliest_fit_waits_for_release(self):
        p = AvailabilityProfile.from_releases(10, 0.0, 2, [(50.0, 8)])
        assert p.earliest_fit(4, 100.0, not_before=0.0) == 50.0

    def test_earliest_fit_respects_not_before(self):
        p = AvailabilityProfile(10, 0.0, free=10)
        assert p.earliest_fit(4, 10.0, not_before=33.0) == 33.0

    def test_earliest_fit_too_wide_rejected(self):
        p = AvailabilityProfile(10, 0.0)
        with pytest.raises(ValueError):
            p.earliest_fit(11, 10.0, 0.0)


class TestReservation:
    def test_reserve_then_availability_drops(self):
        p = AvailabilityProfile(10, 0.0, free=10)
        p.reserve(0.0, 100.0, 4)
        assert p.available_at(0.0) == 6
        assert p.available_at(100.0) == 10

    def test_reserve_overlapping(self):
        p = AvailabilityProfile(10, 0.0, free=10)
        p.reserve(0.0, 100.0, 4)
        p.reserve(50.0, 100.0, 6)
        assert p.available_at(50.0) == 0
        assert p.available_at(100.0) == 4
        assert p.available_at(150.0) == 10

    def test_oversubscription_rejected(self):
        p = AvailabilityProfile(10, 0.0, free=10)
        p.reserve(0.0, 100.0, 8)
        with pytest.raises(ValueError):
            p.reserve(10.0, 10.0, 4)

    def test_reserve_in_gap_found_by_earliest_fit(self):
        p = AvailabilityProfile(10, 0.0, free=10)
        p.reserve(100.0, 100.0, 10)  # machine blocked in [100, 200)
        start = p.earliest_fit(4, 50.0, not_before=0.0)
        assert start == 0.0  # fits before the block
        p.reserve(start, 50.0, 4)
        # an 8-wide 100s job cannot fit before or inside the block
        start2 = p.earliest_fit(8, 100.0, not_before=0.0)
        assert start2 == 200.0


@settings(max_examples=60)
@given(
    reservations=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1000.0),  # start
            st.floats(min_value=1.0, max_value=500.0),  # duration
            st.integers(min_value=1, max_value=8),  # processors
        ),
        max_size=12,
    )
)
def test_profile_never_negative_and_steps_sorted(reservations):
    """Property: any sequence of feasible earliest-fit reservations keeps
    the profile within [0, m] with strictly increasing breakpoints."""
    p = AvailabilityProfile(8, now=0.0, free=8)
    for not_before, duration, procs in reservations:
        start = p.earliest_fit(procs, duration, not_before=not_before)
        assert start >= not_before
        p.reserve(start, duration, procs)
        steps = p.steps()
        times = [t for t, _ in steps]
        assert times == sorted(times)
        assert len(set(times)) == len(times)
        assert all(0 <= a <= 8 for _, a in steps)
        # the far future is always fully free again
        assert p.available_at(1e12) == 8


# -- splice-local updates against a brute-force dense oracle -----------------
M = 8  # machine size
HORIZON = 48  # integer ticks; index HORIZON stands for [HORIZON, inf)

_tick = st.integers(min_value=0, max_value=30)
_span = st.tuples(
    _tick,
    st.one_of(st.just(math.inf), st.integers(min_value=0, max_value=HORIZON - 1)),
    st.integers(min_value=-M, max_value=M),
)
_op = st.one_of(
    st.tuples(st.just("reserve"), _tick, st.integers(1, 15), st.integers(1, M)),
    st.tuples(st.just("add_release"), _tick, st.integers(1, M)),
    st.tuples(st.just("delta"), _span),
)


def dense_apply(dense, spans):
    """``[start, end) += delta`` on a copy, tick by tick; None if out of range."""
    out = list(dense)
    for start, end, delta in spans:
        for tick in range(start, HORIZON + 1):
            if tick < end:
                out[tick] += delta
    return out if all(0 <= a <= M for a in out) else None


def as_floats(span):
    start, end, delta = span
    return float(start), float(end), delta


def dense_steps(dense):
    return [
        (float(tick), a)
        for tick, a in enumerate(dense)
        if tick == 0 or a != dense[tick - 1]
    ]


@settings(max_examples=300, deadline=None)
@given(free=st.integers(0, M), ops=st.lists(_op, max_size=25))
def test_updates_match_dense_oracle(free, ops):
    """Random reserve / add_release / _apply_delta sequences: the spliced
    step function equals the tick-by-tick one, stays canonical, and a
    rejected update changes nothing."""
    profile = AvailabilityProfile(M, now=0.0, free=free)
    dense = [free] * (HORIZON + 1)
    for op in ops:
        if op[0] == "reserve":
            _, start, duration, procs = op
            spans = [(start, start + duration, -procs)]
            call = partial(profile.reserve, float(start), float(duration), procs)
        elif op[0] == "add_release":
            _, start, procs = op
            spans = [(start, math.inf, procs)]
            call = partial(profile.add_release, float(start), procs)
        else:
            spans = [op[1]]
            call = partial(profile._apply_delta, *as_floats(op[1]))
        expected = dense_apply(dense, spans)
        if expected is None:
            before = profile.steps()
            with pytest.raises(ValueError):
                call()
            assert profile.steps() == before
        else:
            call()
            dense = expected
        steps = profile.steps()
        assert steps == dense_steps(dense)
        assert all(t0 < t1 for (t0, _), (t1, _) in zip(steps, steps[1:], strict=False))
        assert all(a0 != a1 for (_, a0), (_, a1) in zip(steps, steps[1:], strict=False))


class TestRejectedUpdates:
    @pytest.mark.parametrize("duration", [0.0, -5.0])
    def test_non_positive_duration_rejected(self, duration):
        p = AvailabilityProfile(10, 0.0, free=10)
        with pytest.raises(ValueError):
            p.reserve(10.0, duration, 1)
        assert p.steps() == [(0.0, 10)]

    def test_start_before_profile_rejected(self):
        p = AvailabilityProfile(10, now=50.0, free=10)
        for update in (
            lambda: p.reserve(40.0, 100.0, 1),
            lambda: p.add_release(40.0, 1),
            lambda: p._apply_delta(40.0, 60.0, -1),
        ):
            with pytest.raises(ValueError):
                update()
        assert p.steps() == [(50.0, 10)]

    def test_overcommit_midway_leaves_profile_untouched(self):
        p = AvailabilityProfile(10, 0.0, free=10)
        p.reserve(50.0, 10.0, 8)
        before = p.steps()
        with pytest.raises(ValueError):
            p.reserve(0.0, 100.0, 4)  # fits until t=50, then over-commits
        assert p.steps() == before


class TestOnePassConstruction:
    def test_from_releases_matches_release_by_release(self):
        releases = [(30.0, 2), (10.0, 1), (30.0, 1), (-5.0, 2), (0.0, 1)]
        built = AvailabilityProfile.from_releases(10, 0.0, 1, releases)
        spliced = AvailabilityProfile(10, 0.0, 1)
        for end, width in releases:
            spliced.add_release(max(end, 0.0), width)
        assert built.steps() == spliced.steps() == [(0.0, 4), (10.0, 5), (30.0, 8)]

    def test_from_releases_rejects_bad_input(self):
        with pytest.raises(ValueError):
            AvailabilityProfile.from_releases(10, 0.0, 5, [(10.0, 6)])
        with pytest.raises(ValueError):
            AvailabilityProfile.from_releases(10, 0.0, 5, [(10.0, 0)])

    def test_trim(self):
        p = AvailabilityProfile.from_releases(10, 0.0, 2, [(10.0, 3), (20.0, 5)])
        p.trim(15.0)
        assert p.steps() == [(15.0, 5), (20.0, 10)]
        p.trim(20.0)  # a breakpoint at ``now`` is kept as the start
        assert p.steps() == [(20.0, 10)]


# -- the fused placement and the fits-now horizon -----------------------------
@st.composite
def release_profiles(draw):
    """Arguments of a ``from_releases`` profile on an ``M``-machine, some of
    it possibly drained (never released), plus reservations made on it."""
    drained = draw(st.integers(0, M - 1))
    free = draw(st.integers(0, M - drained))
    releases, left = [], M - drained - free
    while left and draw(st.booleans()):
        width = draw(st.integers(1, left))
        releases.append((float(draw(st.integers(-5, 40))), width))
        left -= width
    free += left  # whatever is neither drained nor released is free now
    reserved = draw(st.lists(st.tuples(_tick, st.integers(1, 15), st.integers(1, M)), max_size=6))
    return M, 0.0, free, releases, reserved


def build(args):
    processors, now, free, releases, reserved = args
    profile = AvailabilityProfile.from_releases(processors, now, free, releases)
    for not_before, duration, width in reserved:
        if width <= profile.terminal_available:
            profile.reserve(profile.earliest_fit(width, duration, not_before), duration, width)
    return profile


_durations = st.one_of(st.integers(1, 30).map(float), st.floats(0.25, 30.0))
_jobs = st.lists(st.tuples(st.integers(1, M), _durations, _tick), min_size=1, max_size=12)


def assert_canonical(profile):
    steps = profile.steps()
    assert all(t0 < t1 and a0 != a1 for (t0, a0), (t1, a1) in zip(steps, steps[1:], strict=False))
    assert all(0 <= a <= M for _, a in steps)


@settings(max_examples=300, deadline=None)
@given(args=release_profiles(), jobs=_jobs)
def test_place_is_earliest_fit_then_reserve(args, jobs):
    """``place`` returns ``earliest_fit``'s start and leaves the profile
    ``reserve`` leaves at that start, job after job."""
    placed, oracle = build(args), build(args)
    for width, duration, not_before in jobs:
        if width > oracle.terminal_available:
            continue  # held: never placed
        start = oracle.earliest_fit(width, duration, float(not_before))
        oracle.reserve(start, duration, width)
        assert placed.place(width, duration, float(not_before)) == start
        assert placed.steps() == oracle.steps()
        assert_canonical(placed)


@settings(max_examples=100, deadline=None)
@given(args=release_profiles())
@pytest.mark.parametrize(
    "width, duration", [(M + 1, 10.0), (1, 0.0), (1, -5.0), (1, math.nan), (0, 10.0)]
)
def test_place_rejects_and_leaves_the_profile_untouched(args, width, duration):
    profile = build(args)
    before = profile.steps()
    with pytest.raises(ValueError):
        profile.place(width, duration, 0.0)
    assert profile.steps() == before


@settings(max_examples=300, deadline=None)
@given(args=release_profiles(), jobs=_jobs, now=_tick)
def test_horizon_verdict_is_the_running_floor_verdict(args, jobs, now):
    """``fits at the start`` as conservative asks it -- ``width <= free
    now`` and ``end <= horizon(width)`` -- against the running minimum of
    availability from the start to the job's end."""
    profile = build(args)
    profile.trim(float(now))
    times, avail = zip(*profile.steps())
    floor = list(accumulate(avail, min))
    for width, duration, _ in jobs:
        end = now + duration
        by_floor = floor[bisect_left(times, end) - 1] >= width
        assert (width <= avail[0] and end <= profile.horizon(width)) == by_floor
        assert (end <= profile.horizon(width)) == by_floor
