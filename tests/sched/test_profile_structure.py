"""Unit + property tests for the incremental scheduling structures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.legacy import _SeedProfile, compute_shadow
from repro.sched.profile_structure import IncrementalProfile, ReleaseTable
from repro.sim.machine import Machine
from repro.sim.profile import AvailabilityProfile

from tests.helpers import make_record


class TestReleaseTable:
    def test_add_discard_move(self):
        table = ReleaseTable()
        table.add(1, 100.0, 4)
        table.add(2, 50.0, 2)
        assert len(table) == 2
        assert table.releases(0.0) == [(50.0, 2), (100.0, 4)]
        table.move(2, 200.0)
        assert table.releases(0.0) == [(100.0, 4), (200.0, 2)]
        table.discard(1)
        assert table.releases(0.0) == [(200.0, 2)]
        table.discard(1)  # idempotent
        assert len(table) == 1

    def test_duplicate_add_rejected(self):
        table = ReleaseTable()
        table.add(1, 10.0, 1)
        with pytest.raises(ValueError):
            table.add(1, 20.0, 1)

    def test_releases_clamped_to_now(self):
        table = ReleaseTable()
        table.add(1, 10.0, 3)
        table.add(2, 90.0, 1)
        assert table.releases(50.0) == [(50.0, 3), (90.0, 1)]

    def test_matches_machine_predicted_releases(self):
        machine = Machine(16)
        table = ReleaseTable()
        for jid, procs, pred in [(1, 4, 120.0), (2, 2, 30.0), (3, 8, 30.0)]:
            rec = make_record(job_id=jid, processors=procs, predicted_runtime=pred)
            machine.start(rec, now=0.0)
            table.add(jid, pred, procs)
        assert table.releases(0.0) == machine.predicted_releases(0.0)

    def test_resync_from_machine(self):
        machine = Machine(16)
        for jid, procs, pred in [(1, 4, 120.0), (2, 2, 30.0)]:
            machine.start(
                make_record(job_id=jid, processors=procs, predicted_runtime=pred), 0.0
            )
        table = ReleaseTable()
        assert not table.in_sync_with(machine)
        table.resync(machine)
        assert table.in_sync_with(machine)
        assert table.releases(0.0) == machine.predicted_releases(0.0)

    @settings(max_examples=150)
    @given(
        head_q=st.integers(min_value=1, max_value=24),
        free=st.integers(min_value=0, max_value=8),
        releases=st.lists(
            st.tuples(
                st.floats(min_value=0.001, max_value=1000.0),
                st.integers(min_value=1, max_value=8),
            ),
            max_size=8,
        ),
        pending=st.lists(
            st.tuples(
                st.floats(min_value=0.001, max_value=1000.0),
                st.integers(min_value=1, max_value=8),
            ),
            max_size=4,
        ),
    )
    def test_shadow_matches_compute_shadow(self, head_q, free, releases, pending):
        """Property: the lazy merged shadow scan equals the seed's
        sort-everything compute_shadow on the combined release list."""
        total = free + sum(q for _, q in releases) + sum(q for _, q in pending)
        if head_q > total:
            return  # head can never start; covered by the unit tests
        table = ReleaseTable()
        for idx, (end, procs) in enumerate(releases):
            table.add(idx, end, procs)
        merged = sorted(releases + pending)
        expected = compute_shadow(head_q, free, merged, now=0.0)
        got = table.shadow(head_q, free, 0.0, pending)
        assert got == expected

    def test_shadow_never_startable_raises(self):
        table = ReleaseTable()
        table.add(1, 5.0, 3)
        with pytest.raises(ValueError):
            table.shadow(10, 2, 0.0)


def apply_random_ops(profile, machine, rng, n_ops=40):
    """Drive an IncrementalProfile + Machine through random start/finish/
    correction deltas; returns the current simulation time."""
    now = 0.0
    next_id = 1
    active: list[tuple[int, float]] = []  # (job_id, predicted_end)
    for _ in range(n_ops):
        now += float(rng.uniform(0.0, 20.0))
        choice = rng.integers(0, 3)
        if choice == 0 or not active:
            procs = int(rng.integers(1, 5))
            if machine.free >= procs:
                pred = float(rng.uniform(1.0, 200.0))
                rec = make_record(
                    job_id=next_id, processors=procs, predicted_runtime=pred,
                    runtime=pred, requested_time=10 * pred,
                )
                machine.start(rec, now)
                profile.job_started(next_id, now, pred, procs)
                active.append((next_id, now + pred))
                next_id += 1
        elif choice == 1:
            job_id, _end = active.pop(int(rng.integers(0, len(active))))
            machine.finish(job_id, now)
            profile.job_finished(job_id, now)
        else:
            idx = int(rng.integers(0, len(active)))
            job_id, end = active[idx]
            new_end = max(end, now) + float(rng.uniform(1.0, 100.0))
            run = next(r for r in machine.running if r.record.job_id == job_id)
            run.record.predicted_runtime = new_end - run.start_time
            profile.jobs_corrected({job_id: new_end})
            active[idx] = (job_id, new_end)
    return now


class TestIncrementalProfile:
    def test_matches_from_releases_oracle(self, rng):
        """Property: after any delta sequence the incremental profile is
        the same step function the seed rebuilt from machine state."""
        machine = Machine(12)
        profile = IncrementalProfile(12, 0.0)
        now = apply_random_ops(profile, machine, rng)
        profile.trim(now)
        oracle = AvailabilityProfile.from_releases(
            12, now, machine.free, machine.predicted_releases(now)
        )
        assert profile.steps() == oracle.steps()

    def test_snapshot_is_independent_copy(self):
        profile = IncrementalProfile(8, 0.0)
        profile.job_started(1, 0.0, 100.0, 4)
        snap = profile.snapshot(0.0)
        snap.reserve(0.0, 50.0, 2)
        assert profile.available_at(10.0) == 4  # base untouched
        assert snap.available_at(10.0) == 2

    def test_finish_returns_claim_early(self):
        profile = IncrementalProfile(8, 0.0)
        profile.job_started(1, 0.0, 100.0, 6)
        assert profile.available_at(50.0) == 2
        profile.job_finished(1, 40.0)
        assert profile.available_at(50.0) == 8

    def test_correction_extends_claim(self):
        profile = IncrementalProfile(8, 0.0)
        profile.job_started(1, 0.0, 100.0, 6)
        profile.jobs_corrected({1: 250.0})
        assert profile.available_at(150.0) == 2
        assert profile.available_at(250.0) == 8

    def test_backward_correction_rejected(self):
        profile = IncrementalProfile(8, 0.0)
        profile.job_started(1, 0.0, 100.0, 6)
        with pytest.raises(ValueError):
            profile.jobs_corrected({1: 50.0})

    def test_trim_drops_stale_segments(self):
        profile = IncrementalProfile(8, 0.0)
        profile.job_started(1, 0.0, 10.0, 2)
        profile.job_started(2, 0.0, 20.0, 2)
        profile.job_finished(1, 10.0)
        profile.job_finished(2, 20.0)
        profile.trim(30.0)
        assert profile.steps() == [(30.0, 8)]


class TestEarliestFitSweep:
    @settings(max_examples=200)
    @given(
        free=st.integers(min_value=0, max_value=10),
        releases=st.lists(
            st.tuples(
                st.floats(min_value=0.001, max_value=500.0),
                st.integers(min_value=1, max_value=6),
            ),
            max_size=8,
        ),
        reservations=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=400.0),   # not_before
                st.floats(min_value=1.0, max_value=300.0),   # duration
                st.integers(min_value=1, max_value=6),       # processors
            ),
            max_size=6,
        ),
    )
    def test_sweep_equals_seed_anchor_probe(self, free, releases, reservations):
        """Property: the O(S) sweep and the seed's O(S^2) anchor probing
        agree on every fit query, including after interleaved reserves."""
        # a fit only exists for widths the eventual availability reaches;
        # the schedulers guarantee this by construction (trace validation)
        eventual = free + sum(q for _, q in releases)
        m = max(eventual, 1)
        fast = AvailabilityProfile.from_releases(m, 0.0, free, sorted(releases))
        seed = _SeedProfile.from_releases(m, 0.0, free, sorted(releases))
        for not_before, duration, procs in reservations:
            if procs > eventual:
                continue
            expected = seed.earliest_fit(procs, duration, not_before=not_before)
            got = fast.earliest_fit(procs, duration, not_before=not_before)
            assert got == expected
            seed.reserve(expected, duration, procs)
            fast.reserve(expected, duration, procs)
            assert fast.steps() == seed.steps()
