"""Correction storms: the engine reports each correction at its EXPIRE,
and a release table fed the same moves as one batch per timestamp (or
through ``move_many``) must end *exactly* where the per-job feed does."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.correct import IncrementalCorrector
from repro.obs import Telemetry
from repro.predict import RecentAveragePredictor
from repro.sched import make_scheduler
from repro.sched.profile_structure import ReleaseTable
from repro.sim import simulate
from repro.workload import Job, Trace


def settled(table):
    """The table as its next read sees it: a ``move`` lands only then, so
    the entries are compared after a read, with the read's answer."""
    return table.releases(0.0), table._entries


class TestMoveMany:
    def build(self, n=6):
        table = ReleaseTable()
        for jid in range(1, n + 1):
            table.add(jid, 10.0 * jid, jid)
        return table

    def test_equivalent_to_sequential_moves(self):
        batched = self.build()
        sequential = self.build()
        moves = [(2, 500.0), (5, 15.0), (1, 75.0)]
        batched.move_many(moves)
        for jid, end in moves:
            sequential.move(jid, end)
        assert settled(batched) == settled(sequential)

    def test_single_move_delegates(self):
        table = self.build()
        table.move_many([(3, 7.0)])
        assert table.releases(0.0)[0] == (7.0, 3)

    def test_empty_is_noop(self):
        table = self.build()
        before = table.releases(0.0)
        table.move_many([])
        assert table.releases(0.0) == before

    def test_dict_input_and_last_duplicate_wins(self):
        table = self.build()
        table.move_many([(2, 100.0), (2, 300.0)])
        assert (300.0, 2) in table.releases(0.0)

    def test_unknown_job_rejected(self):
        """An untracked id raises before anything changes, the tracked
        moves beside it included, by batch or one at a time."""
        table, untouched = self.build(), self.build()
        with pytest.raises(KeyError):
            table.move_many([(99, 5.0), (1, 5.0)])
        with pytest.raises(KeyError):
            table.move(99, 5.0)
        assert settled(table) == settled(untouched)

    @settings(max_examples=50, deadline=None)
    @given(
        moves=st.lists(
            st.tuples(st.integers(1, 8), st.floats(0.0, 1e6)),
            min_size=2,
            max_size=8,
        )
    )
    def test_property_matches_sequential(self, moves):
        batched = self.build(8)
        sequential = self.build(8)
        batched.move_many(moves)
        for jid, end in dict(moves).items():
            sequential.move(jid, end)
        assert settled(batched) == settled(sequential)


def storm_trace(processors=64, waves=4, wave_jobs=48, users_per_wave=8, seed=3):
    """Warmed users + same-instant submission waves: AVE2 predictions
    clamp to min_prediction, so whole waves expire in lockstep --
    guaranteed same-timestamp EXPIRE storms."""
    rng = np.random.default_rng(seed)
    jobs, jid = [], 0
    for user in range(waves * users_per_wave):
        for k in range(2):
            jid += 1
            jobs.append(
                Job(job_id=jid, submit_time=float(user + 70 * k), runtime=30.0,
                    processors=1, requested_time=3600.0, user=user)
            )
    t = 2000.0
    for wave in range(waves):
        for _ in range(wave_jobs):
            jid += 1
            runtime = float(rng.uniform(1800.0, 5400.0))
            jobs.append(
                Job(job_id=jid, submit_time=t, runtime=runtime, processors=1,
                    requested_time=2.0 * runtime,
                    user=wave * users_per_wave + int(rng.integers(users_per_wave)))
            )
        t += 7200.0
    return Trace(jobs, processors=processors, name="storm")


def schedule_of(result):
    return sorted((r.job_id, r.start_time, r.end_time, r.corrections) for r in result)


class TestEngineStormBatching:
    @pytest.mark.parametrize("scheduler", ["easy", "easy-sjbf", "conservative"])
    def test_storms_occur_and_match_legacy(self, scheduler):
        """The trace provokes real multi-correction timestamps, each
        correction reaches the scheduler alone, AND the incremental path
        still matches the per-pass-rescan seed oracle job for job."""
        trace = storm_trace()
        sched = make_scheduler(scheduler)
        notified = []
        original = sched.on_corrections

        def spy(records):
            notified.append(len(records))
            return original(records)

        sched.on_corrections = spy
        tele = Telemetry(component="test")
        new = simulate(
            trace, sched, RecentAveragePredictor(2), IncrementalCorrector(), telemetry=tele
        )
        assert tele.histogram("engine.expire_storm.size").max > 1, "trace failed to provoke a storm"
        assert set(notified) == {1} and len(notified) == new.total_corrections()
        old = simulate(
            trace,
            make_scheduler(f"legacy-{scheduler}"),
            RecentAveragePredictor(2),
            IncrementalCorrector(),
        )
        assert schedule_of(new) == schedule_of(old)

    @pytest.mark.parametrize("scheduler", ["easy-sjbf", "conservative"])
    def test_batched_matches_perjob_fanout(self, scheduler):
        """Holding an instant's corrections back and delivering them as one
        batch just before its pass (how they were once delivered) must not
        change the schedule: the table applies moves at its next read."""
        trace = storm_trace(waves=3)
        perjob = simulate(
            trace, make_scheduler(scheduler),
            RecentAveragePredictor(2), IncrementalCorrector(),
        )
        sched = make_scheduler(scheduler)
        held = []
        batches = []
        notify, select = sched.on_corrections, sched.select_jobs

        def hold(records):
            held.extend(records)

        def flush_then_select(now, machine):
            if held:
                batches.append(len(held))
                notify(list(held))
                held.clear()
            return select(now, machine)

        sched.on_corrections = hold
        sched.select_jobs = flush_then_select
        batched = simulate(
            trace, sched, RecentAveragePredictor(2), IncrementalCorrector()
        )
        assert max(batches) > 1
        assert schedule_of(batched) == schedule_of(perjob)
