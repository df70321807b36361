"""Unit + property tests for the release table the machine keeps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.correct import IncrementalCorrector
from repro.predict import RequestedTimePredictor
from repro.sched import make_scheduler
from repro.sched.legacy import _SeedProfile, compute_shadow
from repro.sched.profile_structure import ReleaseTable
from repro.sim import SimSession
from repro.sim.machine import Machine
from repro.sim.profile import AvailabilityProfile

from tests.helpers import make_job, make_record


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
        with pytest.raises(KeyError):  # only a running job has a release to drop
            table.discard(1)
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

    def test_the_machines_table_matches_its_predicted_releases(self):
        machine = Machine(16)
        for jid, procs, pred in [(1, 4, 120.0), (2, 2, 30.0), (3, 8, 30.0)]:
            rec = make_record(job_id=jid, processors=procs, predicted_runtime=pred)
            machine.start(rec, now=0.0)
        assert machine.releases.releases(0.0) == machine.predicted_releases(0.0)

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


class EagerTable:
    """The oracle: each job's release in a dict, the sorted list rebuilt
    from it at every read, and every move applied when it is made."""

    def __init__(self):
        self.ends: dict[int, tuple[float, int]] = {}

    def add(self, job_id, end, processors):
        if job_id in self.ends:
            raise ValueError(f"job {job_id} is already tracked")
        self.ends[job_id] = (end, processors)

    def move_many(self, moves):
        targets = dict(moves)
        if any(job_id not in self.ends for job_id in targets):
            raise KeyError("untracked")
        for job_id, end in targets.items():
            self.ends[job_id] = (end, self.ends[job_id][1])

    def move(self, job_id, end):
        self.move_many([(job_id, end)])

    def discard(self, job_id):
        del self.ends[job_id]

    def releases(self, now):
        ordered = sorted((end, job_id, q) for job_id, (end, q) in self.ends.items())
        return [(end if end > now else now, q) for end, _, q in ordered]

    def shadow(self, head, free, now, pending):
        merged = sorted(self.releases(now) + [(max(end, now), q) for end, q in pending])
        return compute_shadow(head, free, merged, now)


_PICK = st.integers(min_value=0, max_value=7)
_ENDS = st.one_of(st.sampled_from([1.0, 5.0, 5.0, 40.0, 300.0]), st.floats(0.001, 1000.0))
_WIDTHS = st.integers(min_value=1, max_value=4)
_NOW = st.sampled_from([0.0, 5.0, 40.0])
#: ``pick`` names a tracked job by position (an untracked id when ``pick``
#: is past them), so most moves and discards find a job
_TABLE_OPS = st.one_of(
    st.tuples(st.just("add"), _PICK, _ENDS, _WIDTHS),
    st.tuples(st.just("add"), _PICK, _ENDS, _WIDTHS),
    st.tuples(st.just("move"), _PICK, _ENDS),
    st.tuples(st.just("move"), _PICK, _ENDS),
    st.tuples(st.just("move_many"), st.lists(st.tuples(_PICK, _ENDS), max_size=3)),
    st.tuples(st.just("discard"), _PICK),
    # corrected, then finished before any read (an early finish after an
    # EXPIRE whose pass had no queue to read the table for)
    st.tuples(st.just("move_discard"), _PICK, _ENDS),
    st.tuples(st.just("releases"), _NOW),
    # the head's width is drawn within what can ever be free (wider ones
    # raise on both sides, ``test_shadow_never_startable_raises``)
    st.tuples(
        st.just("shadow"),
        st.integers(min_value=0, max_value=30),
        st.sampled_from([0, 0, 1, 2]),
        _NOW,
        st.lists(st.tuples(_ENDS, _WIDTHS), max_size=2),
    ),
    st.tuples(st.just("shadow"), st.integers(min_value=0, max_value=30), st.just(0), _NOW, st.just(())),
)


def _outcome(call, *args):
    try:
        return call(*args)
    except (KeyError, ValueError) as exc:
        return type(exc)


class TestAgainstAnEagerTable:
    def test_a_discard_drops_its_pending_move(self):
        table = ReleaseTable()
        table.add(1, 10.0, 2)
        table.add(2, 20.0, 3)
        table.move(1, 300.0)
        table.discard(1)
        table.add(1, 7.0, 4)  # the id comes back: the old move must not reach it
        assert table.releases(0.0) == [(7.0, 4), (20.0, 3)]

    def test_shadow_applies_the_pending_moves_first(self):
        table = ReleaseTable()
        table.add(1, 5.0, 3)
        table.add(2, 50.0, 2)
        table.move(1, 300.0)
        assert table.shadow(3, 0, 0.0) == (300.0, 2)
        table.move(2, 1.0)
        table.move(1, 2.0)  # two pending: one re-sort
        assert table.shadow(4, 0, 0.0) == (2.0, 1)
        assert table.releases(0.0) == [(1.0, 2), (2.0, 3)]

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_TABLE_OPS, min_size=1, max_size=30))
    def test_reads_match_a_table_rebuilt_at_every_read(self, ops):
        """Property: a move waits for the next read, but no read, length or
        error can tell -- under any mix of adds, moves, batched moves and
        discards, ``releases``, ``shadow`` and ``len`` equal the
        eager oracle's, and a rejected batch moves nothing."""
        table, oracle = ReleaseTable(), EagerTable()

        def job(pick):
            tracked = sorted(oracle.ends)
            return tracked[pick] if pick < len(tracked) else pick

        for name, *args in ops:
            if name == "shadow":
                room = args[1] + sum(q for _, q in oracle.ends.values())
                room += sum(q for _, q in args[3])
                args[0] = 1 + args[0] % max(room, 1)
            elif name in ("move", "discard", "move_discard"):
                args[0] = job(args[0])
            elif name == "move_many":
                args[0] = [(job(pick), end) for pick, end in args[0]]
            if name == "move_discard":
                ops_here = [("move", args), ("discard", args[:1])]
            else:  # each read on its own, so either may be the one that applies a move
                ops_here = [(name, args)]
            for call, call_args in ops_here:
                assert _outcome(getattr(table, call), *call_args) == _outcome(
                    getattr(oracle, call), *call_args
                )
            assert len(table) == len(oracle.ends)
        assert table.releases(0.0) == oracle.releases(0.0)


def apply_random_ops(machine, rng, n_ops=40):
    """Drive a Machine through random start/finish/correction deltas;
    returns the current simulation time."""
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
                active.append((next_id, now + pred))
                next_id += 1
        elif choice == 1:
            job_id, _end = active.pop(int(rng.integers(0, len(active))))
            machine.finish(job_id, now)
        else:
            idx = int(rng.integers(0, len(active)))
            job_id, end = active[idx]
            new_end = max(end, now) + float(rng.uniform(1.0, 100.0))
            record = next(r for r in machine.running if r.job_id == job_id)
            machine.repredict(record, new_end - record.start_time)
            active[idx] = (job_id, new_end)
    return now


class TestPlanFromTable:
    def test_matches_from_releases_oracle(self, rng):
        """Property: after any delta sequence the plan built from the
        machine's table is the step function the seed rebuilt from the
        running records."""
        machine = Machine(12)
        now = apply_random_ops(machine, rng)
        table = machine.releases
        assert len(table) == len(machine.running)
        plan = AvailabilityProfile.from_releases(12, now, machine.free, table.releases(now))
        oracle = AvailabilityProfile.from_releases(
            12, now, machine.free, machine.predicted_releases(now)
        )
        assert plan.steps() == oracle.steps()


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


class _Constant(RequestedTimePredictor):
    """Predicts 100 s for every job, whatever it requested."""

    def predict(self, record, now):
        return 100.0


class TestConservativeFeed:
    """Which hooks drop ``ConservativeScheduler``'s carried plan, and
    whether the machine's release table it replans from follows the
    running jobs.  Job 1
    holds 8 of 12 processors from t=0, predicted to end at 100; 12-wide
    job 2 queues behind it at t=10."""

    def session(self, runtime, predictor=RequestedTimePredictor, corrector=None):
        session = SimSession(12, make_scheduler("conservative"), predictor(), corrector)
        session.feed([
            make_job(job_id=1, runtime=runtime, processors=8, requested_time=max(runtime, 100.0)),
            make_job(job_id=2, submit_time=10.0, runtime=50.0, processors=12),
        ])
        session.advance_to(10.0)
        assert session.scheduler._plan is not None
        return session

    @staticmethod
    def sizes(session):
        return session.scheduler.introspect(session.machine)

    def test_an_on_time_finish_keeps_the_plan(self):
        session = self.session(runtime=100.0)
        session.advance_to(100.0)
        assert session.record(2).start_time == 100.0
        assert self.sizes(session) == {"release_table": 1.0, "plan_reused": 1.0}

    def test_an_early_finish_replans(self):
        session = self.session(runtime=60.0)
        session.advance_to(60.0)
        assert session.record(2).start_time == 60.0
        assert self.sizes(session) == {"release_table": 1.0, "plan_reused": 0.0}

    def test_a_correction_moves_the_release_and_replans(self):
        session = self.session(150.0, _Constant, IncrementalCorrector())
        session.advance_to(100.0)
        scheduler, machine = session.scheduler, session.machine
        assert session.stats.n_corrections == 1 and not machine.is_running(2)
        assert scheduler.introspect(machine)["plan_reused"] == 0.0
        releases = machine.releases.releases(100.0)
        assert releases == machine.predicted_releases(100.0) and releases[0][0] > 100.0
        session.advance_to(150.0)
        assert session.record(2).start_time == 150.0

    def test_a_machine_change_replans_and_keeps_the_table(self):
        """A restore frees 4 processors the carried plan never had:
        4-wide job 3 starts on them at once."""
        session = self.session(runtime=100.0)
        session.feed_machine_event(time=10.0, kind="drain", processors=4)
        session.feed(make_job(job_id=3, submit_time=10.0, runtime=20.0, processors=4))
        session.advance_to(10.0)
        assert not session.machine.is_running(3)
        session.feed_machine_event(time=50.0, kind="restore", processors=4)
        session.advance_to(50.0)
        assert session.record(3).start_time == 50.0
        assert self.sizes(session) == {"release_table": 2.0, "plan_reused": 0.0}
