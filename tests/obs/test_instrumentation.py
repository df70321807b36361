"""Telemetry threaded through the engine and campaign layers.

The load-bearing property: instrumentation *observes* and never steers.
A run with a live registry must produce the byte-identical schedule of
an uninstrumented run, and its counters must reconcile with the run's
own visible outcome (jobs in == jobs finished == predictions scored).
"""

from __future__ import annotations

import gc
import json
import sys
import threading
import time
from collections import Counter
from itertools import groupby
from math import ceil, inf

import pytest

from repro.core import run_cells
from repro.core.run import build_workload, run_cell_report, run_spec
from repro.obs import Histogram, Telemetry
from repro.correct import make_corrector
from repro.predict import RecentAveragePredictor, RequestedTimePredictor, make_predictor
from repro.sched import make_scheduler
from repro.sim import EventType
from repro.sim.session import _SAMPLE_STRIDE, SimSession
from repro.spec import CellSpec

from tests.helpers import make_job

TRIPLES = [
    "requested|none|easy",
    "ave2|incremental|easy-sjbf",
    "requested|none|conservative",
    "clairvoyant|none|fcfs",
]


def _spec(triple_key: str, n_jobs: int = 120) -> CellSpec:
    return CellSpec.from_triple("KTH-SP2", triple_key, n_jobs=n_jobs, seed=7)


def _fed_session(spec: CellSpec, telemetry: Telemetry | None) -> SimSession:
    trace = build_workload(spec.workload)
    scheduler, predictor, corrector = spec.build_components()
    session = SimSession(
        trace.processors,
        scheduler,
        predictor,
        corrector,
        min_prediction=spec.min_prediction,
        trace_name=trace.name,
        telemetry=telemetry,
    )
    session.feed(trace)
    return session


def _schedule(outcome_spec: CellSpec, telemetry: Telemetry | None):
    session = _fed_session(outcome_spec, telemetry)
    session.drain()
    return sorted(
        (r.job_id, r.start_time, r.end_time, r.corrections)
        for r in session.result()
    )


class TestByteIdentity:
    @pytest.mark.parametrize("triple_key", TRIPLES)
    def test_schedule_identical_with_telemetry_on(self, triple_key):
        spec = _spec(triple_key)
        baseline = _schedule(spec, None)
        instrumented = _schedule(spec, Telemetry(component="test"))
        assert baseline == instrumented

    def test_result_identical_through_run_spec(self):
        spec = _spec("ave2|incremental|easy-sjbf")
        plain = run_spec(spec)
        tele = Telemetry(component="test")
        observed = run_spec(spec, telemetry=tele)
        assert list(map(repr, observed)) == list(map(repr, plain))
        assert observed.avebsld() == plain.avebsld()


class TestEngineCounters:
    @pytest.fixture(scope="class")
    def run(self):
        spec = _spec("ave2|incremental|easy-sjbf")
        tele = Telemetry(component="test")
        result = run_spec(spec, telemetry=tele)
        return spec, tele, result.total_corrections()

    def test_event_counts_reconcile_with_the_trace(self, run):
        spec, tele, corrections = run
        n_jobs = spec.workload.n_jobs
        assert tele.counter_value("engine.events.submit") == n_jobs
        assert tele.counter_value("engine.events.finish") == n_jobs
        assert tele.counter_value("engine.sched.jobs_started") == n_jobs
        assert tele.counter_value("engine.events.expire") == corrections

    def test_expire_storms_sum_to_the_corrections(self, run):
        _spec_, tele, corrections = run
        storms = tele.histogram("engine.expire_storm.size")
        assert storms is not None
        assert storms.total == corrections

    def test_prediction_quality_counters(self, run):
        spec, tele, _corrections = run
        finished = tele.counter_value("predict.finished")
        assert finished == spec.workload.n_jobs
        assert 0 <= tele.counter_value("predict.underestimates") <= finished
        assert tele.histogram("predict.abs_error.seconds").count == finished

    def test_queue_depth_sampled_one_pass_in_sixteen(self, run):
        _spec_, tele, _corrections = run
        passes = tele.counter_value("engine.sched.passes")
        assert passes > _SAMPLE_STRIDE == 16
        queue = tele.histogram("engine.sched.queue_length")
        assert queue.count == ceil(passes / 16)
        # easy-sjbf exposes its release-table size via introspect()
        assert tele.histogram("engine.sched.release_table").count == queue.count

    def test_time_split_and_cell_span(self, run):
        _spec_, tele, _corrections = run
        wall = tele.counter_value("engine.time.wall.seconds")
        sched = tele.counter_value("engine.time.sched.seconds")
        predict = tele.counter_value("engine.time.predict.seconds")
        build = tele.counter_value("engine.time.build.seconds")
        assert wall > 0
        assert sched + predict + build < wall
        assert tele.counter_value("engine.cells") == 1
        assert tele.histogram("engine.cell.seconds").count == 1

    def test_conservative_release_table_sampled(self):
        spec = _spec("requested|none|conservative", n_jobs=60)
        tele = Telemetry(component="test")
        run_spec(spec, telemetry=tele)
        table = tele.histogram("engine.sched.release_table")
        assert table is not None and table.count > 0


class TestSnapshotPins:
    """What a drained session leaves in the registry, cell by cell, as
    the loop recorded it while every number was its own locked registry
    call (values computed at the commit before the per-session tally;
    120 KTH-SP2 jobs, seed 7) -- except the ``engine.sched.*`` size
    histograms, which since PR 23 hold the passes numbered 1 modulo 16
    of that per-pass series (``TestSizesAreSampled`` holds them to it).
    Timers are wall-clock sums, so only their presence is pinned; the
    real-valued error's sum is not pinned and its max only to 1e-9.
    Histograms: (count, sum, min, max, buckets)."""

    TIMERS = {"engine.time.predict.seconds", "engine.time.sched.seconds"}
    _EASY_QUEUE = (15, 60, 0, 21, {-1075: 5, 0: 6, 3: 1, 4: 2, 5: 1})
    _REQUESTED_ERROR = (
        120, None, 0, 215941.5431429155,
        {-1075: 5, 10: 12, 11: 10, 12: 13, 13: 13, 14: 4, 16: 10, 18: 53},
    )
    PINS = {
        "requested|none|easy": (
            {
                "engine.events.finish": 120, "engine.events.submit": 120,
                "engine.sched.backfill_starts": 35, "engine.sched.hold_passes": 60,
                "engine.sched.jobs_started": 120, "engine.sched.passes": 239,
                "predict.finished": 120,
            },
            {
                "engine.sched.queue_length": _EASY_QUEUE,
                "engine.sched.release_table": (
                    15, 32, 0, 7, {-1075: 3, 0: 5, 1: 3, 2: 1, 3: 3},
                ),
                "predict.abs_error.seconds": _REQUESTED_ERROR,
            },
        ),
        "ave2|incremental|easy-sjbf": (
            {
                "engine.events.expire": 135, "engine.events.finish": 120,
                "engine.events.submit": 120, "engine.sched.backfill_starts": 37,
                "engine.sched.hold_passes": 72, "engine.sched.jobs_started": 120,
                "engine.sched.passes": 348, "predict.finished": 120,
                "predict.underestimates": 43,
            },
            {
                "engine.expire_storm.size": (109, 135, 1, 8, {0: 103, 2: 3, 3: 3}),
                "engine.sched.queue_length": (
                    22, 80, 0, 20, {-1075: 9, 0: 8, 3: 1, 4: 2, 5: 2},
                ),
                "engine.sched.release_table": (
                    22, 52, 0, 7, {-1075: 3, 0: 9, 1: 2, 2: 3, 3: 5},
                ),
                "predict.abs_error.seconds": (
                    120, None, 0, 215413.96252677846,
                    {-1075: 2, 4: 1, 5: 3, 6: 6, 7: 8, 8: 11, 9: 16, 10: 24, 11: 15,
                     12: 12, 13: 8, 14: 3, 16: 6, 18: 5},
                ),
            },
        ),
        "requested|none|conservative": (
            {
                "engine.events.finish": 120, "engine.events.submit": 120,
                "engine.sched.backfill_starts": 35, "engine.sched.hold_passes": 60,
                "engine.sched.jobs_started": 120, "engine.sched.passes": 239,
                "predict.finished": 120,
            },
            {
                "engine.sched.plan_reused": (15, 6, 0, 1, {-1075: 9, 0: 6}),
                "engine.sched.queue_length": _EASY_QUEUE,
                "engine.sched.release_table": (
                    15, 32, 0, 7, {-1075: 3, 0: 5, 1: 3, 2: 1, 3: 3},
                ),
                "predict.abs_error.seconds": _REQUESTED_ERROR,
            },
        ),
        "ml:sq-lin-large-area|incremental|easy-sjbf": (
            {
                "engine.events.expire": 349, "engine.events.finish": 120,
                "engine.events.submit": 120, "engine.sched.backfill_starts": 37,
                "engine.sched.hold_passes": 112, "engine.sched.jobs_started": 120,
                "engine.sched.passes": 505, "predict.finished": 120,
                "predict.underestimates": 103,
            },
            {
                "engine.expire_storm.size": (
                    266, 349, 1, 15, {0: 256, 1: 2, 3: 2, 4: 6},
                ),
                "engine.sched.queue_length": (
                    32, 103, 0, 21, {-1075: 17, 0: 7, 1: 1, 3: 2, 4: 2, 5: 3},
                ),
                "engine.sched.release_table": (
                    32, 93, 0, 15, {-1075: 2, 0: 11, 1: 7, 2: 5, 3: 6, 4: 1},
                ),
                "predict.abs_error.seconds": (
                    120, None, 0, 215161.64679260447,
                    {-1075: 1, 1: 1, 5: 5, 6: 7, 7: 4, 8: 10, 9: 16, 10: 26, 11: 19,
                     12: 13, 13: 6, 14: 5, 15: 1, 18: 6},
                ),
            },
        ),
    }

    @pytest.mark.parametrize("triple_key", PINS)
    def test_counters_and_histograms_match_the_pins(self, triple_key):
        counters, histograms = self.PINS[triple_key]
        tele = Telemetry(component="test")
        instrumented = _schedule(_spec(triple_key), tele)
        assert instrumented == _schedule(_spec(triple_key), None)
        snap = tele.snapshot()
        assert set(snap["counters"]) == set(counters) | self.TIMERS
        for name, value in counters.items():
            assert snap["counters"][name] == value, name
        assert all(snap["counters"][name] > 0 for name in self.TIMERS)
        assert set(snap["histograms"]) == set(histograms)
        for name, (count, total, low, high, buckets) in histograms.items():
            got = snap["histograms"][name]
            assert got["count"] == count, name
            if total is not None:
                assert got["sum"] == total, name
            assert got["min"] == low, name
            assert got["max"] == pytest.approx(high, rel=1e-9), name
            assert got["buckets"] == {str(k): n for k, n in buckets.items()}, name
            if name.startswith("engine.sched."):  # the first pass, then every sixteenth
                assert count == ceil(counters["engine.sched.passes"] / 16), name


def _storm_session(telemetry: Telemetry | None, predictor=None) -> SimSession:
    """Twelve one-processor jobs of user 1 start together at t=100 on a
    60 s AVE2 prediction (the user's two jobs before them ran 10 s) and
    run 150 s to 15 000 s: ``incremental`` corrects whoever is left at
    the same instants, so the storms shrink from twelve jobs to one.
    Jobs 20 and 21 start at 130 and 145 and expire alone."""
    session = SimSession(
        16, make_scheduler("easy-sjbf"), predictor or make_predictor("ave2"),
        make_corrector("incremental"), telemetry=telemetry,
    )
    session.feed([make_job(job_id=i, submit_time=0.0, runtime=10.0) for i in (1, 2)])
    runtimes = (150, 150, 400, 400, 400, 1000, 1000, 3000, 3000, 8000, 8000, 15000)
    session.feed(
        make_job(job_id=3 + i, submit_time=100.0, runtime=float(runtime), requested_time=40000.0)
        for i, runtime in enumerate(runtimes)
    )
    session.feed(make_job(job_id=20, submit_time=130.0, runtime=2000.0, requested_time=40000.0))
    session.feed(make_job(job_id=21, submit_time=145.0, runtime=700.0, requested_time=40000.0))
    return session


def _storms(tele: Telemetry) -> tuple:
    hist = tele.histogram("engine.expire_storm.size")
    return hist.count, hist.total, hist.min, hist.max, dict(sorted(hist.buckets.items()))


class TestExpireStorms:
    """``engine.expire_storm.size`` is exact although the loop tallies
    only the storms of two jobs and more: the storms of one are what is
    left of ``stats.n_corrections`` at the fold."""

    #: one sample per instant with corrections (a batch per pass recorded the same)
    PIN = (14, 50, 1, 12, {0: 8, 2: 2, 3: 2, 4: 2})

    def test_a_storm_heavy_trace_keeps_the_per_pass_series(self):
        tele = Telemetry(component="test")
        session = _storm_session(tele)
        instants = []  # the clock at each correction: one notification per EXPIRE
        notify = session.scheduler.on_corrections
        session.scheduler.on_corrections = lambda records: (
            instants.extend([session.now] * len(records)), notify(records)
        )
        session.drain()
        sizes = [len(list(group)) for _, group in groupby(instants)]
        assert len(instants) == session.stats.n_corrections
        assert sizes == [12, 1, 1, 12, 1, 1, 7, 1, 1, 5, 1, 3, 3, 1]
        want = Histogram()
        for size in sizes:
            want.observe(size)
        assert _storms(tele) == self.PIN == (
            want.count, want.total, want.min, want.max, dict(sorted(want.buckets.items()))
        )
        assert tele.histogram("engine.expire_storm.size").total == session.stats.n_corrections

    def test_a_fold_in_the_middle_of_the_storms_changes_nothing(self):
        """One public call per instant, per hundred seconds of session
        time, or one for everything: the ones are derived fold by fold,
        from what ``n_corrections`` moved since the last one."""
        for drive in ("step", "advance"):
            tele = Telemetry(component="test")
            session = _storm_session(tele)
            while session.n_pending_events:
                if drive == "step":
                    session.step()
                else:
                    session.advance_to(session.now + 100.0)
                storms = tele.histogram("engine.expire_storm.size")
                assert (storms.total if storms else 0) == session.stats.n_corrections
            assert _storms(tele) == self.PIN, drive

    @pytest.mark.parametrize("late", [2, 1])
    def test_a_fault_in_the_last_event_of_the_instant_keeps_the_storm(self, late):
        """The instant's corrections reached the scheduler at their EXPIREs,
        before the fault: the call that raised counts the storm -- of two
        and more from the loop's tally, of one derived -- and the call that
        runs the owed pass adds none."""

        class Flaky(RecentAveragePredictor):
            def predict(self, record, now):
                return float("nan") if record.job_id == 99 else super().predict(record, now)

        tele = Telemetry(component="test")
        session = _storm_session(tele, Flaky(k=2))
        # storms of twelve at 160 and 220, seven at 520, ... job 20 alone at 550 and 1450
        at, owed = {2: (520.0, 7), 1: (1450.0, 1)}[late]
        session.feed(make_job(job_id=99, submit_time=at, runtime=5.0))
        session.advance_to(at - 1.0)
        before = _storms(tele)
        corrections = session.stats.n_corrections
        with pytest.raises(ValueError, match="non-finite"):
            session.advance_to(at)
        assert session._pass_owed
        count, total, *_ = after = _storms(tele)
        assert count == before[0] + 1
        assert total == session.stats.n_corrections == corrections + owed
        session.advance_to(at)  # nothing pending at ``at``: the owed pass
        assert _storms(tele) == after
        session.drain()
        assert _storms(tele) == self.PIN


class TestSizesAreSampled:
    """``engine.sched.queue_length`` and the ``introspect()`` sizes hold
    the passes numbered 1 modulo 16 of the series the parent recorded
    pass by pass: the queue before the pass, the structures after it."""

    @pytest.mark.parametrize("triple_key", TRIPLES)
    def test_the_histograms_are_every_sixteenth_pass_of_the_series(self, triple_key):
        tele = Telemetry(component="test")
        session = _fed_session(_spec(triple_key), tele)
        series: list[dict[str, float]] = []
        select = session.scheduler.select_jobs

        def recording(now, machine):
            sizes = {"queue_length": session.scheduler.queue_length}
            started = select(now, machine)
            series.append(sizes | session.scheduler.introspect(session.machine))
            return started

        session.scheduler.select_jobs = recording
        session.drain()
        assert len(series) == session.stats.n_scheduling_passes > 32
        for name in series[0]:
            want = Histogram()
            for sizes in series[::16]:
                want.observe(sizes[name])
            got = tele.histogram(f"engine.sched.{name}")
            assert got.to_obj() == want.to_obj(), name
            assert got.count == ceil(len(series) / 16)

    def test_the_first_pass_is_sampled_and_the_stride_is_the_sessions(self):
        """Pass numbers are the session's, not the call's: stepping one
        instant a call samples passes 1, 17, 33, ... all the same."""
        tele = Telemetry(component="test")
        session = _fed_session(_spec("ave2|incremental|easy-sjbf"), tele)
        while session.step() is not None:
            passes = session.stats.n_scheduling_passes
            assert tele.histogram("engine.sched.queue_length").count == ceil(passes / 16)
            assert tele.histogram("engine.sched.release_table").count == ceil(passes / 16)

    def test_a_one_pass_session_has_one_sample(self):
        tele = Telemetry(component="test")
        session = SimSession(
            8, make_scheduler("conservative"), RequestedTimePredictor(), telemetry=tele
        )
        session.feed(make_job(job_id=1, submit_time=0.0))
        assert session.step() == 0.0 and session.stats.n_scheduling_passes == 1
        snap = tele.snapshot()
        assert snap["counters"]["engine.sched.passes"] == 1
        for name in ("queue_length", "release_table", "plan_reused"):
            assert snap["histograms"][f"engine.sched.{name}"]["count"] == 1, name
        assert snap["histograms"]["engine.sched.queue_length"]["max"] == 1  # before the pass


def _counted_events(tele: Telemetry) -> float:
    counters = tele.snapshot()["counters"]
    return sum(n for name, n in counters.items() if name.startswith("engine.events."))


def _assert_reconciled(tele: Telemetry, *sessions: SimSession) -> None:
    """The registry says what the sessions' own run counters say."""
    assert tele.counter_value("engine.sched.passes") == sum(
        s.stats.n_scheduling_passes for s in sessions
    )
    assert _counted_events(tele) == sum(s.stats.n_events for s in sessions)


class TestRegistryIsCurrent:
    """The loop counts into a private per-session tally; the registry
    must be exactly current whenever control is outside the session."""

    def test_after_every_public_call(self):
        tele = Telemetry(component="test")
        session = _fed_session(_spec("ave2|incremental|easy-sjbf"), tele)
        completed = 0
        for round_ in range(40):
            assert session.step() is not None
            _assert_reconciled(tele, session)
            session.advance_to(session.now + 600.0 * (round_ % 3))
            _assert_reconciled(tele, session)
            running = sorted(record.job_id for record in session.machine.running)
            if running:
                session.complete(running[0], time=session.now + 1.0)
                completed += 1
                _assert_reconciled(tele, session)
                assert tele.counter_value("predict.finished") == session.machine.n_finished
        assert completed > 10
        session.drain()
        _assert_reconciled(tele, session)
        assert tele.counter_value("predict.finished") == 120
        assert tele.histogram("predict.abs_error.seconds").count == 120
        assert tele.histogram("engine.sched.queue_length").count == ceil(
            session.stats.n_scheduling_passes / 16
        )

    def test_two_sessions_sharing_one_registry_add_up(self):
        spec = _spec("ave2|incremental|easy-sjbf")
        alone = Telemetry(component="test")
        _schedule(spec, alone)
        shared = Telemetry(component="test")
        first, second = _fed_session(spec, shared), _fed_session(spec, shared)
        while first.n_pending_events or second.n_pending_events:
            first.step()
            second.advance_to(first.now)
            _assert_reconciled(shared, first, second)
        want, got = alone.snapshot(), shared.snapshot()
        for name, value in want["counters"].items():
            if name not in TestSnapshotPins.TIMERS:
                assert got["counters"][name] == 2 * value, name
        for name, hist in want["histograms"].items():
            other = got["histograms"][name]
            assert other["count"] == 2 * hist["count"], name
            assert other["sum"] == pytest.approx(2 * hist["sum"], rel=1e-12), name
            assert (other["min"], other["max"]) == (hist["min"], hist["max"]), name
            assert other["buckets"] == {k: 2 * n for k, n in hist["buckets"].items()}

    @pytest.mark.parametrize("telemetry", [None, Telemetry(enabled=False)])
    def test_a_telemetry_off_session_keeps_and_attaches_no_tally(
        self, telemetry, monkeypatch
    ):
        def no_call(*_args):
            raise AssertionError("a telemetry-off session reached the registry")

        for name in ("attach", "inc", "observe"):
            monkeypatch.setattr(Telemetry, name, no_call)
        session = _fed_session(_spec("ave2|incremental|easy-sjbf", 40), telemetry)
        assert session._tally is None
        session.step()
        session.advance_to(session.now + 60.0)
        session.drain()
        snap = session.telemetry.snapshot()
        assert snap["counters"] == {} and snap["histograms"] == {}
        assert not session.telemetry._tallies

    def test_a_failed_instant_keeps_its_consumed_events_on_the_books(self):
        """An event that raises mid-instant never reaches the scheduling
        pass; what the instant consumed (the failing event included) is
        counted on the way out, the re-queued rest when it is processed."""

        class Flaky(RequestedTimePredictor):
            broken = True

            def predict(self, record, now):
                if self.broken and record.job_id == 3:
                    return float("nan")
                return super().predict(record, now)

        tele = Telemetry(component="test")
        predictor = Flaky()
        session = SimSession(8, make_scheduler("easy"), predictor, telemetry=tele)
        session.feed(make_job(job_id=9, submit_time=0.0, runtime=50.0))
        session.advance_to(0.0)
        session.feed([make_job(job_id=i, submit_time=10.0) for i in range(1, 6)])
        with pytest.raises(ValueError, match="non-finite"):
            session.advance_to(10.0)
        assert session.n_pending_events == 3  # jobs 4 and 5, job 9's FINISH
        assert session.stats.n_events == 1 + 3
        assert tele.counter_value("engine.events.submit") == 1 + 3
        _assert_reconciled(tele, session)
        predictor.broken = False
        session.drain()
        assert tele.counter_value("engine.events.submit") == 1 + 5
        assert tele.counter_value("engine.events.finish") == 1 + 4  # not the lost job 3
        _assert_reconciled(tele, session)

    def test_complete_times_the_predictor_like_the_loop_does(self, monkeypatch):
        ticks = iter(range(1000))
        monkeypatch.setattr("repro.sim.session.perf_counter", lambda: float(next(ticks)))
        tele = Telemetry(component="test")
        session = SimSession(
            8, make_scheduler("easy"), RequestedTimePredictor(), telemetry=tele
        )
        session.feed(make_job(job_id=1, submit_time=0.0, runtime=100.0))
        session.advance_to(0.0)  # predict: one tick; the pass: one tick
        assert tele.counter_value("engine.time.predict.seconds") == 1.0
        session.complete(1, time=50.0)  # on_finish: one more tick
        assert tele.counter_value("engine.time.predict.seconds") == 2.0
        assert tele.counter_value("engine.time.sched.seconds") == 2.0


def _count_consumed(session: SimSession):
    """Count, eagerly, the kinds of the events the loop consumed: every
    ``pop_instant`` batch, less what a fault put back (the rest of its
    instant, scheduled again exactly as it was popped).  Returns a function
    reading the counts as the registry names them, with the jobs started."""
    events = session._events
    pop, schedule = events.pop_instant, events.schedule
    batches: list[list] = []
    requeued: Counter = Counter()

    def popped(until=inf):
        batches.append(pop(until))
        return batches[-1]

    def scheduled(time, kind, job_id, version=0):
        if batches and (time, kind, job_id, version) in {
            (entry[0], entry[1], entry[3], entry[4]) for entry in batches[-1]
        }:
            requeued[kind.name.lower()] += 1
        schedule(time, kind, job_id, version)

    events.pop_instant, events.schedule = popped, scheduled

    def counts() -> dict[str, float]:
        kinds = Counter(entry[1].name.lower() for batch in batches for entry in batch)
        kinds.subtract(requeued)
        counts = {f"engine.events.{kind}": float(n) for kind, n in kinds.items() if n}
        started = sum(session.record(job_id).started for job_id in session._records)
        if started:
            counts["engine.sched.jobs_started"] = float(started)
        return counts

    return counts


def _derived(tele: Telemetry) -> dict[str, float]:
    counters = tele.snapshot()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if name.startswith("engine.events.") or name == "engine.sched.jobs_started"
    }


class TestDerivedCounts:
    """The event-kind and start counters are derived from the queue, the
    machine and the stats when read; every read, mid-run too, equals what
    counting each consumed event as it was popped gives."""

    def test_a_read_mid_run_counts_what_was_consumed(self):
        class Flaky(RecentAveragePredictor):
            def predict(self, record, now):
                return float("nan") if record.job_id == 99 else super().predict(record, now)

        tele = Telemetry(component="test")
        session = SimSession(
            8, make_scheduler("easy-sjbf"), Flaky(k=2), make_corrector("incremental"),
            telemetry=tele,
        )
        counts = _count_consumed(session)
        # user 1's jobs ran 10 s: AVE2 predicts 60 s for the 500 s ones, which expire
        session.feed([make_job(job_id=i, submit_time=0.0, runtime=10.0) for i in (1, 2)])
        session.feed(
            make_job(job_id=i, submit_time=100.0 * i, runtime=500.0, processors=3)
            for i in range(3, 9)
        )
        session.advance_to(350.0)
        stream = session._events._stream
        assert len(stream) == 5 and _derived(tele) == counts()  # SUBMITs waiting in the stream
        session.feed(make_job(job_id=20, submit_time=360.0, runtime=30.0))  # behind the stream
        assert session._events.pending_kinds()[EventType.SUBMIT] == len(stream) + 1
        session.advance_to(355.0)
        assert _derived(tele) == counts()  # ... and one on the heap
        running = sorted(record.job_id for record in session.machine.running)
        session.complete(running[0], time=356.0)  # its FINISH, at 800, is stale
        assert _derived(tele) == counts()
        session.feed_machine_event(time=400.0, kind="drain", processors=1)
        session.feed_machine_event(time=450.0, kind="restore", processors=1)
        session.advance_to(450.0)
        assert counts()["engine.events.machine"] == 2.0
        assert _derived(tele) == counts()
        session.feed(make_job(job_id=i, submit_time=500.0) for i in (99, 21))
        with pytest.raises(ValueError, match="non-finite"):
            session.advance_to(500.0)  # 99's SUBMIT is consumed, its job lost; 21's put back
        assert session._events.pending_kinds()[EventType.SUBMIT] == 1 + len(stream)
        assert _derived(tele) == counts()
        session.drain()  # the stale FINISH pops here
        assert _derived(tele) == counts()
        assert counts()["engine.events.expire"] > 0
        # job 3's stale FINISH is one of them; job 99 never ran
        assert counts()["engine.events.finish"] == session.machine.n_finished
        assert sum(v for k, v in counts().items() if k.startswith("engine.events.")) == (
            session.stats.n_events
        )

    def test_a_read_inside_a_call_reports_the_counts_at_rest(self):
        """A read made while a session call runs (here from inside the
        predictor, on the loop's own thread) reports the derived counts as
        they were before the call, never a state the call is half through."""
        tele = Telemetry(component="test")
        session = _fed_session(_spec("ave2|incremental|easy-sjbf"), tele)
        inside: list[dict[str, float]] = []
        predict = session.predictor.predict

        def reading(record, now):
            inside.append(_derived(tele))
            return predict(record, now)

        session.predictor.predict = reading
        calls = 0
        while session.n_pending_events:
            before, n = _derived(tele), len(inside)
            session.advance_to(session.now + 3600.0)
            assert inside[n:] == [before] * (len(inside) - n)
            calls += len(inside) > n
        assert calls > 5 and len(inside) == 120

    def test_reads_beside_a_running_loop_never_raise_and_end_exact(self):
        """The loop runs on one thread, reads on three others: a read beside
        a session call reports the counts derived when the session was last
        at rest, so each reader's reads only grow; the last read is exact."""
        tele = Telemetry(component="test")
        session = _fed_session(_spec("ave2|incremental|easy-sjbf", n_jobs=400), tele)
        counts = _count_consumed(session)
        reads: list[list[dict[str, float]]] = [[], [], []]
        failures: list[BaseException] = []
        done = threading.Event()

        def reader(mine: list[dict[str, float]]) -> None:
            try:
                while not done.is_set():
                    mine.append(_derived(tele))
            except BaseException as exc:  # pragma: no cover - the failure itself
                failures.append(exc)

        threads = [threading.Thread(target=reader, args=(mine,)) for mine in reads]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            while not all(reads) and all(thread.is_alive() for thread in threads):
                time.sleep(1e-3)  # every reader has read once before the loop starts
            while session.n_pending_events:  # calls of an hour of session time each
                session.advance_to(session.now + 3600.0)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not failures and not any(thread.is_alive() for thread in threads)
        final = _derived(tele)
        assert final == counts()
        assert sum(map(len, reads)) > 10
        for mine in reads:
            for before, after in zip([{}, *mine], [*mine, final]):
                for name, value in after.items():
                    assert before.get(name, 0) <= value <= final[name], name


class TestTallyIsBounded:
    def test_one_drain_of_3000_jobs_holds_8_bytes_a_job_until_read(self):
        """What a session keeps for its whole life is bounded by the
        machine and the queue, not by how many jobs it processed; between
        reads it holds one float per finished job, which the read folds."""
        tele = Telemetry(component="test")
        session = _fed_session(_spec("ave2|incremental|easy-sjbf", n_jobs=3000), tele)
        session.drain()
        tally = session._tally
        assert tele._tallies == [tally]  # attached once, at construction
        assert len(tally.errors) == 3000 and tally.errors.itemsize == 8
        assert tally.abs_error.count == 0
        assert tele.counter_value("predict.finished") == 3000
        assert len(tally.errors) == 0 and tally.abs_error.count == 3000
        n_buckets = len(tally.abs_error.buckets)
        bound = session.stats.max_queue_length + session.machine.processors + n_buckets
        assert bound < 3000 // 4
        assert 0 < len(tally.samples) <= bound and len(tally.counts) == 6
        assert tele.counter_value("predict.finished") == 3000  # a second read folds nothing new

    def test_dropped_sessions_retire_into_the_registry(self):
        """500 sessions built and dropped on one registry: the registry
        keeps only the tallies of sessions still alive, and its totals are
        500 times one session's."""
        spec = _spec("ave2|incremental|easy-sjbf", n_jobs=20)
        trace = build_workload(spec.workload)

        def drained(telemetry: Telemetry) -> None:
            session = SimSession(trace.processors, *spec.build_components(), telemetry=telemetry)
            session.feed(trace)
            session.drain()

        alone = Telemetry(component="test")
        drained(alone)
        shared = Telemetry(component="test")
        for _ in range(500):
            drained(shared)
            assert len(shared._tallies) <= 2  # an attach retires what was collected
        gc.collect()
        shared.snapshot()
        assert shared._tallies == []
        want, got = alone.snapshot(), shared.snapshot()
        for name, value in want["counters"].items():
            if name not in TestSnapshotPins.TIMERS:
                assert got["counters"][name] == 500 * value, name
        assert set(got["histograms"]) == set(want["histograms"])
        for name, hist in want["histograms"].items():
            other = got["histograms"][name]
            assert other["count"] == 500 * hist["count"], name
            assert (other["min"], other["max"]) == (hist["min"], hist["max"]), name
            assert other["buckets"] == {k: 500 * n for k, n in hist["buckets"].items()}, name


class TestCellReport:
    def test_report_always_carries_seconds(self):
        score, report = run_cell_report(_spec("requested|none|easy", 40))
        assert score > 0
        assert report["seconds"] > 0
        assert "telemetry" not in report

    def test_with_telemetry_ships_a_picklable_snapshot(self):
        _score, report = run_cell_report(
            _spec("requested|none|easy", 40), with_telemetry=True
        )
        snap = json.loads(json.dumps(report["telemetry"]))
        assert snap["component"] == "cell"
        assert snap["counters"]["engine.events.submit"] == 40


class TestCampaignTelemetry:
    def test_run_cells_folds_cell_metrics_home(self, tmp_path):
        cells = [_spec(key, 40) for key in ("requested|none|easy",
                                            "requested|none|easy-sjbf")]
        tele = Telemetry(component="campaign")
        result = run_cells(cells, workers=1, telemetry=tele)
        assert tele.counter_value("campaign.cells.total") == 2
        assert tele.counter_value("campaign.cells.simulated") == 2
        assert tele.counter_value("campaign.cells.cached") == 0
        # per-cell engine counters came home through snapshots
        assert tele.counter_value("engine.events.submit") == 80
        assert tele.histogram("campaign.cell.seconds").count == 2
        assert tele.histogram("campaign.dispatch.seconds").count == 1
        assert len(result.durations) == 2
        assert all(seconds > 0 for seconds in result.durations.values())

    def test_cached_cells_skip_simulation_counters(self, tmp_path):
        cells = [_spec("requested|none|easy", 40)]
        cache = str(tmp_path / "cache.jsonl")
        run_cells(cells, cache_path=cache, workers=1)
        tele = Telemetry(component="campaign")
        result = run_cells(cells, cache_path=cache, workers=1, telemetry=tele)
        assert tele.counter_value("campaign.cells.cached") == 1
        assert tele.counter_value("campaign.cells.simulated") == 0
        assert result.durations == {}
        board = result.leaderboard()
        assert board[0].mean_seconds is None  # nothing simulated this run

    def test_leaderboard_timing_column(self):
        cells = [_spec(key, 40) for key in ("requested|none|easy",
                                            "requested|none|easy-sjbf")]
        result = run_cells(cells, workers=1)
        board = result.leaderboard()
        assert [row.mean_score for row in board] == sorted(
            row.mean_score for row in board
        )
        assert all(row.n_cells == 1 for row in board)
        assert all(row.mean_seconds > 0 for row in board)
