"""Streaming session API: equivalence with batch, monotonicity, queries,
machine events and external completions."""

import json

import pytest

from repro.core.triples import EASYPP_TRIPLE, paper_cells
from repro.correct import IncrementalCorrector
from repro.correct.base import Corrector
from repro.predict import (
    ClairvoyantPredictor,
    RecentAveragePredictor,
    RequestedTimePredictor,
)
from repro.predict.base import Predictor
from repro.sched import EasyScheduler, make_scheduler
from repro.sim import (
    Event,
    EventType,
    MachineEvent,
    MonotonicityError,
    SimSession,
    simulate,
)
from repro.sim.timeline import occupancy_timeline
from repro.spec import CellSpec, triple_keys_of
from repro.workload import Trace, get_trace

from tests.helpers import make_job
from tests.sched.test_plan_reuse import assert_queries_exact

NAN = float("nan")


def schedule_bytes(result) -> bytes:
    """Canonical byte serialisation of a per-job schedule."""
    rows = sorted(
        (r.job_id, r.start_time, r.end_time, r.corrections) for r in result
    )
    return json.dumps(rows).encode("utf-8")


def _late_nan(job):
    """``Job`` refuses a NaN when it is built; a field set afterwards is
    still ``feed``'s to refuse."""
    job.submit_time = NAN
    return job


def build(triple: str) -> tuple:
    """Fresh ``(scheduler, predictor, corrector)`` for a triple key."""
    return CellSpec.from_triple("KTH-SP2", triple).build_components()


def make_session(triple: str, processors: int) -> SimSession:
    return SimSession(processors, *build(triple))


def stream_trace(session: SimSession, trace: Trace) -> None:
    """Feed a trace the streaming way: one submit-time group at a time,
    advancing the clock to each group's instant before the next feed."""
    group: list = []
    for job in trace:
        if group and job.submit_time != group[0].submit_time:
            session.feed(group)
            session.advance_to(group[0].submit_time)
            group = []
        group.append(job)
    if group:
        session.feed(group)
        session.advance_to(group[0].submit_time)
    session.drain()


@pytest.fixture(scope="module")
def stream_kth() -> Trace:
    return get_trace("KTH-SP2", n_jobs=60)


class TestBatchStreamingEquivalence:
    """A streamed session must be byte-identical to ``simulate()``."""

    # every 16th of the 128-triple campaign matrix, plus the references
    SAMPLE = triple_keys_of(paper_cells(("KTH-SP2",), n_jobs=60, replicas=1))[
        :128:16
    ] + [
        "clairvoyant|none|easy",
        "requested|none|conservative",
        "ave2|incremental|conservative",
    ]

    @pytest.mark.parametrize("triple", SAMPLE)
    def test_streamed_schedule_matches_batch(self, stream_kth, triple):
        batch = simulate(stream_kth, *build(triple))

        session = make_session(triple, stream_kth.processors)
        stream_trace(session, stream_kth)
        assert schedule_bytes(session.result()) == schedule_bytes(batch)

    def test_single_feed_then_drain_matches_batch(self, stream_kth):
        batch = simulate(stream_kth, *build(EASYPP_TRIPLE))

        session = make_session(EASYPP_TRIPLE, stream_kth.processors)
        assert session.feed(stream_kth) == len(stream_kth)
        session.drain()
        assert schedule_bytes(session.result()) == schedule_bytes(batch)

    def test_step_by_step_matches_batch(self, tiny_trace):
        batch = simulate(
            tiny_trace, make_scheduler("easy"), ClairvoyantPredictor()
        )
        session = SimSession(
            tiny_trace.processors, make_scheduler("easy"), ClairvoyantPredictor()
        )
        session.feed(tiny_trace)
        timestamps = []
        while (t := session.step()) is not None:
            timestamps.append(t)
        assert timestamps == sorted(timestamps)
        assert schedule_bytes(session.result()) == schedule_bytes(batch)


class TestMonotonicity:
    def test_feed_behind_clock_raises(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(make_job(job_id=1, submit_time=100.0))
        session.advance_to(100.0)
        with pytest.raises(MonotonicityError):
            session.feed(make_job(job_id=2, submit_time=50.0))

    def test_advance_backwards_raises(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.advance_to(100.0)
        with pytest.raises(MonotonicityError):
            session.advance_to(99.0)

    def test_machine_event_behind_clock_raises(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.advance_to(10.0)
        with pytest.raises(MonotonicityError):
            session.feed_machine_event(time=5.0, kind="drain", processors=1)

    def test_advance_to_now_is_a_noop(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.advance_to(10.0)
        assert session.advance_to(10.0) == 0
        assert session.now == 10.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: s.advance_to(NAN),
            lambda s: s.complete(1, NAN),
            lambda s: s.feed(_late_nan(make_job(job_id=3))),
            lambda s: s.feed_machine_event(time=NAN, kind="drain", processors=1),
            lambda s: s.feed_machine_event(MachineEvent(NAN, "drain", 1)),
        ],
        ids=["advance_to", "complete", "feed", "machine_fields", "machine_object"],
    )
    def test_nan_time_is_refused_before_any_state_is_touched(self, call):
        """``nan < now`` is false, so a ``<`` guard waves NaN through to the
        clock; every entry point says so by name and leaves the session --
        one job running, one fed 5 000 s ahead -- exactly as it was."""
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(make_job(job_id=1, runtime=1000.0))
        session.feed(make_job(job_id=2, submit_time=5000.0))
        session.advance_to(10.0)
        before = session.snapshot()
        with pytest.raises(MonotonicityError, match="t=nan"):
            call(session)
        assert session.snapshot() == before
        assert session.n_jobs == 2 and session.now == 10.0
        assert not session.record(2).started
        session.drain()  # and it still runs dry on a finite clock
        assert session.now == 5000.0 + session.record(2).runtime

    def test_infinite_times_stay_legal_at_the_python_api(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(make_job(job_id=1))
        assert session.advance_to(float("inf")) == 2
        assert session.now == float("inf") and session.record(1).finished

    def test_clock_advances_even_without_events(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        assert session.now == 0.0
        session.advance_to(1000.0)
        assert session.now == 1000.0

    def test_duplicate_job_id_rejected(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(make_job(job_id=7))
        with pytest.raises(ValueError, match="already fed"):
            session.feed(make_job(job_id=7, submit_time=10.0))

    @pytest.mark.parametrize("scheduler", ["easy", "fcfs", "conservative"])
    def test_a_job_wider_than_the_machine_is_refused_at_feed(self, scheduler):
        """It could never start: under ``easy`` / ``fcfs`` it would hold
        the queue forever (``drain()`` returning normally), ``conservative``
        would skip it silently.  Refused by name before anything is
        stored -- the rest of its feed included -- while a job only the
        *drained* machine is too small for stays legal: a restore starts it."""
        session = SimSession(4, make_scheduler(scheduler), RequestedTimePredictor())
        session.feed(make_job(job_id=1, runtime=1000.0, processors=2))
        session.feed_machine_event(kind="drain", processors=2)
        session.advance_to(10.0)
        before = session.snapshot()
        with pytest.raises(ValueError, match="job 3 requests 5 processors .* only has 4"):
            session.feed(
                [make_job(job_id=3, submit_time=20.0, processors=5),
                 make_job(job_id=4, submit_time=20.0, processors=2)]
            )
        assert session.snapshot() == before and session.n_jobs == 1
        session.feed(make_job(job_id=2, submit_time=20.0, processors=4))  # held, not refused
        session.feed_machine_event(time=5000.0, kind="restore", processors=2)
        session.drain()
        assert session.record(2).start_time == 5000.0


class TestMidStreamFeed:
    def test_feed_after_advance(self):
        """Jobs can arrive while earlier ones run -- the live-session use."""
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(make_job(job_id=1, submit_time=0.0, runtime=100.0))
        session.advance_to(50.0)
        assert session.machine.is_running(1)
        session.feed(make_job(job_id=2, submit_time=50.0, runtime=100.0))
        session.feed(make_job(job_id=3, submit_time=120.0, runtime=100.0))
        session.drain()
        result = session.result()
        by_id = {r.job_id: r for r in result}
        assert len(result) == 3
        assert by_id[2].start_time == 50.0  # room alongside job 1
        assert by_id[3].start_time == 120.0

    def test_mid_stream_feed_matches_batch(self, stream_kth):
        """Streaming half the trace, draining to the midpoint, then
        feeding the rest still reproduces the batch schedule (every job
        is fed before the clock passes its submit time)."""
        batch = simulate(stream_kth, *build(EASYPP_TRIPLE))

        session = make_session(EASYPP_TRIPLE, stream_kth.processors)
        jobs = list(stream_kth)
        half = len(jobs) // 2
        session.feed(jobs[:half])
        # advance close to the second half, but not past its first submit
        session.advance_to(jobs[half].submit_time)
        session.feed(jobs[half:])
        session.drain()
        assert schedule_bytes(session.result()) == schedule_bytes(batch)


class TestQueries:
    def test_query_is_side_effect_free(self, stream_kth):
        """Interleaving queries into a streamed run must not change a
        single byte of the schedule."""
        plain = make_session(EASYPP_TRIPLE, stream_kth.processors)
        stream_trace(plain, stream_kth)

        probed = make_session(EASYPP_TRIPLE, stream_kth.processors)
        probe = make_job(job_id=10**9, submit_time=0.0, runtime=600.0,
                         processors=2, requested_time=1200.0)
        for job in stream_kth:
            probed.feed(job)
            probed.advance_to(job.submit_time)
            probed.query(job_id=job.job_id)  # fed job
            probed.query(probe)  # hypothetical
        probed.drain()
        assert schedule_bytes(probed.result()) == schedule_bytes(plain.result())

    def test_query_states(self):
        session = SimSession(2, make_scheduler("easy"), ClairvoyantPredictor())
        session.feed(
            [
                make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=2,
                         requested_time=100.0),
                make_job(job_id=2, submit_time=0.0, runtime=100.0, processors=2,
                         requested_time=100.0),
            ]
        )
        session.advance_to(0.0)
        running = session.query(job_id=1)
        assert running.state == "running"
        assert running.start_time == 0.0
        waiting = session.query(job_id=2)
        assert waiting.state == "waiting"
        assert waiting.start_time == 100.0  # behind job 1 on a full machine
        assert waiting.wait == 100.0
        session.drain()
        finished = session.query(job_id=2)
        assert finished.state == "finished"
        assert finished.start_time == 100.0

    def test_hypothetical_query(self):
        session = SimSession(2, make_scheduler("easy"), ClairvoyantPredictor())
        session.feed(
            make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=2,
                     requested_time=100.0)
        )
        session.advance_to(0.0)
        ghost = make_job(job_id=99, submit_time=0.0, runtime=60.0, processors=1,
                         requested_time=120.0)
        answer = session.query(ghost)
        assert answer.state == "hypothetical"
        assert answer.start_time == 100.0  # machine is full until then
        assert 99 not in [r.job_id for r in session.result(partial=True)]
        assert session.n_jobs == 1  # the probe was never fed

    def test_query_unsubmitted_job_raises(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(make_job(job_id=1, submit_time=100.0))
        with pytest.raises(ValueError, match="not yet submitted"):
            session.query(job_id=1)

    def test_query_unknown_job_raises(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        with pytest.raises(ValueError, match="never fed"):
            session.query(job_id=42)
        with pytest.raises(ValueError, match="job or a job_id"):
            session.query()

    def test_conservative_clairvoyant_query_is_exact(self):
        """Under conservative backfilling with exact predictions, the
        estimate at submit time IS the start time the batch run produces
        (runtimes >= min_prediction so clamping never bites)."""
        base = get_trace("KTH-SP2", n_jobs=40)
        jobs = [
            job.with_updates(
                runtime=max(job.runtime, 60.0),
                requested_time=max(job.requested_time, 60.0),
            )
            for job in base
        ]
        trace = Trace(jobs, processors=base.processors, name="clamped")
        session = SimSession(
            trace.processors, make_scheduler("conservative"), ClairvoyantPredictor()
        )
        estimates = {}
        for job in trace:
            session.feed(job)
            session.advance_to(job.submit_time)
            estimates[job.job_id] = session.query(job_id=job.job_id).start_time
        session.drain()
        for record in session.result():
            assert estimates[record.job_id] == record.start_time


class TestMachineEvents:
    def test_drain_removes_free_capacity(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed_machine_event(time=0.0, kind="drain", processors=2)
        session.feed(
            make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=3,
                     requested_time=200.0)
        )
        session.advance_to(0.0)
        snap = session.snapshot()
        assert snap.free == 2  # 4 minus the 2 drained; the 3-wide job waits
        assert snap.drained == 2
        assert snap.waiting and snap.waiting[0][0] == 1

    def test_restore_reenables_scheduling(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed_machine_event(time=0.0, kind="drain", processors=2)
        session.feed(
            make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=3,
                     requested_time=200.0)
        )
        session.advance_to(0.0)
        session.feed_machine_event(time=50.0, kind="restore", processors=2)
        session.drain()
        record = session.record(1)
        assert record.start_time == 50.0
        assert session.machine.drained == 0

    def test_drain_wider_than_free_rejected(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(
            make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=3,
                     requested_time=200.0)
        )
        session.advance_to(0.0)  # job 1 running, 1 processor free
        with pytest.raises(ValueError, match="drain"):
            session.feed_machine_event(time=10.0, kind="drain", processors=2)
            session.advance_to(10.0)

    def test_event_validation(self):
        with pytest.raises(ValueError, match="kind"):
            MachineEvent(time=0.0, kind="explode", processors=1)
        with pytest.raises(ValueError, match="processors"):
            MachineEvent(time=0.0, kind="drain", processors=0)

    def test_conservative_resyncs_on_capacity_change(self):
        """The conservative scheduler's plan must absorb a capacity
        change, not keep planning on the old machine size."""
        session = SimSession(
            4, make_scheduler("conservative"), RequestedTimePredictor()
        )
        session.feed(
            [
                make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=4,
                         requested_time=100.0),
                make_job(job_id=2, submit_time=0.0, runtime=100.0, processors=4,
                         requested_time=100.0),
            ]
        )
        session.advance_to(0.0)
        session.feed_machine_event(time=100.0, kind="drain", processors=2)
        session.drain()
        # job 2 needs 4 processors but 2 are drained: it can never start
        assert not session.record(2).started
        assert session.record(1).finished


class TestExternalCompletion:
    def test_complete_overrides_simulated_runtime(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(
            make_job(job_id=1, submit_time=0.0, runtime=100.0,
                     requested_time=200.0)
        )
        session.advance_to(0.0)
        record = session.complete(1, time=70.0)
        assert record.finished
        assert record.runtime == 70.0
        assert record.end_time == 70.0
        session.drain()  # the stale simulated FINISH at t=100 is dropped
        assert session.result()[0].end_time == 70.0

    def test_complete_frees_processors_for_waiters(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(
            [
                make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=4,
                         requested_time=100.0),
                make_job(job_id=2, submit_time=0.0, runtime=50.0, processors=4,
                         requested_time=50.0),
            ]
        )
        session.advance_to(0.0)
        session.complete(1, time=30.0)
        assert session.record(2).start_time == 30.0

    def test_complete_teaches_the_predictor(self):
        predictor = RecentAveragePredictor(2)
        session = SimSession(4, make_scheduler("easy"), predictor,
                             IncrementalCorrector())
        session.feed(
            make_job(job_id=1, submit_time=0.0, runtime=1000.0,
                     requested_time=2000.0, user=5)
        )
        session.advance_to(0.0)
        session.complete(1, time=400.0)
        follow_up = make_job(job_id=2, submit_time=400.0, runtime=1000.0,
                             requested_time=2000.0, user=5)
        probe = session.query(follow_up)
        assert probe.predicted_runtime == 400.0  # learned from the completion

    def test_complete_not_running_raises(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(make_job(job_id=1, submit_time=10.0, runtime=100.0))
        with pytest.raises(ValueError, match="not running"):
            session.complete(1, time=5.0)

    def test_complete_after_finish_is_idempotent(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(
            make_job(job_id=1, submit_time=0.0, runtime=100.0,
                     requested_time=200.0)
        )
        session.drain()
        record = session.complete(1, time=150.0)
        assert record.end_time == 100.0  # simulated finish already happened

    def test_observe_completion_updates_predictor_only(self):
        predictor = RecentAveragePredictor(2)
        session = SimSession(4, make_scheduler("easy"), predictor)
        history = make_job(job_id=500, submit_time=0.0, runtime=900.0,
                           requested_time=1800.0, user=9)
        session.observe_completion(history, 900.0)
        assert session.n_jobs == 0  # never entered the schedule
        probe = make_job(job_id=1, submit_time=0.0, runtime=1.0,
                         requested_time=1800.0, user=9)
        assert session.query(probe).predicted_runtime == 900.0


class TestSnapshotAndResult:
    def test_snapshot_fields(self, tiny_trace):
        session = SimSession(
            tiny_trace.processors, make_scheduler("easy"), ClairvoyantPredictor()
        )
        session.feed(tiny_trace)
        session.advance_to(0.0)
        snap = session.snapshot()
        assert snap.now == 0.0
        assert snap.processors == 4
        assert snap.scheduler == "easy"
        assert snap.predictor == "clairvoyant"
        assert snap.corrector == "none"
        assert len(snap.running) + len(snap.waiting) == 3
        assert snap.n_finished == 0
        assert snap.n_pending_events > 0

    def test_partial_result(self, tiny_trace):
        session = SimSession(
            tiny_trace.processors, make_scheduler("easy"), ClairvoyantPredictor()
        )
        session.feed(tiny_trace)
        session.advance_to(90.0)  # job 3 done, jobs 1-2 not yet
        partial = session.result(partial=True)
        assert [r.job_id for r in partial] == [3]
        session.drain()
        assert len(session.result()) == 3


class TestBatchResultStats:
    def test_result_stats_track_session(self, tiny_trace):
        """``simulate()`` hands back the drained session's run counters."""
        result = simulate(tiny_trace, make_scheduler("easy"), ClairvoyantPredictor())
        assert len(result) == 3
        assert result.stats.n_events > 0
        assert result.stats.max_queue_length >= 1


class _Spy:
    """Test doubles sharing one call log: a predictor returning a fixed
    prediction per job, a corrector that doubles, an EASY scheduler."""

    def __init__(self, predictions: dict[int, float]) -> None:
        log = self.log = []

        class SpyPredictor(Predictor):
            name = "spy"

            def predict(self, record, now):
                log.append(f"predict {record.job_id}")
                return predictions[record.job_id]

            def on_finish(self, record, now):
                log.append(f"learn {record.job_id}")

        class SpyCorrector(Corrector):
            name = "spy"

            def correct(self, record, now):
                log.append(f"correct {record.job_id}")
                return 2.0 * record.predicted_runtime

        class SpyScheduler(EasyScheduler):
            def on_submit(self, record):
                log.append(f"on_submit {record.job_id}")
                super().on_submit(record)

            def on_finish(self, record):
                log.append(f"on_finish {record.job_id}")
                super().on_finish(record)

            def on_corrections(self, records):
                log.append(f"on_corrections {[r.job_id for r in records]}")
                super().on_corrections(records)

            def on_machine_change(self, now, machine):
                log.append("on_machine_change")
                super().on_machine_change(now, machine)

            def select_jobs(self, now, machine):
                log.append("select_jobs")
                return super().select_jobs(now, machine)

        self.session = SimSession(8, SpyScheduler(), SpyPredictor(), SpyCorrector())


class TestOneInstant:
    """The flat loop: a whole timestamp per queue call, dispatched in
    FINISH < EXPIRE < SUBMIT < MACHINE order, each correction reported to
    the scheduler at its EXPIRE, then one scheduling pass."""

    def test_all_four_kinds_in_order_one_batch_one_pass(self):
        spy = _Spy({1: 100.0, 2: 100.0, 3: 100.0, 4: 60.0})
        session = spy.session
        session.feed(
            [
                make_job(job_id=1, submit_time=0.0, runtime=100.0, requested_time=900.0),
                make_job(job_id=2, submit_time=0.0, runtime=300.0, requested_time=900.0),
                make_job(job_id=3, submit_time=0.0, runtime=300.0, requested_time=900.0),
            ]
        )
        session.advance_to(0.0)
        # fed out of kind order on purpose: MACHINE first, then the SUBMIT
        session.feed_machine_event(time=100.0, kind="drain", processors=1)
        session.feed(make_job(job_id=4, submit_time=100.0, runtime=10.0, requested_time=900.0))
        del spy.log[:]
        before = session.stats.n_scheduling_passes
        assert session.step() == 100.0
        assert spy.log == [
            "on_finish 1", "learn 1",          # FINISH: the scheduler first
            "correct 2", "on_corrections [2]",  # EXPIRE, insertion order, each
            "correct 3", "on_corrections [3]",  # reported as it lands
            "predict 4", "on_submit 4",        # SUBMIT
            "on_machine_change",               # MACHINE
            "select_jobs",                     # one pass for the instant
        ]
        assert session.stats.n_scheduling_passes == before + 1
        assert session.stats.n_events == 3 + 5
        assert session.stats.n_corrections == 2
        assert session.record(2).predicted_runtime == 200.0
        assert session.record(2).version == 1
        assert session.machine.drained == 1
        assert session.record(4).start_time == 100.0

    def test_expire_made_stale_by_a_newer_correction_is_dropped(self):
        spy = _Spy({1: 100.0})
        session = spy.session
        session.feed(make_job(job_id=1, submit_time=0.0, runtime=300.0, requested_time=900.0))
        session.advance_to(100.0)  # corrected once: version 1, next EXPIRE at t=200
        assert session.record(1).version == 1
        # a leftover EXPIRE of the superseded prediction (version 0)
        session._events.push(Event(150.0, EventType.EXPIRE, 1, 0))
        del spy.log[:]
        assert session.step() == 150.0
        assert spy.log == ["select_jobs"]  # nothing corrected, still one pass
        assert session.record(1).corrections == 1
        session.drain()
        assert session.record(1).corrections == 2  # t=200 -> 400 >= runtime
        assert session.stats.n_corrections == 2

    def test_expire_and_finish_after_external_complete_are_dropped(self):
        spy = _Spy({1: 100.0})
        session = spy.session
        session.feed(make_job(job_id=1, submit_time=0.0, runtime=300.0, requested_time=900.0))
        session.advance_to(0.0)
        session.complete(1, time=50.0)
        del spy.log[:]
        session.drain()  # EXPIRE at t=100 and FINISH at t=300 are both stale
        assert spy.log == ["select_jobs", "select_jobs"]
        record = session.record(1)
        assert (record.corrections, record.end_time, record.runtime) == (0, 50.0, 50.0)
        assert session.stats.n_corrections == 0

    def test_failing_event_leaves_the_rest_of_the_instant_pending(self):
        session = SimSession(4, make_scheduler("easy"), RequestedTimePredictor())
        session.feed(make_job(job_id=1, submit_time=0.0, runtime=100.0, processors=3,
                              requested_time=200.0))
        session.advance_to(0.0)  # 1 processor free
        session.feed_machine_event(time=10.0, kind="drain", processors=2)  # too wide
        session.feed_machine_event(time=10.0, kind="drain", processors=1)
        with pytest.raises(ValueError, match="drain"):
            session.advance_to(10.0)
        assert session.n_pending_events == 2  # the second drain and job 1's FINISH
        events_so_far = session.stats.n_events
        session.advance_to(10.0)
        assert session.machine.drained == 1
        assert session.stats.n_events == events_so_far + 1

    def test_missing_corrector_and_non_finite_prediction_still_raise(self):
        spy = _Spy({1: 100.0, 2: float("nan")})
        spy.session.corrector = None
        spy.session.feed(make_job(job_id=1, submit_time=0.0, runtime=300.0, requested_time=900.0))
        with pytest.raises(RuntimeError, match="no correction mechanism"):
            spy.session.drain()
        spy.session.feed(make_job(job_id=2, submit_time=500.0, runtime=10.0))
        with pytest.raises(ValueError, match="non-finite"):
            spy.session.drain()


class _FaultyAve2(RecentAveragePredictor):
    """AVE2 whose ``on_finish`` raises on the listed calls, before it learns."""

    def __init__(self, fail_on: set[int]) -> None:
        super().__init__(k=2)
        self.fail_on = fail_on
        self.calls = 0

    def on_finish(self, record, now):
        self.calls += 1
        if self.calls in self.fail_on:
            raise OSError(f"model store unreachable on call {self.calls}")
        super().on_finish(record, now)


class TestFaultRecovery:
    """A FINISH whose ``predictor.on_finish`` raises: the machine drops
    the job's release as it frees its processors, and the session tells
    the scheduler of the finish right after, before the predictor learns,
    so a fault there cannot leave a carried plan that still counts on the
    finished job."""

    @staticmethod
    def faulty_session(scheduler):
        trace = get_trace("KTH-SP2", n_jobs=400)
        session = SimSession(
            trace.processors,
            make_scheduler(scheduler),
            _FaultyAve2({20, 57, 130}),
            IncrementalCorrector(),
        )
        session.feed(list(trace))
        return trace, session

    @pytest.mark.parametrize("scheduler", ["easy", "easy-sjbf", "conservative"])
    def test_session_survives_a_predictor_failing_in_on_finish(self, scheduler):
        trace, session = self.faulty_session(scheduler)
        faults = 0
        while session.n_pending_events:
            try:
                session.drain()
            except OSError:
                faults += 1
                session.machine.check_invariants()
        assert faults == 3
        session.machine.check_invariants()
        result = session.result()  # raises unless every job finished
        assert len(result) == 400
        _times, busy = occupancy_timeline(result)
        assert busy.max() <= trace.processors
        assert session.scheduler.introspect(session.machine)["release_table"] == 0

    @pytest.mark.parametrize("scheduler", ["easy", "easy-sjbf", "conservative"])
    def test_queries_plan_on_the_machine_straight_after_the_fault(self, scheduler):
        """Before any pass runs, the machine's table holds what it runs,
        release for release (equal ends in job-id order, the sort in width
        order), and every answer is the one rebuilt from the machine."""
        _trace, session = self.faulty_session(scheduler)
        faults = 0
        while session.n_pending_events:
            try:
                session.drain()
            except OSError:
                faults += 1
                now, machine = session.now, session.machine
                releases = machine.releases.releases(now)
                assert sorted(releases) == machine.predicted_releases(now)
                assert_queries_exact(session, make_job(job_id=10**6, submit_time=now))
        assert faults == 3


class _FailsOnJob1(RequestedTimePredictor):
    def on_finish(self, record, now):
        if record.job_id == 1:
            raise OSError("model store unreachable")


class TestOwedPass:
    """A fault in the *last* event of an instant used to take the
    instant's scheduling pass with it: the freed processors sat idle
    until some unrelated event brought the next pass.  The pass is owed,
    and the next public call of any kind runs it first, at the instant
    it belongs to."""

    RECOVER = {
        "step": lambda s: s.step(),
        "advance_to": lambda s: s.advance_to(10.0),
        "drain": lambda s: s.drain(),
        "complete": lambda s: s.complete(9, 20.0),
    }

    @pytest.mark.parametrize("recover", RECOVER)
    @pytest.mark.parametrize("scheduler", ["easy", "conservative"])
    def test_a_waiting_job_starts_at_the_instant_of_the_fault(self, scheduler, recover):
        session = SimSession(6, make_scheduler(scheduler), _FailsOnJob1())
        session.feed(make_job(job_id=9, runtime=1000.0, processors=2, requested_time=1000.0))
        session.feed(make_job(job_id=1, runtime=10.0, processors=4, requested_time=10.0))
        session.feed(make_job(job_id=2, submit_time=1.0, runtime=50.0, processors=4))
        session.feed(make_job(job_id=3, submit_time=500.0, processors=1))  # unrelated
        with pytest.raises(OSError):
            session.advance_to(100.0)
        # job 1's FINISH was alone in its instant: 4 processors free, job 2 waiting
        assert session.now == 10.0 and session.machine.free == 4
        assert not session.record(2).started
        passes = session.stats.n_scheduling_passes
        self.RECOVER[recover](session)
        assert session.record(2).start_time == 10.0
        if recover == "advance_to":  # nothing else was pending up to t=10
            assert session.stats.n_scheduling_passes == passes + 1
        session.drain()
        assert len(session.result()) == 4

    def test_a_fault_inside_complete_owes_its_pass_too(self):
        """The machine has let the job go when ``predictor.on_finish``
        raises: the retry finds it finished, and still runs the pass."""
        session = SimSession(4, make_scheduler("easy"), _FailsOnJob1())
        session.feed(make_job(job_id=1, runtime=1000.0, processors=4, requested_time=1000.0))
        session.feed(make_job(job_id=2, submit_time=1.0, runtime=50.0, processors=4))
        session.advance_to(5.0)
        with pytest.raises(OSError):
            session.complete(1, 10.0)
        assert session.machine.free == 4 and not session.record(2).started
        assert session.complete(1, 10.0).end_time == 10.0
        assert session.record(2).start_time == 10.0

    def test_a_fault_with_events_left_in_the_instant_owes_nothing(self):
        """The re-queued rest of the instant brings its own pass."""
        session = SimSession(6, make_scheduler("easy"), _FailsOnJob1())
        session.feed(make_job(job_id=1, runtime=10.0, processors=4, requested_time=10.0))
        session.feed(make_job(job_id=2, submit_time=10.0, runtime=50.0, processors=4))
        with pytest.raises(OSError):
            session.advance_to(10.0)
        passes = session.stats.n_scheduling_passes
        assert session.advance_to(10.0) == 1
        assert session.stats.n_scheduling_passes == passes + 1
        assert session.record(2).start_time == 10.0


class _Fixed(Predictor):
    """A fixed prediction per job id."""

    name = "fixed"

    def __init__(self, predictions: dict[int, float]) -> None:
        self.predictions = predictions

    def predict(self, record, now):
        return self.predictions[record.job_id]


class TestACorrectionReachesTheSchedulerAtItsExpire:
    """Job 1 (6 of 8 processors) is predicted to end at 100; ``incremental``
    corrects it at 100 to 160, and a drain of 20 processors in the same
    instant raises, so the instant's pass is owed.  A query in between must
    already plan on 160: the scheduler heard of the correction at its
    EXPIRE, not at the pass the fault took with it."""

    @pytest.mark.parametrize("scheduler", ["easy-sjbf", "conservative"])
    def test_a_query_after_a_fault_in_the_instant_plans_on_the_correction(self, scheduler):
        session = SimSession(
            8, make_scheduler(scheduler), _Fixed({1: 100.0, 2: 100.0}), IncrementalCorrector()
        )
        session.feed(make_job(job_id=1, runtime=300.0, processors=6, requested_time=1000.0))
        session.feed(make_job(job_id=2, submit_time=10.0, runtime=50.0, processors=8))
        session.feed_machine_event(time=100.0, kind="drain", processors=20)
        with pytest.raises(ValueError, match="cannot drain 20 processors"):
            session.advance_to(100.0)
        assert session.machine.predicted_releases(100.0) == [(160.0, 6)]
        assert session.query(job_id=2).start_time >= 160.0
        assert session._pass_owed and session.stats.n_corrections == 1


class _FailsToStartJob1(_Fixed):
    """Its ``on_start`` raises the first time it is handed job 1."""

    def __init__(self, predictions: dict[int, float]) -> None:
        super().__init__(predictions)
        self.started: list[int] = []

    def on_start(self, record, now):
        if record.job_id == 1 and not self.started.count(-1):
            self.started.append(-1)
            raise OSError("model store unreachable")
        self.started.append(record.job_id)


class TestAFaultInOnStart:
    """A pass selects three 2-wide jobs on 8 processors and the predictor's
    ``on_start`` raises on the first: every selected job is already on the
    machine with its FINISH (and its EXPIRE, when due) pending, and the
    fault ends the call there, like any other."""

    @pytest.mark.parametrize("scheduler", ["easy", "easy-sjbf", "conservative"])
    def test_every_selected_job_runs_and_ends(self, scheduler):
        predictor = _FailsToStartJob1({1: 60.0, 2: 100.0, 3: 100.0})
        session = SimSession(8, make_scheduler(scheduler), predictor, IncrementalCorrector())
        session.feed(
            make_job(job_id=i, runtime=100.0, processors=2, requested_time=100.0) for i in (1, 2, 3)
        )
        with pytest.raises(OSError, match="unreachable"):
            session.advance_to(0.0)
        assert [session.machine.is_running(i) for i in (1, 2, 3)] == [True] * 3
        assert session.machine.free == 2 and not session.scheduler.queue
        assert session._n_waiting == 0 and not session._pass_owed
        assert predictor.started == [-1]
        assert session.n_pending_events == 4  # three FINISHes, and job 1 expires at 60
        assert session.drain() == 2
        assert session.machine.free == 8
        assert [(r.job_id, r.end_time, r.corrections) for r in session.result()] == [
            (1, 100.0, 1), (2, 100.0, 0), (3, 100.0, 0)
        ]


class TestEngineStatsPins:
    """Run counters of three small cells, as the per-event loop before
    the flat one produced them (60 KTH-SP2 jobs, default seed)."""

    PINS = {
        "requested|none|easy": (120, 120, 0, 15),
        "ave2|incremental|easy-sjbf": (248, 248, 128, 15),
        "requested|none|conservative": (120, 120, 0, 15),
    }

    @pytest.mark.parametrize("triple", PINS)
    def test_stats_match_the_pinned_values(self, stream_kth, triple):
        stats = simulate(stream_kth, *build(triple)).stats
        assert (
            stats.n_events,
            stats.n_scheduling_passes,
            stats.n_corrections,
            stats.max_queue_length,
        ) == self.PINS[triple]


class TestFinishedCounter:
    def test_snapshot_count_equals_a_scan_under_external_completions(self, stream_kth):
        """``snapshot().n_finished`` is a counter, not a scan: it must
        agree with the scan at every step, and a job completed
        externally must not be counted again when its simulated FINISH
        arrives stale."""
        session = make_session("ave2|incremental|easy-sjbf", stream_kth.processors)
        session.feed(stream_kth)
        completed_externally = 0
        while session.n_pending_events:
            now = session.step()
            running = sorted(record.job_id for record in session.machine.running)
            if running and completed_externally < 10:
                session.complete(running[0], time=now + 1.0)
                completed_externally += 1
            scan = sum(1 for job in stream_kth if session.record(job.job_id).finished)
            assert session.snapshot().n_finished == scan
        assert completed_externally == 10
        assert session.snapshot().n_finished == len(stream_kth)
