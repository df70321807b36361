"""Incremental simulation sessions: the engine as a streaming API.

The batch entry point (:func:`repro.sim.engine.simulate`) drains a
finished trace and exits.  A :class:`SimSession` is the same event loop
opened up for *live* use: jobs, externally-observed completions and
machine capacity events can be fed in while the session runs, time
advances monotonically under caller control, and "when will this job
start?" queries are answered from the current availability profile
without changing any schedule.

The loop body *is* the batch semantics (``simulate()`` feeds a whole
trace into a session and drains it), so streaming and batch replay of
the same jobs produce identical schedules:

* all events at one timestamp are processed before any scheduling
  decision, in FINISH < EXPIRE < SUBMIT < MACHINE order (see
  :mod:`repro.sim.events` for the full tie-breaking contract);
* one scheduling pass runs after each batch of events;
* a running job whose *predicted* end passes without completion triggers
  the correction mechanism, and the scheduler hears of each correction at
  its EXPIRE;
* predictions are clamped to ``[min_prediction, requested_time]``.

Monotonic time
--------------

``session.now`` never goes backwards.  ``feed()`` rejects jobs submitted
behind the clock, ``advance_to()`` rejects a target behind the clock,
and the event queue itself asserts the same floor -- so a streaming feed
cannot silently diverge from what a batch replay of the same jobs would
have produced.  Equivalence with batch replay holds whenever every job
is fed before the clock passes its submit time.

Queries
-------

:meth:`SimSession.query` answers with an :class:`EstimatedStart`: for a
waiting job, the start time it would get if every queued job took a
reservation *in queue-priority order* on the current predicted
availability profile (exactly conservative backfilling's allocation; for
EASY it is the guaranteed-bound analogue of the head's reservation).
Queries change no schedule.  The session memoises the waiting jobs'
answers until its next state change, so a repeated query is a lookup;
*across* state changes the EASY-family and conservative schedulers carry
the reservation plan itself, place only the jobs it does not hold yet,
and replan when the running set, the free count or the queue order moved
under it (:meth:`repro.sched.base.BackfillScheduler._reservations`); a
probe is fitted on the plan without being placed.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, replace
from math import inf, isfinite
from time import perf_counter
from typing import TYPE_CHECKING, NamedTuple

from ..obs.telemetry import NOOP, Tally
from ..workload.job import Job
from .events import EventQueue, EventType
from .machine import Machine
from .results import JobRecord, SimulationResult

if TYPE_CHECKING:  # imported for type hints only; avoids an import cycle
    from ..correct.base import Corrector
    from ..obs.telemetry import Telemetry
    from ..predict.base import Predictor
    from ..sched.base import Scheduler
    from .engine import EngineStats

__all__ = [
    "SimSession",
    "EstimatedStart",
    "SessionSnapshot",
    "MachineEvent",
    "MonotonicityError",
]


_FINISH, _EXPIRE, _SUBMIT, _MACHINE = EventType
#: the counters a session's tally keeps, by slot of ``_Tally.counts``
_COUNTERS = ("engine.time.predict.seconds", "engine.time.sched.seconds",
             "engine.sched.backfill_starts", "engine.sched.hold_passes",
             "predict.finished", "predict.underestimates")
_PREDICT_S, _SCHED_S, _BACKFILLED, _HELD, _FINISHED, _UNDER = range(6)
#: the counters a read derives from the session's own state
_DERIVED = (*(f"engine.events.{kind}" for kind in ("submit", "finish", "machine", "expire")),
            "engine.sched.jobs_started")
_SAMPLE_STRIDE = 16  #: the ``engine.sched.<size>`` histograms sample passes 1 modulo this


class MonotonicityError(ValueError):
    """An operation tried to move the session's clock backwards."""


@dataclass(frozen=True, slots=True)
class MachineEvent:
    """A capacity change: drain (remove) or restore (give back) nodes.

    Drains take processors out of the *free* pool -- a drain wider than
    the currently free capacity is rejected when the event is processed,
    mirroring how a resource manager waits for nodes to empty before
    draining them.  Restores may not exceed the drained total.
    """

    time: float
    kind: str  # "drain" | "restore"
    processors: int

    def __post_init__(self) -> None:
        if self.kind not in ("drain", "restore"):
            raise ValueError(
                f"machine event kind must be 'drain' or 'restore', got {self.kind!r}"
            )
        if self.processors <= 0:
            raise ValueError(
                f"machine event processors must be > 0, got {self.processors}"
            )
        if self.time < 0:
            raise ValueError(f"machine event time must be >= 0, got {self.time}")


class EstimatedStart(NamedTuple):
    """Answer to a "when will this job start?" query (a named tuple:
    building one costs no per-field attribute store)."""

    job_id: int
    #: session clock when the query was answered.
    query_time: float
    #: estimated (waiting/hypothetical) or actual (running/finished) start.
    start_time: float
    #: "waiting" | "running" | "finished" | "hypothetical".
    state: str
    #: the predicted runtime the estimate was computed with (clamped).
    predicted_runtime: float

    @property
    def wait(self) -> float:
        """Estimated remaining wait from the query instant (>= 0)."""
        return max(self.start_time - self.query_time, 0.0)


@dataclass(frozen=True)
class SessionSnapshot:
    """Read-only view of a session's queue/machine/predictor state."""

    now: float
    processors: int
    free: int
    drained: int
    n_pending_events: int
    n_finished: int
    #: waiting jobs in queue-priority order: (job_id, processors, predicted).
    waiting: tuple[tuple[int, int, float], ...]
    #: running jobs sorted by id: (job_id, start_time, predicted_end).
    running: tuple[tuple[int, float, float], ...]
    scheduler: str
    predictor: str
    corrector: str
    stats: EngineStats


class _Tally(Tally):
    """What a session records over its life: counter slots, sizes per
    (histogram, value), and 8 bytes per job finished since the last read
    (its prediction error, folded into ``predict.*`` by the read).  Event
    counts by kind and starts are derived when read, from the parts it holds
    (the queue, the machine, the stats), never the session itself."""

    __slots__ = (
        "stats", "events", "machine", "counts", "samples", "abs_error", "errors", "corrections",
        "fed", "machine_events", "moving", "derived",
    )

    def __init__(self, stats: EngineStats, events: EventQueue, machine: Machine) -> None:
        super().__init__()
        self.stats, self.events, self.machine = stats, events, machine
        self.counts: list[float] = [0] * len(_COUNTERS)
        self.samples: dict[tuple[str, float], int] = {}
        self.abs_error = self.histograms["predict.abs_error.seconds"]
        self.errors = array("d")  # initial prediction - runtime, per finish since the last read
        self.corrections = 0  # of ``stats.n_corrections``: those in storms of two and more
        self.fed = self.machine_events = 0  # jobs fed, MACHINE events consumed
        self.moving = 0  # odd while a session call runs: see ``report``
        self.derived = (0,) * len(_DERIVED)  # as a read last derived them, at rest

    def sample(self, name: str, size: float) -> None:
        self.samples[name, size] = self.samples.get((name, size), 0) + 1

    def note_outcome(self, record: JobRecord, runtime: float) -> None:
        initial = record.initial_prediction  # 0: never predicted here (no SUBMIT processed)
        if initial:  # the error of a finished job, folded into ``predict.*`` when read
            self.errors.append(initial - runtime)

    def report(self, counters, histograms) -> None:
        errors, counts = self.errors, self.counts
        if errors:  # the loop only appends: what is read here is ours to fold
            fold = errors[:]
            del errors[: len(fold)]
            self.abs_error.observe_many(list(map(abs, fold)))  # in finish order
            counts[_FINISHED] += len(fold)
            counts[_UNDER] += sum(map((0.0).__gt__, fold))  # the errors below 0, counted in C
        super().report(counters, histograms)
        moving, stats = self.moving, self.stats
        if not moving & 1:  # beside a running call, the counts derived at rest (a seqlock)
            machine, pending = self.machine, self.events.pending_kinds()
            started = len(machine._running) + machine.n_finished
            submits, finishes = self.fed - pending[_SUBMIT], started - pending[_FINISH]
            expires = stats.n_events - submits - finishes - self.machine_events
            if self.moving == moving:
                self.derived = (submits, finishes, self.machine_events, expires, started)
        slots = (*zip(_COUNTERS, counts), *zip(_DERIVED, self.derived))
        for name, value in (*slots, ("engine.sched.passes", stats.n_scheduling_passes)):
            if value:
                counters[name] += value
        for (name, size), n in list(self.samples.items()):
            histograms[name].observe(size, n)
        ones = stats.n_corrections - self.corrections  # the loop samples the larger storms
        if ones > 0:
            histograms["engine.expire_storm.size"].observe(1, ones)


class SimSession:
    """An open-ended simulation accepting live jobs, events and queries."""

    def __init__(
        self,
        processors: int,
        scheduler: Scheduler,
        predictor: Predictor,
        corrector: Corrector | None = None,
        *,
        min_prediction: float = 60.0,
        start_time: float = 0.0,
        trace_name: str = "",
        telemetry: Telemetry | None = None,
    ) -> None:
        from .engine import EngineStats  # local: engine imports this module

        if min_prediction <= 0:
            raise ValueError("min_prediction must be positive")
        if not start_time >= 0:
            raise ValueError(f"start_time must be >= 0, got {start_time}")
        self.telemetry = telemetry if telemetry is not None else NOOP
        self.scheduler = scheduler
        self.predictor = predictor
        self.corrector = corrector
        self.min_prediction = float(min_prediction)
        self.trace_name = trace_name
        self.stats = EngineStats()
        self._machine = Machine(processors)
        self._events = EventQueue()
        self._records: dict[int, JobRecord] = {}
        #: what the loop counts over the session's life (None when off)
        self._tally: _Tally | None = None
        if self.telemetry.enabled:
            self._tally = _Tally(self.stats, self._events, self._machine)
            self.telemetry.attach(self._tally, self)
        self._now = float(start_time)
        self._pass_owed = False  # a fault took an instant's pass with it: the next call runs it
        self._n_waiting = 0  # jobs submitted and not started: ``scheduler.queue_length``
        #: MACHINE events by sequence id (the event's job_id field).
        self._machine_events: dict[int, MachineEvent] = {}
        self._machine_seq = 0
        #: memoised waiting-queue start estimates; dropped on any mutation.
        self._query_cache: Mapping[int, float] | None = None

    # -- introspection -------------------------------------------------------
    @property
    def now(self) -> float:
        """The session clock (monotonic; never rewinds)."""
        return self._now

    @property
    def machine(self) -> Machine:
        """The machine (treat as read-only; mutate via events only)."""
        return self._machine

    @property
    def n_pending_events(self) -> int:
        return len(self._events)

    @property
    def n_jobs(self) -> int:
        """Jobs fed so far (waiting + running + finished)."""
        return len(self._records)

    @property
    def query_cache_warm(self) -> bool:
        """True when the next waiting-start query is served memoised."""
        return self._query_cache is not None

    def record(self, job_id: int) -> JobRecord:
        """The (live, mutable) record of a fed job."""
        try:
            return self._records[job_id]
        except KeyError:
            raise ValueError(f"job {job_id} was never fed to this session") from None

    def snapshot(self) -> SessionSnapshot:
        """A read-only snapshot of queue, machine and run counters."""
        waiting = tuple(
            (r.job_id, r.processors, r.predicted_runtime) for r in self.scheduler.queue
        )
        running = tuple(
            sorted(
                (record.job_id, record.start_time, record.predicted_end)
                for record in self._machine.running
            )
        )
        return SessionSnapshot(
            now=self._now,
            processors=self._machine.processors,
            free=self._machine.free,
            drained=self._machine.drained,
            n_pending_events=len(self._events),
            n_finished=self._machine.n_finished,
            waiting=waiting,
            running=running,
            scheduler=self.scheduler.name,
            predictor=self.predictor.name,
            corrector=self.corrector.name if self.corrector else "none",
            stats=replace(self.stats),
        )

    # -- feeding -------------------------------------------------------------
    def feed(self, jobs: Iterable[Job] | Job) -> int:
        """Queue SUBMIT events for jobs; returns how many were fed.

        Jobs must not be behind the clock (``submit_time >= now``), carry
        session-unique ids and fit the machine (drained or not).  Trace
        order keeps streaming byte-identical to batch replay (see above).
        """
        if isinstance(jobs, Job):
            jobs = (jobs,)
        count = 0
        tally = self._tally
        if tally is not None:
            tally.moving += 1
        try:
            for job in jobs:
                if not job.submit_time >= self._now:  # NaN is behind every clock
                    raise MonotonicityError(
                        f"job {job.job_id} submitted at t={job.submit_time}, behind "
                        f"the session clock t={self._now}"
                    )
                if job.job_id in self._records:
                    raise ValueError(f"job {job.job_id} was already fed")
                if job.processors > self._machine.processors:
                    raise ValueError(
                        f"job {job.job_id} requests {job.processors} processors but "
                        f"the machine only has {self._machine.processors}"
                    )
                self._records[job.job_id] = JobRecord(job=job)
                self._events.schedule(job.submit_time, _SUBMIT, job.job_id)
                count += 1
        finally:
            if tally is not None:
                tally.fed += count
                tally.moving += 1
            if count:
                self._query_cache = None
        return count

    def feed_machine_event(
        self,
        event: MachineEvent | None = None,
        *,
        time: float | None = None,
        kind: str | None = None,
        processors: int | None = None,
    ) -> MachineEvent:
        """Queue a capacity change (drain/restore), by object or fields."""
        if event is None:
            event = MachineEvent(
                time=self._now if time is None else float(time),
                kind=kind or "",
                processors=0 if processors is None else int(processors),
            )
        if not event.time >= self._now:
            raise MonotonicityError(
                f"machine event at t={event.time} is behind the session "
                f"clock t={self._now}"
            )
        self._machine_seq += 1
        self._machine_events[self._machine_seq] = event
        self._events.schedule(event.time, _MACHINE, self._machine_seq)
        self._query_cache = None
        return event

    # -- time ----------------------------------------------------------------
    def step(self) -> float | None:
        """Process the next pending timestamp completely; returns it.

        One step = every event at the earliest pending instant and one
        scheduling pass, one iteration of the batch loop.  Returns None
        (having run at most a pass it owed) when no events are pending.
        """
        return self._now if self._process_timestamps(inf, 1) else None

    def advance_to(self, time: float) -> int:
        """Process every timestamp up to and including ``time``; move the
        clock to ``time``.  Returns the number of timestamps processed."""
        if not time >= self._now:
            raise MonotonicityError(
                f"cannot advance to t={time}, behind the session clock t={self._now}"
            )
        steps = self._process_timestamps(time)
        if time > self._now:
            self._now = float(time)
            self._query_cache = None
        return steps

    def drain(self) -> int:
        """Process everything pending; returns timestamps processed."""
        return self._process_timestamps(inf)

    # -- queries -------------------------------------------------------------
    def query(
        self, job: Job | None = None, *, job_id: int | None = None
    ) -> EstimatedStart:
        """Estimate when a job starts, without changing any schedule.

        Pass ``job_id`` (or a fed ``job``) for session jobs: waiting jobs
        get a reservation-profile estimate, running/finished jobs their
        actual start.  Pass an unknown ``job`` for a hypothetical
        "where would this land?" probe -- it is predicted with the
        predictor's pure :meth:`~repro.predict.base.Predictor.estimate`
        entry point and appended behind the current queue.
        """
        if job is not None and job_id is None and job.job_id in self._records:
            job_id = job.job_id
        now = self._now
        if job_id is not None:
            record = self.record(job_id)
            if record.started:
                start, state = record.start_time, "finished" if record.finished else "running"
                return EstimatedStart(job_id, now, start, state, record.predicted_runtime)
            starts = self._waiting_starts()
            if job_id not in starts:
                raise ValueError(
                    f"job {job_id} is fed but not yet submitted; advance the "
                    f"session to t={record.submit_time} first"
                )
            return EstimatedStart(job_id, now, starts[job_id], "waiting", record.predicted_runtime)
        if job is None:
            raise ValueError("query() needs a job or a job_id")
        probe = JobRecord(job=job)
        raw = float(self.predictor.estimate(probe, now))
        if not isfinite(raw):  # max(nan, floor) is nan: it would answer a number
            raise ValueError(
                f"predictor {self.predictor.name!r} returned a non-finite "
                f"prediction for job {job.job_id}"
            )
        probe.predicted_runtime = min(max(raw, self.min_prediction), job.requested_time)
        starts = self.scheduler.estimated_starts(now, self._machine, probe)
        start = starts[job.job_id]
        return EstimatedStart(job.job_id, now, start, "hypothetical", probe.predicted_runtime)

    def _waiting_starts(self) -> Mapping[int, float]:
        if self._query_cache is None:
            self._query_cache = self.scheduler.estimated_starts(
                self._now, self._machine
            )
        return self._query_cache

    # -- live-session mutations ----------------------------------------------
    def complete(self, job_id: int, time: float | None = None) -> JobRecord:
        """Report that a job *actually* completed at ``time`` (default now).

        The external observation overrides the simulated runtime: the
        record's ``observed_runtime`` is stamped, pending simulated
        FINISH/EXPIRE events become stale, the predictor learns from the
        observed completion and a scheduling pass reuses the freed
        processors.  Advances the clock to ``time`` first; if the
        simulated finish already fired by then, the record is returned
        unchanged.
        """
        record = self.record(job_id)
        if time is None:
            time = self._now
        elif not time >= self._now:
            raise MonotonicityError(f"cannot complete at t={time}, behind the clock t={self._now}")
        self._process_timestamps(time)
        self._now = float(time)
        self._query_cache = None
        if not self._machine.is_running(job_id):
            if record.finished:
                return record
            raise ValueError(
                f"job {job_id} is not running at t={time}; only running jobs "
                "can be completed externally"
            )
        record.observed_runtime = max(time - record.start_time, 1e-9)
        record.version += 1  # pending EXPIRE events become stale
        tally = self._tally
        if tally is not None:
            tally.moving += 1
        try:
            self._machine.finish(job_id, time)
            self._pass_owed = True  # from here on, whatever raises before it runs
            self.scheduler.on_finish(record)  # before the predictor, which may raise
            t0 = perf_counter()
            self.predictor.on_finish(record, time)
            if tally is not None:
                tally.counts[_PREDICT_S] += perf_counter() - t0
                tally.note_outcome(record, record.observed_runtime)
            self._pass_owed = False
            self._schedule_pass(time)
        finally:
            if tally is not None:
                tally.moving += 1
        return record

    def observe_completion(self, job: Job, runtime: float) -> None:
        """Feed an out-of-band completion to the predictor only.

        Keeps per-user predictor state hot from jobs the session never
        scheduled (e.g. history replayed into a fresh ``repro serve``
        process); scheduling state is untouched.
        """
        self.predictor.observe(job, runtime, self._now)

    # -- results -------------------------------------------------------------
    def result(self, *, partial: bool = False) -> SimulationResult:
        """Freeze the finished records into a :class:`SimulationResult`.

        With ``partial=True`` unfinished jobs are dropped instead of
        raising, so a live session can report on what has completed.
        """
        records: Iterable[JobRecord] = self._records.values()
        if partial:
            records = [r for r in records if r.finished]
        return SimulationResult(
            records,
            machine_processors=self._machine.processors,
            trace_name=self.trace_name,
            scheduler_name=self.scheduler.name,
            predictor_name=self.predictor.name,
            corrector_name=self.corrector.name if self.corrector else "none",
            stats=replace(self.stats),
        )

    # -- event loop (the batch semantics, one timestamp at a time) -----------
    def _process_timestamps(self, until: float, limit: float = inf) -> int:
        """The event loop: first the pass a raising call still owes, then
        pending instants in time order, none later than ``until`` and at
        most ``limit`` of them; returns how many.  Per instant: its events
        (one queue call), each correction handed to the scheduler at its
        EXPIRE, one scheduling pass."""
        events = self._events
        stats = self.stats
        tally = self._tally
        machine = self._machine
        records = self._records
        scheduler = self.scheduler
        predictor = self.predictor
        corrector = self.corrector
        min_prediction = self.min_prediction
        predict_s = 0.0
        if tally is not None:
            tally.moving += 1  # odd until the call returns: see ``_Tally.report``
        try:
            if self._pass_owed:
                self._pass_owed = False
                self._schedule_pass(self._now)
            steps = 0
            while steps < limit:
                batch = events.pop_instant(until)
                if not batch:
                    break
                steps += 1
                now = self._now = batch[0][0]
                self._query_cache = None
                stats.n_events += len(batch)
                n_corrected = 0
                pending = iter(batch)
                try:
                    for _, kind, _, job_id, version in pending:
                        if kind is _EXPIRE:
                            record = records[job_id]
                            if version != record.version or record.end_time >= 0:
                                continue  # stale: corrected since, or already finished
                            if corrector is None:
                                raise RuntimeError(
                                    f"job {job_id} under-predicted at t={now} but no "
                                    "correction mechanism is configured"
                                )
                            start = record.start_time
                            # Contract enforcement: progress past the elapsed
                            # time, capped by the requested time which
                            # upper-bounds any feasible runtime.
                            prediction = float(corrector.correct(record, now))
                            if not isfinite(prediction):  # a NaN passes every comparison below
                                raise ValueError(
                                    f"corrector {corrector.name!r} returned a non-finite "
                                    f"prediction for job {job_id}"
                                )
                            floor = now - start + 1.0
                            if prediction < floor:
                                prediction = floor
                            runtime = record.observed_runtime or record.job.runtime
                            if prediction >= record.requested_time:
                                prediction = record.requested_time
                                if prediction < runtime:  # it would expire at the cap forever
                                    raise ValueError(f"job {job_id} outlives its requested time")
                            record.corrections += 1
                            record.version = version + 1
                            machine.repredict(record, prediction)
                            stats.n_corrections += 1
                            n_corrected += 1
                            scheduler.on_corrections((record,))
                            if prediction < runtime:  # still too small: expire again
                                events.schedule(start + prediction, _EXPIRE, job_id, version + 1)
                        elif kind is _FINISH:
                            record = records[job_id]
                            if record.end_time >= 0:
                                continue  # stale: the job was completed externally
                            machine.finish(job_id, now)
                            scheduler.on_finish(record)  # before the predictor, which may raise
                            if tally is not None:
                                t0 = perf_counter()
                                predictor.on_finish(record, now)
                                predict_s += perf_counter() - t0
                                tally.note_outcome(record, record.runtime)
                            else:
                                predictor.on_finish(record, now)
                        elif kind is _SUBMIT:
                            record = records[job_id]
                            if tally is not None:
                                t0 = perf_counter()
                                raw = float(predictor.predict(record, now))
                                predict_s += perf_counter() - t0
                            else:
                                raw = float(predictor.predict(record, now))
                            if not isfinite(raw):
                                raise ValueError(
                                    f"predictor {predictor.name!r} returned a non-finite "
                                    f"prediction for job {job_id}"
                                )
                            record.raw_prediction = raw
                            prediction = min_prediction if min_prediction > raw else raw
                            if record.requested_time < prediction:  # min(max(raw, floor), cap)
                                prediction = record.requested_time
                            record.initial_prediction = record.predicted_runtime = prediction
                            scheduler.on_submit(record)
                            self._n_waiting += 1
                        else:  # MACHINE
                            change = self._machine_events.pop(job_id)
                            if tally is not None:
                                tally.machine_events += 1
                            if change.kind == "drain":
                                machine.drain(change.processors)
                            else:
                                machine.restore(change.processors)
                            scheduler.on_machine_change(now, machine)
                except BaseException:
                    # only the failing event is consumed; the rest of the
                    # instant stays pending, as if popped one event at a time
                    rest = list(pending)
                    for time, kind, _, job_id, version in rest:
                        events.schedule(time, kind, job_id, version)
                    stats.n_events -= len(rest)
                    self._pass_owed = not rest  # the instant is over: its pass is owed
                    raise
                finally:  # the storms of one are what a read finds unaccounted
                    if n_corrected > 1 and tally is not None:
                        tally.sample("engine.expire_storm.size", n_corrected)
                        tally.corrections += n_corrected
                if self._n_waiting > stats.max_queue_length:  # the queue grows in the events only
                    stats.max_queue_length = self._n_waiting
                self._schedule_pass(now)
            return steps
        finally:
            if tally is not None:
                tally.counts[_PREDICT_S] += predict_s
                tally.moving += 1

    def _schedule_pass(self, now: float) -> None:
        """Close an instant: one scheduling pass runs, and what it selected
        starts, every job on the machine with its events pending."""
        stats = self.stats
        stats.n_scheduling_passes += 1
        scheduler = self.scheduler
        machine = self._machine
        tally = self._tally
        if tally is None:
            started = scheduler.select_jobs(now, machine)
        else:
            t0 = perf_counter()
            started = scheduler.select_jobs(now, machine)
            counts = tally.counts
            counts[_SCHED_S] += perf_counter() - t0
            if started and self._n_waiting > len(started):
                # jobs left waiting: a head was held, the starts past it were backfills
                # (an upper bound: phase-1 FCFS starts ahead of a later hold count too)
                counts[_BACKFILLED] += len(started)
            elif not started and self._n_waiting:
                counts[_HELD] += 1
            if stats.n_scheduling_passes % _SAMPLE_STRIDE == 1:
                tally.sample("engine.sched.queue_length", self._n_waiting)
                for name, value in scheduler.introspect(machine).items():
                    tally.sample(f"engine.sched.{name}", value)
        if started:
            self._n_waiting -= len(started)
            schedule = self._events.schedule
            for record in started:
                machine.start(record, now)
                runtime = record.observed_runtime or record.job.runtime  # an observed one is > 0
                schedule(now + runtime, _FINISH, record.job_id)
                if record.predicted_runtime < runtime:  # will expire before it ends
                    schedule(now + record.predicted_runtime, _EXPIRE, record.job_id, record.version)
            for record in started:  # once every job runs: a raising hook loses none of them
                self.predictor.on_start(record, now)
