"""Shared test factories, importable as ``tests.helpers``.

Kept outside ``conftest.py`` so test modules can import them with a
normal absolute import (``from tests.helpers import make_job``) instead
of the relative ``from ..conftest import ...`` that pytest cannot
resolve for rootdir-anchored test packages.
"""

from __future__ import annotations

import json

from repro.core import run_spec
from repro.correct import make_corrector
from repro.predict import make_predictor
from repro.sched import EasyScheduler, make_scheduler
from repro.sim import simulate
from repro.sim.results import JobRecord, SimulationResult
from repro.spec import CellSpec
from repro.workload import Job, Trace, stable_seed

__all__ = [
    "guard_backfill",
    "make_job",
    "make_record",
    "run_triple",
    "schedule_bytes",
    "triple_cells",
]


def run_triple(trace: Trace, triple: str) -> SimulationResult:
    """Simulate a ``predictor|corrector|scheduler`` key (``none`` for no
    corrector) on an existing trace, components built from the registries."""
    predictor, corrector, scheduler = triple.split("|")
    return simulate(
        trace,
        make_scheduler(scheduler),
        make_predictor(predictor),
        None if corrector == "none" else make_corrector(corrector),
    )


def triple_cells(
    triples, logs=("KTH-SP2",), n_jobs: int = 120, replicas: int = 1
) -> list[CellSpec]:
    """A small campaign: the given triple keys on each log's first
    ``replicas`` seeds, in log, seed, triple order."""
    return [
        CellSpec.from_triple(log, key, n_jobs=n_jobs, seed=stable_seed(log) + r)
        for log in logs
        for r in range(replicas)
        for key in triples
    ]


def guard_backfill(scheduler) -> dict[str, int]:
    """Hold an EASY-family scheduler's ``_backfill`` hook to its contract.

    Wraps the instance's hook so that every call replays the picks in the
    order returned and asserts EASY's guarantee on each: it is a waiting
    job other than the head, picked once, it fits what is left of
    ``free``, and it either ends by ``shadow`` or fits what is left of
    ``extra`` -- so no backfill can push the head's reservation back.
    The hook only picks: ``_queue`` and ``_ordered`` must come back as
    they went in.  An EASY hook (greedy, so it may be handed only the jobs
    submitted since the last scan) must also pick exactly what a greedy
    scan of *every* waiting job picks, so the pass's memo is checked pass
    by pass; ``rl-backfill`` keeps the contract checks alone.  Independent
    of the ``legacy-*`` oracle.  Returns the live ``{"calls", "picks",
    "memo"}`` tally (``memo``: the calls handed only the jobs submitted
    since the last scan), so a test can tell the guard ran.
    """
    inner = scheduler._backfill
    greedy = type(scheduler)._backfill is EasyScheduler._backfill
    seen = {"calls": 0, "picks": 0, "memo": 0}

    def guarded(now, free, shadow, extra, candidates):
        assert free >= 1, "the hook is only asked when a processor is free"
        queue, ordered = list(scheduler._queue), list(scheduler._ordered)
        picks = inner(now, free, shadow, extra, candidates)
        # records compare by identity: same objects, same order, same length
        assert scheduler._queue == queue and scheduler._ordered == ordered
        if greedy:
            full = EasyScheduler._backfill(scheduler, now, free, shadow, extra, ordered)
            assert picks == full, "the memo skipped a job a full scan picks"
        waiting = {id(record) for record in queue[1:]}
        for record in picks:
            assert id(record) in waiting, f"job {record.job_id}: head, not waiting, or twice"
            waiting.remove(id(record))
            assert record.processors <= free, f"job {record.job_id} does not fit"
            free -= record.processors
            if now + record.predicted_runtime > shadow:
                assert record.processors <= extra, f"job {record.job_id} delays the head"
                extra -= record.processors
        seen["calls"] += 1
        seen["picks"] += len(picks)
        seen["memo"] += candidates is not scheduler._ordered
        return picks

    scheduler._backfill = guarded
    return seen


def schedule_bytes(spec: CellSpec) -> bytes:
    """The schedule one cell produces, as bytes: every job's start, end,
    correction count and raw prediction, exact to the last bit."""
    rows = sorted(
        (r.job_id, r.start_time, r.end_time, r.corrections, r.raw_prediction)
        for r in run_spec(spec)
    )
    return json.dumps(rows).encode("utf-8")


def make_job(
    job_id: int = 1,
    submit_time: float = 0.0,
    runtime: float = 100.0,
    processors: int = 1,
    requested_time: float | None = None,
    user: int = 1,
    **kwargs,
) -> Job:
    """Job factory with sane defaults (requested defaults to 2x runtime)."""
    if requested_time is None:
        requested_time = 2.0 * runtime
    return Job(
        job_id=job_id,
        submit_time=submit_time,
        runtime=runtime,
        processors=processors,
        requested_time=requested_time,
        user=user,
        **kwargs,
    )


def make_record(
    job_id: int = 1,
    submit_time: float = 0.0,
    runtime: float = 100.0,
    processors: int = 1,
    requested_time: float | None = None,
    predicted_runtime: float | None = None,
    user: int = 1,
) -> JobRecord:
    """JobRecord factory; prediction defaults to the requested time."""
    job = make_job(
        job_id=job_id,
        submit_time=submit_time,
        runtime=runtime,
        processors=processors,
        requested_time=requested_time,
        user=user,
    )
    record = JobRecord(job=job)
    record.predicted_runtime = (
        predicted_runtime if predicted_runtime is not None else job.requested_time
    )
    record.initial_prediction = record.predicted_runtime
    record.raw_prediction = record.predicted_runtime
    return record
