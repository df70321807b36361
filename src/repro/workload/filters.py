"""Trace cleaning filters.

The Parallel Workloads Archive usage notes (Feitelson, Tsafrir & Krakov
2014) recommend cleaning logs before simulation; the paper follows that
practice implicitly by simulating cleaned logs.  These filters implement
the standard cleanings so real SWF files can be prepared the same way,
and so synthetic traces can be sanity-checked.
"""

from __future__ import annotations

from .job import Job
from .trace import Trace

__all__ = ["drop_status", "clamp_requested", "drop_flurries", "standard_clean"]


def drop_status(trace: Trace, statuses: tuple[int, ...] = (5,)) -> Trace:
    """Drop jobs whose SWF status is in ``statuses`` (default: cancelled)."""
    return trace.filter(lambda j: j.status not in statuses)


def clamp_requested(trace: Trace, max_seconds: float) -> Trace:
    """Clamp requested times to ``max_seconds`` (queue-limit normalisation).

    Runtimes above the new cap are clamped with it, preserving the model
    invariant ``runtime <= requested_time``.
    """
    if max_seconds <= 0:
        raise ValueError("max_seconds must be positive")

    def fix(job: Job) -> Job:
        if job.requested_time <= max_seconds:
            return job
        return job.with_updates(
            requested_time=max_seconds, runtime=min(job.runtime, max_seconds)
        )

    return Trace(
        (fix(j) for j in trace),
        processors=trace.processors,
        name=trace.name,
        unix_start_time=trace.unix_start_time,
    )


def drop_flurries(trace: Trace, user_jobs_per_hour: float = 120.0) -> Trace:
    """Remove per-user submission flurries (PWA cleaning heuristic).

    A *flurry* is an abnormal burst of submissions by one user (e.g. a
    runaway script) which distorts scheduling metrics.  Jobs are dropped
    while their user's submission rate over the trailing hour exceeds
    ``user_jobs_per_hour``.
    """
    if user_jobs_per_hour <= 0:
        raise ValueError("user_jobs_per_hour must be positive")
    window = 3600.0
    recent: dict[int, list[float]] = {}
    keep_ids: set[int] = set()
    for job in trace:
        times = recent.setdefault(job.user, [])
        while times and times[0] < job.submit_time - window:
            times.pop(0)
        if len(times) < user_jobs_per_hour:
            keep_ids.add(job.job_id)
        times.append(job.submit_time)
    return trace.filter(lambda j: j.job_id in keep_ids)


def standard_clean(trace: Trace, max_requested_seconds: float | None = None) -> Trace:
    """Apply the standard cleaning pipeline used before simulation."""
    cleaned = drop_status(trace, statuses=(5,))
    if max_requested_seconds is not None:
        cleaned = clamp_requested(cleaned, max_requested_seconds)
    cleaned = drop_flurries(cleaned)
    return cleaned.rebase_time()
