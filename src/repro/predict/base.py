"""Predictor interface and shared user-history tracking.

A predictor supplies the scheduler-visible running-time estimate for each
job at submission and may learn online from completions.  The engine
drives it through three hooks:

* :meth:`Predictor.predict` when a job is submitted (returns seconds);
* :meth:`Predictor.on_start` when a job begins executing;
* :meth:`Predictor.on_finish` when a job really completes (the only
  moment its actual running time becomes observable -- this is where
  online learning happens).

Predictions are clamped by the engine to ``[min_prediction,
requested_time]``: a prediction above the requested time is meaningless
because the job would be killed, and non-positive predictions are not
usable by backfilling.

:class:`UserHistoryTracker` centralises the per-user state that several
predictors and the feature extractor need (paper Table 2): completed-job
runtimes, resource-request history, currently-running jobs and the time
of the last completion.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from itertools import islice

from ..sim.results import JobRecord
from ..workload.job import Job

__all__ = ["Predictor", "UserHistoryTracker", "UserState"]


class Predictor(ABC):
    """Base class for running-time predictors."""

    #: short identifier used in reports and triple names.
    name: str = "base"

    @abstractmethod
    def predict(self, record: JobRecord, now: float) -> float:
        """Predicted running time (seconds) for a job submitted at ``now``.

        Called exactly once per job, at submission -- implementations may
        register the submission in their history state.  Probes that must
        not mutate anything (live-session ``query()``) go through
        :meth:`estimate` instead.
        """

    def estimate(self, record: JobRecord, now: float) -> float:
        """A **pure** prediction for query probes: no state is touched.

        Sessions use this to answer "where would this job land?" without
        the submission side effects of :meth:`predict`.  The default
        returns the requested time (always a valid upper bound);
        predictors with cheap read-only state override it.
        """
        return record.requested_time

    def observe(self, job: Job, runtime: float, now: float) -> None:
        """Learn from an *externally observed* completion.

        Live-session entry point: keeps per-user state hot from jobs this
        predictor never predicted (history replayed into a fresh serving
        process, completions reported by a real cluster).  The default
        routes through :meth:`on_finish` with the observed runtime
        stamped onto a throwaway record; predictors that key updates on
        their own submission-time state (e.g. pending feature vectors)
        degrade gracefully to a history-only update.
        """
        if runtime <= 0:
            raise ValueError(f"observed runtime must be > 0, got {runtime}")
        observed = job.with_updates(
            runtime=float(runtime),
            requested_time=max(job.requested_time, float(runtime)),
        )
        record = JobRecord(job=observed)
        record.predicted_runtime = observed.runtime
        self.on_finish(record, now)

    def on_start(self, record: JobRecord, now: float) -> None:
        """A job began executing.  Default: nothing."""

    def on_finish(self, record: JobRecord, now: float) -> None:
        """A job completed; its ``runtime`` is now observable."""


@dataclass
class UserState:
    """Running history for one user."""

    #: runtimes of completed jobs, most recent last (bounded window).
    recent_runtimes: deque = field(default_factory=lambda: deque(maxlen=64))
    #: count and sum over *all* completed jobs (for AVE_all).
    n_completed: int = 0
    sum_runtimes: float = 0.0
    #: count and sum of resource requests over all *submitted* jobs.
    n_submitted: int = 0
    sum_processors: float = 0.0
    #: time of this user's most recent completion; -1 before any.
    last_completion: float = -1.0
    #: currently running jobs: job_id -> (start_time, processors).
    running: dict = field(default_factory=dict)


class UserHistoryTracker:
    """Tracks the per-user quantities of the paper's Table 2 features."""

    def __init__(self) -> None:
        self._users: dict[int, UserState] = {}

    def state(self, user: int) -> UserState:
        """State for ``user`` (created on first touch)."""
        try:
            return self._users[user]
        except KeyError:
            state = UserState()
            self._users[user] = state
            return state

    @property
    def n_users(self) -> int:
        return len(self._users)

    # -- engine-event mirroring ------------------------------------------------
    def on_submit(self, job: Job, now: float) -> None:
        """Record a submission (updates resource-request history)."""
        state = self.state(job.user)
        state.n_submitted += 1
        state.sum_processors += job.processors

    def on_start(self, job: Job, now: float) -> None:
        """Record an execution start."""
        self.state(job.user).running[job.job_id] = (now, job.processors)

    def on_finish(self, job: Job, now: float, runtime: float | None = None) -> None:
        """Record a completion (updates runtime history, running set).

        ``runtime`` overrides ``job.runtime`` when the *observed* runtime
        differs from the trace value (externally completed session jobs).
        """
        if runtime is None:
            runtime = job.runtime
        state = self.state(job.user)
        state.running.pop(job.job_id, None)
        state.recent_runtimes.append(runtime)
        state.n_completed += 1
        state.sum_runtimes += runtime
        state.last_completion = now

    # -- queries used by features and baseline predictors ----------------------
    def last_runtimes(self, user: int, k: int) -> list[float]:
        """Up to ``k`` most recent completed runtimes, most recent first."""
        recent = self.state(user).recent_runtimes
        return list(islice(reversed(recent), k))

    def average_recent_runtime(self, user: int, k: int) -> float | None:
        """Mean of the last ``k`` completed runtimes; None if no history."""
        last = self.last_runtimes(user, k)
        if not last:
            return None
        total = 0.0  # newest first, left to right: the builtin sum compensates from 3.12
        for runtime in last:
            total += runtime
        return total / len(last)
