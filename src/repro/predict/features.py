"""Feature extraction -- the paper's Table 2.

Twenty features per job, computed at its release date ``r_j`` from the
job description, the user's history, the user's currently-running jobs
and the wall-clock time of day / week.  The extractor is deliberately
restricted to information available in a Standard Workload Format stream
at submission time (paper Section 4.1, "minimal information").

Feature order is fixed and public (:data:`FEATURE_NAMES`); tests pin it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from ..workload.job import Job
from .base import UserHistoryTracker

__all__ = ["FEATURE_NAMES", "N_FEATURES", "compute_static_features", "extract_features"]

_DAY = 86400.0
_WEEK = 7.0 * _DAY

#: Names of the features, in the order :func:`extract_features` emits them.
FEATURE_NAMES: tuple[str, ...] = (
    "requested_time",          # p~_j
    "last_runtime_1",          # p(k)_{j-1}
    "last_runtime_2",          # p(k)_{j-2}
    "last_runtime_3",          # p(k)_{j-3}
    "ave2_runtime",            # AVE(k)_2(p)
    "ave3_runtime",            # AVE(k)_3(p)
    "aveall_runtime",          # AVE(k)_all(p)
    "processors",              # q_j
    "ave_hist_processors",     # AVE(k)_{hist,rj}(q)
    "processors_over_avehist", # q_j / AVE(k)_{hist,rj}(q)
    "ave_running_processors",  # AVE(k)_{curr,rj}(q)
    "n_running",               # Jobs Currently Running
    "longest_running",         # Longest Current running time (so far)
    "sum_running",             # Sum Current running times (so far)
    "occupied_resources",      # Occupied Resources
    "break_time",              # time since user's last completion
    "cos_day",
    "sin_day",
    "cos_week",
    "sin_week",
)

N_FEATURES = len(FEATURE_NAMES)


def extract_features(job: Job, tracker: UserHistoryTracker, now: float) -> np.ndarray:
    """Feature vector for ``job`` released at ``now``.

    The tracker must *not* yet include this job's own submission (call
    ``tracker.on_submit`` after extracting).
    """
    state = tracker.state(job.user)
    recent = state.recent_runtimes
    n_recent = min(3, len(recent))
    last1 = recent[-1] if n_recent > 0 else 0.0
    last2 = recent[-2] if n_recent > 1 else 0.0
    last3 = recent[-3] if n_recent > 2 else 0.0
    ave2 = (last1 + last2) / min(2, n_recent) if n_recent else 0.0
    ave3 = (last1 + last2 + last3) / n_recent if n_recent else 0.0
    aveall = state.sum_runtimes / state.n_completed if state.n_completed else 0.0

    ave_hist_q = state.sum_processors / state.n_submitted if state.n_submitted else 0.0
    q_over_hist = job.processors / ave_hist_q if ave_hist_q > 0 else 1.0
    day_angle = 2.0 * math.pi * ((now % _DAY) / _DAY)
    week_angle = 2.0 * math.pi * ((now % _WEEK) / _WEEK)

    running = state.running
    n_running = len(running)
    longest = -math.inf if n_running else 0.0
    total = 0.0  # left to right: the builtin sum compensates from Python 3.12
    occupied = 0
    for start, q in running.values():
        so_far = now - start
        if so_far > longest:
            longest = so_far
        total += so_far
        occupied += q
    ave_curr_q = occupied / n_running if n_running else 0.0

    break_time = now - state.last_completion if state.last_completion >= 0 else 0.0

    return np.array(
        [
            job.requested_time,
            last1,
            last2,
            last3,
            ave2,
            ave3,
            aveall,
            float(job.processors),
            ave_hist_q,
            q_over_hist,
            ave_curr_q,
            float(n_running),
            longest,
            total,
            float(occupied),
            break_time,
            math.cos(day_angle),
            math.sin(day_angle),
            math.cos(week_angle),
            math.sin(week_angle),
        ],
        dtype=float,
    )


def compute_static_features(jobs: Iterable[Job]) -> dict[int, np.ndarray]:
    """job_id -> :func:`extract_features` at each job's submit time, over
    a replay of the submissions alone (``jobs`` in submission order).

    No job starts or finishes in the replay, so only the columns that
    depend on the job stream alone -- the request, the width, the user's
    request history, the time of day and week -- equal what a live run
    extracts.  Nothing in the program reads these rows; the benchmark
    suite's feature probe (``benchmarks/suite/micro.py``) times this
    function by name.
    """
    tracker = UserHistoryTracker()
    rows: dict[int, np.ndarray] = {}
    for job in jobs:
        rows[job.job_id] = extract_features(job, tracker, job.submit_time)
        tracker.on_submit(job, job.submit_time)
    return rows
