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

__all__ = [
    "FEATURE_NAMES",
    "N_FEATURES",
    "STATIC_FEATURE_INDICES",
    "compute_static_features",
    "extract_features",
]

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

#: Columns of :data:`FEATURE_NAMES` that depend only on the job stream
#: itself -- the job's own description, the per-user submission-request
#: aggregates, and the time of day/week at release -- never on runtimes,
#: completions, or anything the scheduler decides.  These are identical
#: across every cell replaying one trace and can be precomputed once.
STATIC_FEATURE_INDICES: tuple[int, ...] = (0, 7, 8, 9, 16, 17, 18, 19)


def compute_static_features(jobs: Iterable[Job]) -> dict[int, tuple[float, ...]]:
    """Precompute the schedule-independent feature columns of a trace.

    ``jobs`` must arrive in submission order -- the order SUBMIT events
    drain, i.e. sorted by (submit_time, job_id) -- so the per-user
    request aggregates replay exactly the accumulation
    ``UserHistoryTracker.on_submit`` performs live.  Each row holds the
    :data:`STATIC_FEATURE_INDICES` values for one job, bit-identical to
    what :func:`extract_features` would compute at that job's release,
    keyed by job id.  Rows are tuples of plain floats: unpacking an
    ``ndarray`` row into eight ``np.float64`` scalars cost the extractor
    more than computing the columns live.
    """
    n_submitted: dict[int, int] = {}
    sum_processors: dict[int, float] = {}
    rows: dict[int, tuple[float, ...]] = {}
    for job in jobs:
        now = job.submit_time
        count = n_submitted.get(job.user, 0)
        total = sum_processors.get(job.user, 0.0)
        ave_hist_q = total / count if count else 0.0
        q_over_hist = job.processors / ave_hist_q if ave_hist_q > 0 else 1.0
        day_angle = 2.0 * math.pi * ((now % _DAY) / _DAY)
        week_angle = 2.0 * math.pi * ((now % _WEEK) / _WEEK)
        rows[job.job_id] = (
            float(job.requested_time),
            float(job.processors),
            ave_hist_q,
            q_over_hist,
            math.cos(day_angle),
            math.sin(day_angle),
            math.cos(week_angle),
            math.sin(week_angle),
        )
        n_submitted[job.user] = count + 1
        sum_processors[job.user] = total + job.processors
    return rows


def extract_features(
    job: Job,
    tracker: UserHistoryTracker,
    now: float,
    static: tuple[float, ...] | None = None,
) -> np.ndarray:
    """Feature vector for ``job`` released at ``now``.

    The tracker must *not* yet include this job's own submission (call
    ``tracker.on_submit`` after extracting).  ``static`` (optional) is
    this job's precomputed row from :func:`compute_static_features`,
    valid only when ``now`` equals the job's submit time and the tracker
    has replayed exactly the preceding submissions of the same trace;
    the dynamic columns are always computed live.
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

    if static is not None:
        (
            requested_time,
            processors_f,
            ave_hist_q,
            q_over_hist,
            cos_day,
            sin_day,
            cos_week,
            sin_week,
        ) = static
    else:
        requested_time = job.requested_time
        processors_f = float(job.processors)
        ave_hist_q = (
            state.sum_processors / state.n_submitted if state.n_submitted else 0.0
        )
        q_over_hist = job.processors / ave_hist_q if ave_hist_q > 0 else 1.0
        day_angle = 2.0 * math.pi * ((now % _DAY) / _DAY)
        week_angle = 2.0 * math.pi * ((now % _WEEK) / _WEEK)
        cos_day = math.cos(day_angle)
        sin_day = math.sin(day_angle)
        cos_week = math.cos(week_angle)
        sin_week = math.sin(week_angle)

    running = state.running
    n_running = len(running)
    if n_running:
        so_far = []
        occupied = 0
        for start, q in running.values():  # one pass: a plain loop beats two comprehensions
            so_far.append(now - start)
            occupied += q
        longest = max(so_far)
        total = sum(so_far)
        ave_curr_q = occupied / n_running
    else:
        longest = total = 0.0
        occupied = 0
        ave_curr_q = 0.0

    break_time = now - state.last_completion if state.last_completion >= 0 else 0.0

    return np.array(
        [
            requested_time,
            last1,
            last2,
            last3,
            ave2,
            ave3,
            aveall,
            processors_f,
            ave_hist_q,
            q_over_hist,
            ave_curr_q,
            float(n_running),
            longest,
            total,
            float(occupied),
            break_time,
            cos_day,
            sin_day,
            cos_week,
            sin_week,
        ],
        dtype=float,
    )
