"""Per-user behaviour model for synthetic workloads.

The paper's prediction features (Table 2) derive almost all their signal
from *user-level temporal locality*: the running times of successive jobs
of the same user are strongly correlated (Tsafrir et al. showed the mean
of the last two is already a good predictor).  The generator therefore
models each user as a stateful process:

* a user has a **base runtime scale** (log-normal across the population)
  and works in **sessions**; within a session they repeatedly submit
  near-identical jobs (same executable, similar runtime, usually the same
  width), and between sessions they occasionally switch "mode"
  (a different application with a different scale);
* **widths** are biased to powers of two, as in all PWA logs;
* a small fraction of submissions **fail early** regardless of the mode,
  which injects the noise the learning algorithm must be robust to;
* requested times follow the user's :class:`~repro.workload.estimates.EstimateStyle`.

Everything is driven by an explicit :class:`numpy.random.Generator` so
traces are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimates import EstimateStyle, pick_fixed_request, requested_time_for

__all__ = ["UserProfile", "SessionJob", "sample_user_profiles", "wide_job_runtime_cap"]


def wide_job_runtime_cap(width: int, max_width: int, ceiling: float) -> float:
    """Maximum runtime for a job of the given width.

    Production queue policies couple width and walltime: wide jobs are
    admitted only with short walltimes (otherwise a single job could wall
    off the machine for days).  Jobs up to a quarter of the machine keep
    the full ceiling; beyond that the cap shrinks inversely with width,
    down to ``ceiling / 4`` for a full-machine job.
    """
    frac = width / max(1, max_width)
    if frac <= 0.25:
        return ceiling
    return ceiling * 0.25 / frac


@dataclass
class SessionJob:
    """One job emitted by a user session (times relative to session start)."""

    offset: float
    runtime: float
    processors: int
    requested_time: float
    executable: int
    failed: bool
    #: what the user believed the runtime would be (session-level scale);
    #: requested times derive from this, not from the exact runtime.
    believed: float = 0.0


@dataclass
class UserProfile:
    """Stateful behaviour model of one user."""

    user_id: int
    base_runtime: float  # median runtime of the user's dominant application
    runtime_within_sigma: float  # log-space jitter within a session
    mode_switch_prob: float  # probability a new session uses a new application
    base_width_log2: float  # log2 of the user's habitual processor count
    width_sigma: float
    max_width: int
    style: EstimateStyle
    margin: float  # personal over-estimation margin (>= 1)
    #: minimum request the user ever writes (default-walltime habit).
    min_request: float
    fixed_request: float
    max_requested: float
    session_jobs_mean: float
    session_gap_seconds: float
    failure_prob: float
    weight: float  # share of the overall submission stream
    # -- mutable session state ------------------------------------------------
    mode_runtime: float = field(default=0.0)
    mode_width: int = field(default=0)
    mode_executable: int = field(default=0)
    _n_modes: int = field(default=0)

    def __post_init__(self) -> None:
        if self.mode_runtime <= 0:
            self.mode_runtime = self.base_runtime
        if self.mode_width <= 0:
            self.mode_width = max(1, int(round(2.0**self.base_width_log2)))
        self.mode_width = min(self.mode_width, self.max_width)

    # -------------------------------------------------------------------
    def _maybe_switch_mode(self, rng: np.random.Generator) -> None:
        """Between sessions, possibly move to a different application."""
        if self._n_modes == 0 or rng.random() < self.mode_switch_prob:
            self.mode_runtime = float(
                self.base_runtime * rng.lognormal(mean=0.0, sigma=1.0)
            )
            log2w = rng.normal(self.base_width_log2, self.width_sigma)
            width = int(round(2.0 ** max(0.0, log2w)))
            # Bias towards exact powers of two, as observed in PWA logs.
            if rng.random() < 0.7:
                width = 1 << max(0, int(round(np.log2(max(1, width)))))
            self.mode_width = int(min(max(1, width), self.max_width))
            self.mode_executable = int(rng.integers(1, 200))
            self._n_modes += 1

    def session_draws(self, rng: np.random.Generator) -> list[tuple]:
        """One session's random draws in stream order, building no job: per
        job ``(failed, runtime factor, crash cap, width step, think-time gap)``.

        Failures are *bursty*: once a job fails (buggy script, bad input),
        the user's next submissions in the same session are likely to fail
        too.  This clustering is what production logs show, and it is the
        main source of catastrophic mispredictions for history-based
        predictors such as AVE2 (a run of 60-second crashes poisons the
        user average right before a long job, and vice versa).
        """
        self._maybe_switch_mode(rng)
        n_jobs = 1 + rng.poisson(max(0.0, self.session_jobs_mean - 1.0))
        log_gap = np.log(self.session_gap_seconds)
        draws = []
        failed = False
        for _ in range(n_jobs):
            failed = rng.random() < (0.7 if failed else self.failure_prob)  # bursts persist
            factor = rng.lognormal(0.0, self.runtime_within_sigma)
            crash = rng.uniform(15.0, 600.0) if failed else None  # early termination
            # an occasional one-off width change within a session
            step = rng.integers(-1, 2) if rng.random() < 0.15 else None
            # think time between submissions in a session: lognormal around
            # the per-log session gap, so streams are bursty but ordered
            draws.append((failed, factor, crash, step, rng.lognormal(log_gap, 0.8)))
        return draws

    def generate_session(self, rng: np.random.Generator) -> list[SessionJob]:
        """Emit one session's worth of jobs (offsets relative to t=0)."""
        jobs: list[SessionJob] = []
        offset = 0.0
        for failed, factor, crash, step, gap in self.session_draws(rng):
            runtime = max(float(self.mode_runtime * factor), 10.0)
            if failed:
                runtime = float(min(runtime, crash))
            width = self.mode_width
            if step is not None:
                factor = 2.0 ** float(step)
                width = int(min(max(1, round(width * factor)), self.max_width))
            # Queue-policy walltime cap for wide jobs, applied to both the
            # sampled runtime and the user's belief (requests follow it).
            cap = wide_job_runtime_cap(width, self.max_width, self.max_requested)
            runtime = min(runtime, cap)
            believed = min(self.mode_runtime, cap)
            requested, runtime = requested_time_for(
                self.style,
                runtime=runtime,
                believed_runtime=believed,
                margin=self.margin,
                fixed_request=self.fixed_request,
                ceiling=cap,
                floor=min(self.min_request, cap),
            )
            jobs.append(
                SessionJob(
                    offset=offset,
                    runtime=runtime,
                    processors=width,
                    requested_time=requested,
                    executable=self.mode_executable,
                    failed=failed,
                    believed=believed,
                )
            )
            offset += float(gap)
        return jobs


def sample_user_profiles(
    rng: np.random.Generator,
    n_users: int,
    processors: int,
    runtime_log_mu: float,
    runtime_log_sigma: float,
    width_mix: tuple[float, float, float],
    width_max_frac: float,
    session_jobs_mean: float,
    session_gap_minutes: float,
    estimate_styles: tuple[float, float, float],
    estimate_margin_range: tuple[float, float],
    max_requested_hours: float,
    failure_prob: float,
    min_request_choices: tuple[float, float, float, float] = (
        900.0,
        1800.0,
        3600.0,
        7200.0,
    ),
) -> list[UserProfile]:
    """Draw a population of user profiles for one synthetic log.

    ``width_mix`` gives the population shares of (narrow, medium, wide)
    users; ``estimate_styles`` the shares of (ROUND_UP, FIXED, MAXIMUM)
    requested-time styles.
    """
    if n_users <= 0:
        raise ValueError("n_users must be positive")
    max_requested = max_requested_hours * 3600.0
    max_width = max(1, int(processors * width_max_frac))
    styles = (EstimateStyle.ROUND_UP, EstimateStyle.FIXED, EstimateStyle.MAXIMUM)
    style_p = np.asarray(estimate_styles, dtype=float)
    style_p = style_p / style_p.sum()
    width_p = np.asarray(width_mix, dtype=float)
    width_p = width_p / width_p.sum()

    # Zipf-like activity: a few users dominate the stream, like real logs.
    ranks = np.arange(1, n_users + 1, dtype=float)
    weights = 1.0 / ranks**0.85
    weights /= weights.sum()
    rng.shuffle(weights)

    profiles: list[UserProfile] = []
    for uid in range(1, n_users + 1):
        base_runtime = float(
            np.clip(
                rng.lognormal(mean=runtime_log_mu, sigma=runtime_log_sigma),
                20.0,
                max_requested * 0.9,
            )
        )
        band = rng.choice(3, p=width_p)
        if band == 0:  # narrow users: 1..8 processors
            base_log2 = float(rng.uniform(0.0, 3.0))
        elif band == 1:  # medium users: up to ~m/8
            base_log2 = float(rng.uniform(2.0, max(2.5, np.log2(max(8, max_width / 8)))))
        else:  # wide users: m/8 .. max_width
            lo = max(2.0, np.log2(max(4, max_width / 8)))
            hi = max(lo + 0.5, np.log2(max_width))
            base_log2 = float(rng.uniform(lo, hi))
        style = styles[int(rng.choice(3, p=style_p))]
        margin = float(rng.uniform(*estimate_margin_range))
        min_request = float(
            rng.choice(list(min_request_choices), p=[0.25, 0.30, 0.30, 0.15])
        )
        fixed_request = pick_fixed_request(
            typical_runtime=base_runtime,
            margin=margin * 1.5,
            ceiling=max_requested,
        )
        profiles.append(
            UserProfile(
                user_id=uid,
                base_runtime=base_runtime,
                runtime_within_sigma=float(rng.uniform(0.45, 1.0)),
                mode_switch_prob=float(rng.uniform(0.35, 0.7)),
                base_width_log2=base_log2,
                width_sigma=float(rng.uniform(0.3, 1.0)),
                max_width=max_width,
                style=style,
                margin=margin,
                min_request=min_request,
                fixed_request=fixed_request,
                max_requested=max_requested,
                session_jobs_mean=float(
                    np.clip(rng.normal(session_jobs_mean, session_jobs_mean / 2), 1.0, 40.0)
                ),
                session_gap_seconds=float(
                    np.clip(rng.normal(session_gap_minutes, session_gap_minutes / 2), 0.5, 120.0)
                )
                * 60.0,
                failure_prob=failure_prob,
                weight=float(weights[uid - 1]),
            )
        )
    return profiles
