"""Calibrated synthetic workload generation.

:func:`synthesize` turns a resized :class:`WorkloadModel` (its span and
its simulation machine fixed) into a :class:`~repro.workload.trace.Trace`:

1. sample a user population (:mod:`repro.workload.usermodel`);
2. emit user sessions whose start times follow a non-homogeneous Poisson
   process with daily and weekly cycles (so the paper's time-of-day /
   time-of-week features carry signal);
3. rescale runtimes by a single global factor so the achieved offered
   load matches the target (requested times are re-derived afterwards so
   the round-value structure survives);
4. package everything as a trace, sorted by submit time.

The guarantees relied on elsewhere in the code base:

* ``runtime <= requested_time`` for every job;
* the trace achieves the model's offered load within a few percent;
* the same ``(model, seed)`` pair always yields the identical trace.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .estimates import pick_fixed_request, requested_time_for
from .job import Job
from .trace import Trace
from .usermodel import UserProfile, sample_user_profiles, wide_job_runtime_cap

__all__ = ["WorkloadModel", "synthesize", "arrival_intensity"]

_DAY = 86400.0
_WEEK = 7 * _DAY


@dataclass(frozen=True)
class WorkloadModel:
    """Parameters of one synthetic log (see archive.py for instances)."""

    name: str
    processors: int
    n_jobs: int
    n_users: int
    offered_load: float
    runtime_log_mu: float
    runtime_log_sigma: float
    width_mix: tuple[float, float, float]
    width_max_frac: float
    session_jobs_mean: float
    session_gap_minutes: float
    day_amplitude: float
    week_amplitude: float
    estimate_styles: tuple[float, float, float]
    estimate_margin_range: tuple[float, float]
    max_requested_hours: float
    failure_prob: float
    #: machine size of the simulation-sized subsets.  Production machines
    #: are far larger than a subset trace can saturate, so each log pins a
    #: scaled-down machine that preserves its width-mix character (see
    #: DESIGN.md).
    sim_processors: int
    #: population of minimum-request habits (seconds); the floor below
    #: which each user never bothers to tune their walltime request.
    min_request_choices: tuple[float, float, float, float] = (
        900.0,
        1800.0,
        3600.0,
        7200.0,
    )
    burstiness: float = 1.0
    #: characteristic submission rate of the system being modelled; used
    #: by :meth:`resized` to keep subset traces at the real log's tempo.
    throughput_jobs_per_day: float = 150.0
    #: trace span in days, set by :meth:`resized`; :func:`synthesize`
    #: refuses a model without one.
    target_days: float | None = None

    def resized(self, n_jobs: int) -> WorkloadModel:
        """Same model with a different job-count target.

        The user population shrinks with the square root of the job count
        so per-user history depth stays comparable across sizes.  The
        target span follows the real log's submission tempo
        (``n_jobs / throughput_jobs_per_day``) and the trace runs on the
        scaled-down ``sim_processors`` machine: full production logs
        sustain their load with 100x more jobs than a simulation subset,
        and shrinking the machine preserves the contention that drives
        backfilling, which is what the paper's results hinge on (see
        DESIGN.md, "Substitutions").
        """
        if n_jobs <= 0:
            raise ValueError("n_jobs must be positive")
        scale = math.sqrt(n_jobs / max(1, self.n_jobs))
        n_users = int(np.clip(round(self.n_users * scale), 8, self.n_users))
        target_days = float(
            np.clip(n_jobs / self.throughput_jobs_per_day, 0.75, 45.0)
        )
        return replace(self, n_jobs=n_jobs, n_users=n_users, target_days=target_days)


def arrival_intensity(
    t: float, day_amplitude: float, week_amplitude: float
) -> float:
    """Relative session-arrival intensity at time ``t`` (t=0 is Monday 0:00).

    The intensity is a product of a daily cycle peaking mid-afternoon and
    a weekly cycle suppressing weekends, normalised to max 1.0.
    """
    hour = (t % _DAY) / 3600.0
    # Daily cycle: cosine dip at 4am, peak at 4pm.
    day_factor = 1.0 - day_amplitude * 0.5 * (1.0 + math.cos(2 * math.pi * (hour - 4.0) / 24.0))
    day_of_week = int((t % _WEEK) // _DAY)  # 0 = Monday
    week_factor = 1.0 - week_amplitude if day_of_week >= 5 else 1.0
    return max(1e-3, day_factor * week_factor)


def _pilot_draws(profiles: list[UserProfile], p: np.ndarray, rng: np.random.Generator) -> None:
    """Make 400 jobs' worth of session draws on copies of the profiles.

    The draws go unused and no job is built: the sessions once estimated
    a load, and their draws stay in every trace's random stream so that
    no trace digest moves.  A session's owner is picked exactly as
    ``rng.choice(len(profiles), p=p)`` picks it, from a table built
    once: one double from the stream, searched in the normalised CDF.
    """
    valid = np.isfinite(p).all() and p.min() >= 0  # what choice() checks, once
    if not (valid and abs(p.sum() - 1.0) <= math.sqrt(np.finfo(float).eps)):
        raise ValueError("profile weights are not a probability distribution")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    scratch = [copy.copy(profile) for profile in profiles]
    drawn = 0
    while drawn < 400:
        drawn += len(scratch[int(cdf.searchsorted(rng.random(), side="right"))].session_draws(rng))


def _sample_session_starts(
    rng: np.random.Generator,
    duration: float,
    n_sessions: int,
    day_amplitude: float,
    week_amplitude: float,
    burstiness: float,
) -> np.ndarray:
    """Session start times from a thinned non-homogeneous Poisson process.

    ``burstiness > 1`` adds long-range clustering by mixing in bursts
    around randomly chosen epicentres (heavy campaign periods).
    """
    starts: list[float] = []
    n_burst = 0
    if burstiness > 1.0:
        n_burst = int(n_sessions * min(0.5, (burstiness - 1.0) * 0.5))
    n_regular = n_sessions - n_burst
    # Regular stream: rejection-sample against the day/week intensity.
    while len(starts) < n_regular:
        t = float(rng.uniform(0.0, duration))
        if rng.random() <= arrival_intensity(t, day_amplitude, week_amplitude):
            starts.append(t)
    # Bursts: Gaussian clusters around epicentres.
    if n_burst > 0:
        n_centres = max(1, n_burst // 25)
        centres = rng.uniform(0.0, duration, size=n_centres)
        for _ in range(n_burst):
            centre = float(rng.choice(centres))
            t = float(np.clip(rng.normal(centre, _DAY / 3), 0.0, duration))
            starts.append(t)
    return np.sort(np.asarray(starts))


def _profiles_for(model: WorkloadModel, rng: np.random.Generator, processors: int):
    return sample_user_profiles(
        rng,
        n_users=model.n_users,
        processors=processors,
        runtime_log_mu=model.runtime_log_mu,
        runtime_log_sigma=model.runtime_log_sigma,
        width_mix=model.width_mix,
        width_max_frac=model.width_max_frac,
        session_jobs_mean=model.session_jobs_mean,
        session_gap_minutes=model.session_gap_minutes,
        estimate_styles=model.estimate_styles,
        estimate_margin_range=model.estimate_margin_range,
        max_requested_hours=model.max_requested_hours,
        failure_prob=model.failure_prob,
        min_request_choices=model.min_request_choices,
    )


def synthesize(model: WorkloadModel, seed: int = 0) -> Trace:
    """Generate a synthetic trace realising ``model``. Deterministic in seed."""
    if model.target_days is None:
        raise ValueError(
            f"model {model.name!r} has no target_days: synthesize a "
            f"simulation-sized subset, model.resized(n_jobs)"
        )
    rng = np.random.default_rng(seed)
    # The span and the simulation machine are fixed; the runtime rescale
    # below makes the offered load match over them.  Job widths are
    # sampled relative to the machine, so the mix keeps its character.
    m_eff = min(model.sim_processors, model.processors)
    profiles = _profiles_for(model, rng, m_eff)
    weights = np.array([p.weight for p in profiles])
    weights = weights / weights.sum()
    _pilot_draws(profiles, weights, rng)
    duration = max(model.target_days * _DAY, _DAY)

    mean_session_len = float(np.mean([p.session_jobs_mean for p in profiles]))
    n_sessions = max(1, int(round(model.n_jobs / mean_session_len)))
    session_starts = _sample_session_starts(
        rng,
        duration,
        n_sessions,
        model.day_amplitude,
        model.week_amplitude,
        model.burstiness,
    )

    raw: list[tuple[float, UserProfile, object]] = []
    owner_of_session = rng.choice(len(profiles), p=weights, size=len(session_starts))
    for start, owner_idx in zip(session_starts, owner_of_session, strict=True):
        profile = profiles[int(owner_idx)]
        for sj in profile.generate_session(rng):
            raw.append((float(start + sj.offset), profile, sj))
        if len(raw) >= model.n_jobs:
            break
    # Top up with extra sessions if the planned ones fell short.
    while len(raw) < model.n_jobs:
        start = float(rng.uniform(0.0, duration))
        profile = profiles[int(rng.choice(len(profiles), p=weights))]
        for sj in profile.generate_session(rng):
            raw.append((float(start + sj.offset), profile, sj))
    raw.sort(key=lambda item: item[0])
    raw = raw[: model.n_jobs]

    max_requested = model.max_requested_hours * 3600.0
    span = max(raw[-1][0] - raw[0][0], _DAY) if raw else _DAY
    wanted_area = model.offered_load * m_eff * span

    def realised(scale: float) -> list[tuple[float, float]]:
        """(requested, runtime) per job at the given runtime rescale."""
        out: list[tuple[float, float]] = []
        for _submit, profile, sj in raw:
            runtime = max(10.0, sj.runtime * scale)
            # The user's belief (and hence the request) follows the session
            # scale, not the exact runtime: this is what makes requested
            # times structurally inaccurate, as in production logs.  A
            # FIXED user's habitual request shifts with the same rescale.
            believed = max(10.0, sj.believed * scale)
            # Re-apply the wide-job walltime policy after rescaling.
            cap = wide_job_runtime_cap(sj.processors, profile.max_width, max_requested)
            runtime = min(runtime, cap)
            believed = min(believed, cap)
            fixed_request = pick_fixed_request(
                typical_runtime=profile.base_runtime * scale,
                margin=profile.margin * 1.5,
                ceiling=cap,
            )
            out.append(
                requested_time_for(
                    profile.style,
                    runtime=runtime,
                    believed_runtime=believed,
                    margin=profile.margin,
                    fixed_request=fixed_request,
                    ceiling=cap,
                    floor=min(profile.min_request, cap),
                )
            )
        return out

    # Fixed-point search for the runtime rescale that realises the target
    # load.  Clamping at requested times makes the response sub-linear, so
    # iterate a few times instead of solving in one shot.
    scale = 1.0
    pairs = realised(scale)
    for _ in range(10):
        achieved = 0.0  # left to right: the builtin sum compensates from Python 3.12
        for (_, rt), (_, _, sj) in zip(pairs, raw, strict=True):
            achieved += rt * sj.processors
        correction = wanted_area / max(achieved, 1.0)
        if 0.97 <= correction <= 1.03:
            break
        scale = float(np.clip(scale * correction, 0.01, 200.0))
        pairs = realised(scale)

    # Arrival smoothing: production arrival streams are self-regulating
    # (users back off when the system clogs), which open-loop synthesis
    # lacks.  Delay submissions so the *cumulative* offered load never
    # exceeds ``overload_cap`` times capacity -- transient bursts survive,
    # unbounded backlog build-up does not.  The first shaped submit is
    # ``t0`` itself, so the jobs are built rebased to it, once.
    overload_cap = 1.12
    t0 = raw[0][0] if raw else 0.0
    cumulative_area = 0.0
    last_submit = t0
    jobs: list[Job] = []
    for idx, ((submit, profile, sj), (requested, runtime)) in enumerate(
        zip(raw, pairs, strict=True), start=1
    ):
        earliest = t0 + cumulative_area / (m_eff * overload_cap)
        shaped_submit = max(submit, earliest, last_submit)
        last_submit = shaped_submit
        cumulative_area += runtime * sj.processors
        jobs.append(
            Job(
                job_id=idx,
                submit_time=float(shaped_submit) - t0,
                runtime=float(runtime),
                processors=int(sj.processors),
                requested_time=float(requested),
                user=profile.user_id,
                group=profile.user_id % 10,
                executable=sj.executable,
                status=0 if sj.failed else 1,
            )
        )
    return Trace(jobs, processors=m_eff, name=model.name, unix_start_time=int(t0))
