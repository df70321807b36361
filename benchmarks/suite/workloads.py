"""Seeded input generators of the benchmark suite.

Everything a workload feeds the program is made here, from the run's
``--seed`` and nothing else; the program under test only ever sees the
resulting :class:`~repro.workload.Trace`, spec document or JSONL lines.
Only ``repro.workload.Job`` / ``Trace`` are used, so a change to the
program's own synthesiser cannot move a single-cell workload's input.
"""

from __future__ import annotations

import json

import numpy as np

from repro.workload import Job, Trace

WEEK_SECONDS = 7 * 86400.0


def make_week_trace(
    processors: int,
    runtime_log_mu: float,
    runtime_log_sigma: float,
    widths: tuple[int, ...],
    width_probs: tuple[float, ...],
    offered_load: float,
    seed: int,
    weeks: float = 1.0,
    flurry_share: float = 0.0,
    flurry_hours: float = 24.0,
    n_users: int = 50,
    name: str = "bench-week",
) -> Trace:
    """Synthetic submissions over ``weeks`` weeks, sized to a target load.

    The shape of ``benchmarks/bench_engine.py::make_week_trace`` (copied,
    not imported: the suite must outlive that file): the job count follows
    from ``n = load * m * T / (E[runtime] * E[width])``, runtimes are
    lognormal clipped to [1 min, 3 days], widths come from a fixed mix and
    requested times over-estimate by a uniform 1.2-3x margin.  Unlike the
    original, the submissions are spread over the span that makes the
    *drawn* work offer exactly ``offered_load`` (within 3 % of ``weeks``).

    ``flurry_share`` of the jobs arrive in equal-sized flurries, about one
    every ``flurry_hours``, each spread over a minute; the rest arrive
    uniformly.
    A flurry wider than the machine builds a queue of known depth that
    then drains, which is what makes the host time of a deep-queue
    workload repeat from seed to seed: at a sustained load near 1 the
    queue depth is a critical random walk and the pass time of two seeds
    differed by 30-50 % in the prototype.
    """
    rng = np.random.default_rng(seed)
    mean_runtime = float(np.exp(runtime_log_mu + runtime_log_sigma**2 / 2))
    mean_width = float(np.dot(widths, width_probs))
    nominal_span = WEEK_SECONDS * weeks
    n_jobs = int(offered_load * processors * nominal_span / (mean_runtime * mean_width))
    runtime = np.clip(
        rng.lognormal(runtime_log_mu, runtime_log_sigma, n_jobs), 60.0, 3 * 86400.0
    )
    width = rng.choice(widths, n_jobs, p=width_probs)
    margin = rng.uniform(1.2, 3.0, n_jobs)
    # the span follows from the work actually drawn, so every seed offers
    # exactly ``offered_load``: the heavy tail moves the realised load of a
    # fixed span by +-3 %, and the cost of a queue moves 3x as much
    span = float(np.sum(runtime * width)) / (processors * offered_load)
    n_flurry_jobs = int(n_jobs * flurry_share)
    n_flurries = max(1, int(nominal_span / (flurry_hours * 3600.0)))
    uniform = rng.uniform(0.0, span, n_jobs - n_flurry_jobs)
    flurry_start = (np.arange(n_flurry_jobs) % n_flurries) * (span / n_flurries)
    flurries = flurry_start + rng.uniform(0.0, 60.0, n_flurry_jobs)
    submit = np.sort(np.concatenate([uniform, flurries]))
    jobs = [
        Job(
            job_id=i + 1,
            submit_time=float(submit[i]),
            runtime=float(runtime[i]),
            processors=int(width[i]),
            requested_time=float(runtime[i] * margin[i]),
            user=int(i % n_users),
        )
        for i in range(n_jobs)
    ]
    return Trace(jobs, processors=processors, name=name)


def abusive_users(n_users: int, abusive_share: float) -> int:
    """Size of the abusive cohort (users ``0 .. n-1`` of the trace)."""
    return max(1, round(n_users * abusive_share))


def bursty_users(
    seed: int,
    n_users: int = 48,
    abusive_share: float = 0.125,
    n_jobs: int = 5000,
    processors: int = 256,
    offered_load: float = 0.6,
    abusive_rate: float = 6.0,
    burst_jobs: int = 40,
    name: str = "bench-bursty-users",
) -> Trace:
    """Per-user Poisson arrivals with a bursty "abusive" cohort.

    Every user is their own job class: a personal lognormal runtime
    centre, a habitual width and a habitual over-estimation factor, so
    the per-user history the paper's features read is informative.
    Regular users submit as a Poisson process over the whole span.  The
    first ``abusive_share`` of the users submit ``abusive_rate`` times as
    many jobs each, in bursts of about ``burst_jobs`` within a few
    minutes -- the FAIRSERVE generator's cohort (SNIPPETS.md section 2)
    moved to a batch system.  The span follows from the realised work and
    ``offered_load``.
    """
    rng = np.random.default_rng(seed)
    n_abusive = abusive_users(n_users, abusive_share)
    weight = np.ones(n_users)
    weight[:n_abusive] = abusive_rate
    user = rng.choice(n_users, n_jobs, p=weight / weight.sum())

    max_width = min(32, processors)
    width_choices = np.array([w for w in (1, 2, 4, 8, 16, 32) if w <= max_width])
    user_mu = rng.normal(8.3, 1.0, n_users)
    user_width = rng.choice(width_choices, n_users)
    # the cohort floods with small jobs (parameter sweeps): many of one
    # user's jobs run at once, which is what loads the per-user state
    user_mu[:n_abusive] -= 0.7
    user_width[:n_abusive] = rng.choice(width_choices[:3], n_abusive)
    user_margin = rng.uniform(1.3, 4.0, n_users)
    runtime = np.clip(rng.lognormal(user_mu[user], 0.5), 60.0, 2 * 86400.0)
    habitual = rng.uniform(0.0, 1.0, n_jobs) < 0.8
    width = np.where(habitual, user_width[user], rng.choice(width_choices, n_jobs))
    margin = user_margin[user] * rng.uniform(0.9, 1.5, n_jobs)
    requested = runtime * np.maximum(margin, 1.05)

    span = float(np.sum(runtime * width)) / (processors * offered_load)
    submit = rng.uniform(0.0, span, n_jobs)
    for cohort_user in range(n_abusive):
        mine = np.flatnonzero(user == cohort_user)
        n_bursts = max(1, len(mine) // burst_jobs)
        epochs = rng.uniform(0.0, span, n_bursts)
        submit[mine] = epochs[rng.integers(0, n_bursts, len(mine))] + rng.exponential(
            120.0, len(mine)
        )
    order = np.argsort(submit, kind="stable")
    jobs = [
        Job(
            job_id=rank + 1,
            submit_time=float(submit[i]),
            runtime=float(runtime[i]),
            processors=int(width[i]),
            requested_time=float(requested[i]),
            user=int(user[i]),
        )
        for rank, i in enumerate(order)
    ]
    return Trace(jobs, processors=processors, name=name)


def campaign_doc(seed: int, n_jobs: int, logs: tuple[str, ...], replicas: int = 1) -> dict:
    """A ``campaign_grid`` spec document: 16 triples per log and replica.

    requested and clairvoyant (2 x 2 backfill orders), AVE2 under two
    correctors, and two of the paper's ML losses under two correctors:
    cheap and expensive predictors side by side, many small cells.
    """
    schedulers = ["easy", "easy-sjbf"]
    return {
        "campaign": {
            "name": "bench-campaign-grid",
            "logs": list(logs),
            "n_jobs": int(n_jobs),
            "seeds": [int(seed) + replica for replica in range(replicas)],
        },
        "grid": [
            {
                "predictor": ["requested", "clairvoyant"],
                "corrector": ["none"],
                "scheduler": schedulers,
            },
            {
                "predictor": ["ave2"],
                "corrector": ["requested", "incremental"],
                "scheduler": schedulers,
            },
            {
                "predictor": ["ml:sq-lin-large-area", "ml:sq-sq-constant"],
                "corrector": ["incremental", "doubling"],
                "scheduler": schedulers,
            },
        ],
    }


#: request classes of the serve script, in the order a job's block emits them
SERVE_CLASSES = ("submit", "query_cold", "query_warm", "probe", "complete")


def serve_script(
    trace: Trace, ends: dict[int, float], seed: int
) -> list[tuple[str, str]]:
    """The lock-step client of ``serve_closed_loop`` as ``(class, line)``.

    Per job, in submit order: ``submit`` (advancing the clock to the
    submission), ``query`` of that job (cold: the clock just moved), the
    same query again (warm), a hypothetical-job ``query`` (probe), then a
    ``complete`` for every job whose end in the reference schedule
    ``ends`` falls before the next submission.  The script closes with
    ``drain``, ``result`` and ``stats`` (class ``admin``).
    """
    rng = np.random.default_rng(seed)
    jobs = list(trace)
    by_end = sorted((end, job_id) for job_id, end in ends.items())
    probe_width = rng.choice((1, 2, 4, 8), len(jobs))
    probe_hours = rng.uniform(0.2, 12.0, len(jobs))
    script: list[tuple[str, str]] = []
    done = 0
    for i, job in enumerate(jobs):
        payload = {
            "job_id": job.job_id,
            "submit_time": job.submit_time,
            "runtime": job.runtime,
            "processors": job.processors,
            "requested_time": job.requested_time,
            "user": job.user,
        }
        script.append(
            ("submit", json.dumps({"cmd": "submit", "job": payload, "advance": True}))
        )
        query = json.dumps({"cmd": "query", "job_id": job.job_id})
        script.append(("query_cold", query))
        script.append(("query_warm", query))
        probe = {
            "job_id": 10**9 + i,
            "submit_time": job.submit_time,
            "processors": int(probe_width[i]),
            "requested_time": float(probe_hours[i] * 3600.0),
            "user": job.user,
        }
        script.append(("probe", json.dumps({"cmd": "query", "job": probe})))
        horizon = jobs[i + 1].submit_time if i + 1 < len(jobs) else float("inf")
        while done < len(by_end) and by_end[done][0] <= horizon:
            end, job_id = by_end[done]
            line = {"cmd": "complete", "job_id": job_id, "time": end}
            script.append(("complete", json.dumps(line)))
            done += 1
    for cmd in ("drain", "result", "stats"):
        script.append(("admin", json.dumps({"cmd": cmd})))
    return script
