"""Metamorphic relations: schedule properties that need no oracle.

Each relation transforms a trace, reruns the same cell, and states how
the schedule must change.  Each is listed as exact (rows compared bit
for bit) or not, with the reason.

* **User relabelling -> the same schedule (exact).**  Permuting the
  user ids of a trace changes no job's start or end, under every
  predictor, corrector and scheduler.  It is exact because a user id is
  only ever a key: the history predictors and the ML features group
  jobs by user, but no feature, prediction, order or tie-break reads the
  id as a value.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workload import Trace, get_trace

from tests.helpers import run_triple

#: (predictor, corrector) pairs: the fixed and clairvoyant baselines, the
#: history average, and the paper's ML predictor under both correctors.
PREDICTORS = (
    ("requested", None),
    ("clairvoyant", None),
    ("ave2", "incremental"),
    ("ml:sq-lin-large-area", "incremental"),
    ("ml:sq-sq-constant", "doubling"),
)
SCHEDULERS = ("easy", "easy-sjbf", "conservative")
LOGS = ("KTH-SP2", "Curie")
N_JOBS = 200


def relabel_users(trace: Trace, seed: int) -> Trace:
    """``trace`` with its user ids permuted by a seeded permutation."""
    users = sorted({job.user for job in trace})
    shuffled = np.random.default_rng(seed).permutation(users).tolist()
    label = dict(zip(users, shuffled, strict=True))
    return Trace(
        [job.with_updates(user=label[job.user]) for job in trace],
        processors=trace.processors,
        name=trace.name,
        unix_start_time=trace.unix_start_time,
    )


def schedule_rows(trace: Trace, predictor: str, corrector: str | None, scheduler: str):
    result = run_triple(trace, f"{predictor}|{corrector or 'none'}|{scheduler}")
    return sorted((r.job_id, r.start_time, r.end_time) for r in result)


@pytest.fixture(scope="module", params=LOGS)
def traces(request) -> tuple[Trace, Trace]:
    trace = get_trace(request.param, n_jobs=N_JOBS)
    relabelled = relabel_users(trace, seed=11)
    moved = sum(a.user != b.user for a, b in zip(trace, relabelled, strict=True))
    assert moved > N_JOBS // 2  # the permutation really moves most jobs
    return trace, relabelled


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("predictor, corrector", PREDICTORS)
def test_user_relabelling_changes_no_schedule(traces, predictor, corrector, scheduler):
    trace, relabelled = traces
    assert schedule_rows(relabelled, predictor, corrector, scheduler) == schedule_rows(
        trace, predictor, corrector, scheduler
    )
