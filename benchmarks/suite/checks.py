"""Correctness checks the benchmark runs on the program's outputs.

Harness-local on purpose: the checker must not share code with what it
checks.  Every violation is one failed operation of the run.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable, Sequence

import numpy as np

#: (job_id, submit, runtime, processors, start, end) of one scheduled job
Placement = tuple[int, float, float, int, float, float]


def placements(result: Iterable) -> list[Placement]:
    """Flatten a ``SimulationResult`` into plain placement tuples."""
    return [
        (r.job_id, r.submit_time, r.runtime, r.processors, r.start_time, r.end_time)
        for r in result
    ]


def validate_schedule(
    placed: Sequence[Placement], processors: int, expected_ids: Iterable[int]
) -> list[str]:
    """Violations of schedule validity; empty when the schedule is legal.

    Checked: every expected job is placed exactly once, no job starts
    before its submission, ``end - start`` equals the runtime, and at no
    breakpoint are more than ``processors`` busy (jobs ending at an
    instant release before jobs starting at it acquire).
    """
    problems: list[str] = []
    expected = sorted(expected_ids)
    got = sorted(p[0] for p in placed)
    if got != expected:
        missing = len(set(expected) - set(got))
        extra = len(got) - len(set(got) & set(expected))
        problems.append(f"job set differs: {missing} missing, {extra} unexpected")
    if not placed:
        return problems
    ids, submit, runtime, width, start, end = np.array(placed, dtype=float).T
    for i in np.flatnonzero(start < submit):
        problems.append(f"job {int(ids[i])} starts at {start[i]}, before submit {submit[i]}")
    for i in np.flatnonzero(np.abs((end - start) - runtime) > 1e-6 * np.maximum(1.0, runtime)):
        problems.append(f"job {int(ids[i])} ran {end[i] - start[i]}, runtime is {runtime[i]}")
    times = np.concatenate([start, end])
    delta = np.concatenate([width, -width])
    order = np.lexsort((delta, times))  # at equal times releases sort first
    busy = np.cumsum(delta[order])
    if busy.max() > processors:
        at = float(times[order][int(busy.argmax())])
        problems.append(f"{int(busy.max())} processors busy at t={at}, machine has {processors}")
    return problems


def schedule_rows(result: Iterable) -> list[tuple]:
    """Sorted ``(job_id, start, end, corrections)``: the schedule identity."""
    return sorted((r.job_id, r.start_time, r.end_time, r.corrections) for r in result)


def rows_digest(rows: object) -> str:
    """sha256 of the canonical JSON of ``rows`` (floats keep full repr)."""
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()
