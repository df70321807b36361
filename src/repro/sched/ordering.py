"""Backfill-candidate ordering policies.

EASY scans the waiting queue (minus the head job, which holds the
reservation) for backfill candidates.  The paper compares two scan
orders:

* **FCFS**  -- arrival order (classic EASY);
* **SJBF**  -- Shortest (predicted) Job Backfilled First, from Tsafrir et
  al., which the paper's winning triple uses.

Each order is a key function over job records.
"""

from __future__ import annotations

from collections.abc import Callable

from ..sim.results import JobRecord

__all__ = ["BACKFILL_ORDERS", "order_queue", "fcfs_key", "sjbf_key"]

OrderKey = Callable[[JobRecord], tuple]


def fcfs_key(record: JobRecord) -> tuple:
    """Arrival order; ties broken by job id (stable with trace order)."""
    return (record.submit_time, record.job_id)


def sjbf_key(record: JobRecord) -> tuple:
    """Shortest predicted job first; ties broken FCFS."""
    return (record.predicted_runtime, record.submit_time, record.job_id)


#: Registry of named backfill orders.
BACKFILL_ORDERS: dict[str, OrderKey] = {
    "fcfs": fcfs_key,
    "sjbf": sjbf_key,
}


def order_queue(records: list[JobRecord], order: str) -> list[JobRecord]:
    """Return ``records`` sorted under the named order (copy): the seed's
    per-pass sort, which only the :mod:`repro.sched.legacy` oracles still
    run (they check the name when built); EASY keeps key order instead."""
    return sorted(records, key=BACKFILL_ORDERS[order])
