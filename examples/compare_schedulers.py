#!/usr/bin/env python
"""Compare scheduling algorithms across all six workload classes.

Runs pure FCFS, EASY, EASY-SJBF and conservative backfilling (all with
user-requested times, plus a clairvoyant reference) on each archive log
and prints AVEbsld and utilization -- the classic "how much does
backfilling buy, and what do predictions add on top" picture.

Run: ``python examples/compare_schedulers.py``.  Set
``REPRO_EXAMPLE_JOBS`` to shrink the workloads for smoke runs.
"""

import os

from repro import get_trace, simulate
from repro.predict import ClairvoyantPredictor, RequestedTimePredictor
from repro.sched import make_scheduler
from repro.workload import LOG_NAMES

N_JOBS = int(os.environ.get("REPRO_EXAMPLE_JOBS", "1000"))

SCHEDULERS = ("fcfs", "easy", "easy-sjbf", "conservative")


def main() -> None:
    print(
        f"{'log':12s} {'scheduler':14s} {'predictions':12s} "
        f"{'AVEbsld':>9s} {'util':>6s} {'max queue':>10s}"
    )
    for log in LOG_NAMES:
        trace = get_trace(log, n_jobs=N_JOBS)
        for scheduler_name in SCHEDULERS:
            result = simulate(
                trace, make_scheduler(scheduler_name), RequestedTimePredictor()
            )
            print(
                f"{log:12s} {scheduler_name:14s} {'requested':12s} "
                f"{result.avebsld():9.1f} {result.utilization():6.2f} "
                f"{result.stats.max_queue_length:10d}"
            )
        # clairvoyant EASY-SJBF as the non-achievable reference
        result = simulate(
            trace, make_scheduler("easy-sjbf"), ClairvoyantPredictor()
        )
        print(
            f"{log:12s} {'easy-sjbf':14s} {'clairvoyant':12s} "
            f"{result.avebsld():9.1f} {result.utilization():6.2f} {'-':>10s}"
        )
        print()


if __name__ == "__main__":
    main()
