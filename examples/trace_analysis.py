#!/usr/bin/env python
"""Characterise a workload and visualise a schedule, all in the terminal.

1. synthesise a SDSC-BLUE-class trace and print its population statistics
   (runtime/width distributions, estimate accuracy, arrival pattern);
2. run EASY and the paper's winning triple on it, each spelled as
   registry components (``make_scheduler`` & co.) and :func:`repro.simulate`;
3. render machine utilization over time for both schedules and show where
   the learned predictions reclaim backfilling holes.

Run: ``python examples/trace_analysis.py``.  Set ``REPRO_EXAMPLE_JOBS``
to shrink the workload for smoke runs.
"""

import os

import numpy as np

from repro import get_trace, make_corrector, make_predictor, make_scheduler, simulate
from repro.sim import ascii_timeline, queue_timeline

N_JOBS = int(os.environ.get("REPRO_EXAMPLE_JOBS", "1500"))

SCENARIOS = [
    ("EASY (requested times)", "requested", None, "easy"),
    ("E-Loss + incremental + SJBF (paper)", "ml:sq-lin-large-area", "incremental", "easy-sjbf"),
]


def percentile_row(label, values, unit=""):
    q = np.percentile(values, [10, 50, 90, 99])
    return (
        f"  {label:24s} p10={q[0]:10.0f}{unit}  median={q[1]:10.0f}{unit}  "
        f"p90={q[2]:10.0f}{unit}  p99={q[3]:10.0f}{unit}"
    )


def main() -> None:
    trace = get_trace("SDSC-BLUE", n_jobs=N_JOBS)
    stats = trace.stats()
    print(f"workload: {stats.describe()}\n")

    runtimes = np.array([j.runtime for j in trace])
    widths = np.array([j.processors for j in trace])
    ratios = np.array([j.overestimation_factor for j in trace])
    inter = np.diff(np.array([j.submit_time for j in trace]))
    print("population characteristics:")
    print(percentile_row("runtime", runtimes, "s"))
    print(percentile_row("width (processors)", widths))
    print(percentile_row("requested/actual", ratios, "x"))
    print(percentile_row("inter-arrival", inter, "s"))

    # how modal are the requested times? (the paper's Section 2 premise)
    requested = np.array([j.requested_time for j in trace])
    values, counts = np.unique(requested, return_counts=True)
    top = np.argsort(counts)[::-1][:5]
    share = counts[top].sum() / len(trace)
    print(
        f"\n  requested times: {len(values)} distinct values; the top 5 cover "
        f"{share:.0%} of jobs\n"
    )

    for label, predictor, corrector, scheduler in SCENARIOS:
        result = simulate(
            trace,
            make_scheduler(scheduler),
            make_predictor(predictor),
            make_corrector(corrector) if corrector else None,
        )
        _times, depth = queue_timeline(result)
        print(f"=== {label} ===")
        print(f"AVEbsld {result.avebsld():.1f}, max queue depth {depth.max()}")
        print(ascii_timeline(result, width=70, height=8))
        print()


if __name__ == "__main__":
    main()
