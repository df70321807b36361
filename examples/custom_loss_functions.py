#!/usr/bin/env python
"""Explore the paper's loss-function design space on one workload.

The paper's key design question (Section 4.2): which combination of
under/over-prediction branch and job weighting trains the most *useful*
predictor for backfilling?  This example sweeps all 20 loss
configurations (Table 5) on a Curie-class workload inside the winning
scheduling context (Incremental + EASY-SJBF) and reports both prediction
metrics and the resulting AVEbsld -- demonstrating the paper's finding
that prediction accuracy (MAE) and scheduling usefulness diverge.

Each configuration is spelled the registry way (``"ml:<loss key>"``),
built with :func:`repro.make_predictor` and simulated on the shared trace
-- the same component stack a ``[[grid]]`` spec file expands to.

Run: ``python examples/custom_loss_functions.py``.  Set
``REPRO_EXAMPLE_JOBS`` to shrink the workload for smoke runs.
"""

import os

from repro import (
    E_LOSS,
    get_trace,
    make_corrector,
    make_predictor,
    make_scheduler,
    simulate,
)
from repro.metrics import mean_absolute_error, mean_loss
from repro.predict import all_loss_specs

N_JOBS = int(os.environ.get("REPRO_EXAMPLE_JOBS", "1200"))


def main() -> None:
    trace = get_trace("Curie", n_jobs=N_JOBS)
    print(f"workload: {trace.stats().describe()}\n")

    print(
        f"{'loss (over-under-weight)':32s} {'AVEbsld':>8s} "
        f"{'MAE(s)':>8s} {'mean E-Loss':>12s}"
    )
    rows = []
    for spec in all_loss_specs():
        result = simulate(
            trace,
            make_scheduler("easy-sjbf"),
            make_predictor(f"ml:{spec.key}"),
            make_corrector("incremental"),
        )
        rows.append(
            (
                spec.key,
                result.avebsld(),
                mean_absolute_error(result),
                mean_loss(result, E_LOSS),
            )
        )
    rows.sort(key=lambda r: r[1])
    for key, avebsld, mae, eloss in rows:
        marker = "  <- paper's E-Loss" if key == E_LOSS.key else ""
        print(f"{key:32s} {avebsld:8.1f} {mae:8.0f} {eloss:12.3g}{marker}")

    best = rows[0]
    print(
        f"\nbest loss on this workload: {best[0]} (AVEbsld {best[1]:.1f})\n"
        "note how the MAE ranking differs from the AVEbsld ranking: the\n"
        "most accurate predictor is not the most useful one for EASY."
    )


if __name__ == "__main__":
    main()
