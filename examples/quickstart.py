#!/usr/bin/env python
"""Quickstart: simulate EASY backfilling with and without learned predictions.

Generates a synthetic KTH-SP2-class workload and runs three scheduling
scenarios on it, each described declaratively as a :class:`repro.CellSpec`
(the same object that keys the campaign cache and the distributed queue):

* standard EASY (user-requested running times);
* EASY++ (AVE2 prediction + incremental correction + SJBF order);
* the paper's winning triple (E-Loss learning + incremental + SJBF).

Run: ``python examples/quickstart.py``.  Set ``REPRO_EXAMPLE_JOBS`` to
shrink the workload (CI smoke runs use a few hundred jobs).
"""

import os

from repro import CellSpec, get_trace, run_spec

N_JOBS = int(os.environ.get("REPRO_EXAMPLE_JOBS", "1500"))
LOG = "KTH-SP2"

SCENARIOS = [
    ("EASY (requested times)", "requested", None, "easy"),
    ("EASY++ (AVE2 + incremental + SJBF)", "ave2", "incremental", "easy-sjbf"),
    ("E-Loss + incremental + SJBF (paper)", "ml:sq-lin-large-area", "incremental", "easy-sjbf"),
]


def main() -> None:
    trace = get_trace(LOG, n_jobs=N_JOBS)
    stats = trace.stats()
    print(f"workload: {stats.describe()}\n")

    print(f"{'scheduling approach':45s} {'AVEbsld':>8s} {'corrections':>12s}")
    for label, predictor, corrector, scheduler in SCENARIOS:
        spec = CellSpec.make(
            workload={"log": LOG, "n_jobs": N_JOBS},
            predictor=predictor,
            corrector=corrector,
            scheduler=scheduler,
        )
        result = run_spec(spec)
        print(
            f"{label:45s} {result.avebsld():8.1f} "
            f"{result.total_corrections():12d}"
        )

    print(
        "\nLower AVEbsld is better.  The learning-based triple backfills"
        "\nmore aggressively because its running-time predictions are far"
        "\ntighter than the users' requested times."
    )


if __name__ == "__main__":
    main()
