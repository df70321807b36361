#!/usr/bin/env python
"""Work with Standard Workload Format files end to end.

1. synthesise a Curie-class trace and write it as an SWF file (the
   format of the Parallel Workloads Archive);
2. parse it back, apply the standard cleaning filters;
3. simulate the paper's winning component triple on the cleaned trace
   with :func:`repro.simulate` (components built from registry
   spellings, the same stack spec files expand to).

This is the exact workflow for running the library on *real* archive
logs: drop a ``.swf`` file in place of the synthetic one (or set
``REPRO_SWF_DIR``) and everything downstream is unchanged.

Run: ``python examples/swf_workflow.py``.  Set ``REPRO_EXAMPLE_JOBS``
to shrink the workload for smoke runs.
"""

import os
import tempfile

from repro import (
    get_trace,
    load_swf,
    make_corrector,
    make_predictor,
    make_scheduler,
    save_swf,
    simulate,
)
from repro.workload import standard_clean

N_JOBS = int(os.environ.get("REPRO_EXAMPLE_JOBS", "800"))

WINNER = ("ml:sq-lin-large-area", "incremental", "easy-sjbf")


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-swf-")
    path = os.path.join(workdir, "Curie.swf")

    # 1. synthesise and export
    trace = get_trace("Curie", n_jobs=N_JOBS)
    save_swf(trace, path)
    print(f"wrote {path} ({os.path.getsize(path)} bytes)")

    # 2. parse and clean
    loaded, report = load_swf(path)
    print(
        f"parsed {report.n_jobs} jobs ({report.n_skipped} skipped); "
        f"header keys: {sorted(report.header)[:4]}..."
    )
    cleaned = standard_clean(loaded)
    print(f"after standard cleaning: {len(cleaned)} jobs")
    print(f"workload: {cleaned.stats().describe()}\n")

    # 3. simulate the winning triple
    predictor, corrector, scheduler = WINNER
    result = simulate(
        cleaned,
        make_scheduler(scheduler),
        make_predictor(predictor),
        make_corrector(corrector),
    )
    print(f"components  : {predictor} + {corrector} + {scheduler}")
    print(f"AVEbsld     : {result.avebsld():.1f}")
    print(f"utilization : {result.utilization():.2f}")
    print(f"corrections : {result.total_corrections()}")


if __name__ == "__main__":
    main()
