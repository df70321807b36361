#!/usr/bin/env python
"""CI gate: telemetry must stay cheap enough to leave on.

Reads a traced result of the repo benchmark (``benchmarks/suite/run.py
--trace 1 --out FILE``) and fails when a run's per-layer
``obs.enabled_overhead_pct`` -- what a live ``Telemetry`` registry adds
to a pass, in percent of the plain pass -- is above its workload's
ceiling (a workload without one fails too).  On ``corrections_narrow`` it
read 105-114 while every recorded number was its own locked registry
call, 40-53 with a per-session tally handed over once per public call,
and reads 25-33 since a pass records only what that pass alone can tell
(counters derived from the engine's own, size histograms sampled one
pass in sixteen); the ceiling sits between the last two.  On
``serve_closed_loop``, one instant per request, it read 31-37 while every
public session call and every request handed its tally over, and reads
10-26 since the registry reads the session's and the server's tallies
where they are kept; the ceiling sits between.  On ``easy_wide`` it reads
27-36 over seeds 1-5 since an EASY pass re-tests only the jobs its last
scan did not refuse; the ceiling sat about ten points above the highest,
as on ``corrections_narrow``.  Since a read derives the event-kind and
start counts from the engine's state and folds the prediction errors, they
read 18-28 (``corrections_narrow``) and 12-22 (``easy_wide``) over seeds
1-5, and both ceilings sit about ten points above the highest; on
``serve_closed_loop`` it reads 16-26, so that ceiling stays.  Usage::

    python scripts/check_obs_overhead.py layers-corrections_narrow.json
"""

from __future__ import annotations

import json
import sys

METRIC = "obs.enabled_overhead_pct"
CEILINGS = {"corrections_narrow": 37.0, "easy_wide": 32.0, "serve_closed_loop": 28.0}


def main(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    failed = False
    for run in runs:
        value = run.get("per_layer", {}).get(METRIC)
        ceiling = CEILINGS.get(run.get("workload"))
        label = f"{run.get('workload')} seed {run.get('seed')}: {METRIC}"
        if ceiling is None:
            print(f"{label}: no ceiling for this workload", file=sys.stderr)
            failed = True
        elif value is None:
            print(f"{label} missing (not a traced run?)", file=sys.stderr)
            failed = True
        elif value > ceiling:
            print(f"{label} = {value:.1f} > {ceiling:g}", file=sys.stderr)
            failed = True
        else:
            print(f"{label} = {value:.1f} <= {ceiling:g}")
    return 1 if failed or not runs else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} RESULT.json")
    sys.exit(main(sys.argv[1]))
