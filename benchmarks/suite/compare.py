"""Compare two result files of the suite: ``compare.py OLD.json NEW.json``.

One row per (workload, end-to-end metric) with both medians, the spread
of each side's passes and a verdict under the metric's own bound and
direction from ``BENCHMARK.json``:

``better`` / ``worse``  the medians differ by more than the bound;
``same``                they do not;
``unresolved``          a side's passes spread wider than the bound and
                        the two sides' passes overlap, so the bound cannot
                        be decided from these runs.

Simulated statistics (``avebsld``, ``utilization``, ``corrections``,
``schedule_digest``) must be identical when both files used one seed: a
speed-only change leaves them bit-for-bit alone.  Exits non-zero on any
``worse``, any changed simulated statistic, or any rise in failures.
The in-suite stand-in for ``repro bench --diff``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys


def load_runs(path: str) -> dict[str, dict]:
    """Untraced runs of a result file by workload (the last one wins)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {run["workload"]: run for run in doc["runs"] if not run["trace"]}


def pass_values(run: dict, name: str) -> list[float]:
    """The per-pass values behind an end-to-end metric, in the units the
    metric is reported in (reference-box seconds, see clock.py)."""
    if name in ("jobs_per_s", "work_per_s"):
        amount = run["jobs"] if name == "jobs_per_s" else run["work"]
        return [amount / wall for wall in run["passes"]["wall_s"]]
    return run["passes"].get(name, [])


def spread(values: list[float]) -> float:
    """(max - min) / median of one side's passes; 0 for a single value."""
    if len(values) < 2:
        return 0.0
    return (max(values) - min(values)) / statistics.median(values)


def verdict(
    old: float, new: float, old_passes: list[float], new_passes: list[float],
    better: str, bound: float,
) -> str:
    worsening = (new - old) / old if better == "lower" else (old - new) / old
    overlap = (
        bool(old_passes) and bool(new_passes)
        and min(old_passes) <= max(new_passes) and min(new_passes) <= max(old_passes)
    )
    if max(spread(old_passes), spread(new_passes)) > bound and overlap:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def compare(old_path: str, new_path: str, spec: dict) -> int:
    old_runs, new_runs = load_runs(old_path), load_runs(new_path)
    failures = 0
    print(f"{'workload':20s} {'metric':14s} {'old':>12s} {'new':>12s} {'change':>8s} "
          f"{'spread old/new':>15s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        old, new = old_runs.get(workload), new_runs.get(workload)
        if old is None and new is None:
            continue
        if old is None or new is None:
            print(f"{workload:20s} missing from {'OLD' if old is None else 'NEW'}")
            failures += new is None
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = old["end_to_end"][name], new["end_to_end"][name]
            a_passes, b_passes = pass_values(old, name), pass_values(new, name)
            word = verdict(a, b, a_passes, b_passes, metric["better"], metric["bound"])
            failures += word == "worse"
            print(f"{workload:20s} {name:14s} {a:12.5g} {b:12.5g} {(b - a) / a:+8.1%} "
                  f"{spread(a_passes):7.1%}/{spread(b_passes):<7.1%}  {word}")
        if new["failed"] > old["failed"]:
            failures += 1
            print(f"{workload:20s} failed operations rose: {old['failed']} -> {new['failed']}")
        if old["seed"] == new["seed"] and old["scale"] == new["scale"]:
            changed = [k for k, v in old["recorded"].items() if new["recorded"].get(k) != v]
            failures += bool(changed)
            state = f"CHANGED: {', '.join(changed)}" if changed else "identical"
            print(f"{workload:20s} simulated statistics {state}")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return compare(argv[0], argv[1], spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
