"""``run.py --selftest``: the suite checking itself, in under ten seconds.

Runs all six workloads at about 1/20 size, untraced and traced, in one
interpreter, and holds ``BENCHMARK.json``, :mod:`catalog` and what the
runs emit to each other.  Also proves that the correctness checks bite
and that the bursty-user generator is seeded.
"""

from __future__ import annotations

import json
from time import perf_counter

import catalog
import checks
import workloads

SCALE = 0.05
SEED = 7


def check_bursty_users() -> None:
    n_users, share = 40, 0.15
    first = workloads.bursty_users(SEED, n_users=n_users, abusive_share=share, n_jobs=800)
    again = workloads.bursty_users(SEED, n_users=n_users, abusive_share=share, n_jobs=800)
    other = workloads.bursty_users(SEED + 1, n_users=n_users, abusive_share=share, n_jobs=800)
    assert first.digest() == again.digest(), "same seed must give the same trace"
    assert first.digest() != other.digest(), "another seed must give another trace"
    cohort = workloads.abusive_users(n_users, share)
    from_cohort = sum(1 for job in first if job.user < cohort)
    assert from_cohort / len(first) >= share, "abusive cohort submits under its share"
    assert max(job.processors for job in first) <= first.processors, "job wider than machine"


def check_validator_bites() -> None:
    # three 2-wide jobs on a 4-processor machine: the third overlaps both
    legal = [(1, 0.0, 10.0, 2, 0.0, 10.0), (2, 0.0, 10.0, 2, 0.0, 10.0),
             (3, 1.0, 5.0, 2, 10.0, 15.0)]
    assert checks.validate_schedule(legal, 4, [1, 2, 3]) == []
    overcommitted = legal[:2] + [(3, 1.0, 5.0, 2, 5.0, 10.0)]
    assert any("busy" in p for p in checks.validate_schedule(overcommitted, 4, [1, 2, 3]))
    early = [(1, 5.0, 10.0, 2, 4.0, 14.0)]
    assert any("before submit" in p for p in checks.validate_schedule(early, 4, [1]))
    assert checks.validate_schedule(legal[:2], 4, [1, 2, 3]), "a missing job must be reported"


def check_declarations(spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    assert tuple(names) == catalog.ALL, "BENCHMARK.json workloads differ from the catalog"
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == catalog.END_TO_END, "BENCHMARK.json end_to_end differs from the catalog"
    universal = {
        name: unit for name, (unit, where) in catalog.PER_LAYER.items() if where == catalog.ALL
    }
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == universal, (
        f"BENCHMARK.json per_layer differs from the catalog: "
        f"{sorted(set(declared) ^ set(universal))}"
    )


def check_run(record: dict, spec: dict, contract_line) -> None:
    name = record["workload"]
    assert record["failed"] == 0 and record["correct"], (name, record["problems"])
    line = json.loads(contract_line(record, spec))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if record["trace"] else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    emitted = {metric: body["unit"] for metric, body in line["metrics"].items()}
    assert emitted == declared, (name, sorted(set(emitted) ^ set(declared)))
    if not record["trace"]:
        assert all(value > 0 for value in record["end_to_end"].values()), name
        return
    values = record["per_layer"]
    measured = {metric for metric, value in values.items() if value is not None}
    assert set(values) == set(catalog.PER_LAYER), (name, set(values) ^ set(catalog.PER_LAYER))
    assert measured == catalog.measured_on(name), (
        name, sorted(measured ^ catalog.measured_on(name)), record["skipped"]
    )
    wall = values["traced_wall_s"]
    for metric, value in values.items():
        if metric.endswith(".busy_s") and value is not None:
            assert value <= wall, (name, metric, value, wall)
    assert values["layer_sum_s"] <= wall, (name, values["layer_sum_s"], wall)
    assert 0.0 <= values["unexplained_share"] < 1.0, (name, values["unexplained_share"])


def main(spec: dict, run_one, contract_line) -> int:
    begin = perf_counter()
    check_declarations(spec)
    check_bursty_users()
    check_validator_bites()
    for workload in catalog.ALL:
        for traced in (False, True):
            record = run_one(workload, SEED, 0.0, traced, 0.0, scale=SCALE, quick=True)
            check_run(record, spec, contract_line)
            print(f"ok {workload} trace={int(traced)}")
    print(f"selftest ok in {perf_counter() - begin:.1f} s")
    return 0
