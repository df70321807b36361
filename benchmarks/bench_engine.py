"""Engine benchmarks: profile-based scheduling path vs the seed rescan.

Two entry points:

* **Script mode** (used by CI):

  .. code-block:: console

     python benchmarks/bench_engine.py --quick [--out BENCH_engine.json]

  Builds synthetic week-long traces, runs each scenario through the
  profile-based schedulers *and* the frozen seed implementations
  (``repro.sched.legacy``), verifies the two produce byte-identical
  per-job schedules, and writes a JSON report with per-scenario and
  overall speedups.  ``--quick`` is bounded to well under 60 s of wall
  time; the default (full) mode uses larger traces for stabler numbers.

* **pytest-benchmark mode** (developer profiling):

  .. code-block:: console

     pytest benchmarks/bench_engine.py

Everything is deterministically seeded; no network, no optional deps.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path and not os.environ.get("REPRO_NO_SRC_PATH"):
    sys.path.insert(0, _SRC)

import numpy as np

from repro.correct import IncrementalCorrector
from repro.predict import RecentAveragePredictor, RequestedTimePredictor
from repro.sched import make_scheduler
from repro.sim import SimSession
from repro.sim.engine import ENGINE_VERSION
from repro.workload import Job, Trace

WEEK_SECONDS = 7 * 86400.0


def make_week_trace(
    processors: int,
    runtime_log_mu: float,
    runtime_log_sigma: float,
    widths: tuple[int, ...],
    width_probs: tuple[float, ...],
    offered_load: float,
    seed: int,
    name: str = "bench-week",
) -> Trace:
    """A deterministic synthetic week of submissions sized to a target load.

    The job count is derived from the load identity
    ``n = load * m * T / (E[runtime] * E[width])`` so the same shape can
    be scaled to any machine size.  Runtimes are lognormal (clipped to
    [1 min, 3 days]), widths drawn from a fixed mix, and requested times
    over-estimate the runtime by a uniform 1.2-3x margin -- the classic
    production-log regime the paper targets.
    """
    rng = np.random.default_rng(seed)
    mean_runtime = float(np.exp(runtime_log_mu + runtime_log_sigma**2 / 2))
    mean_width = float(np.dot(widths, width_probs))
    n_jobs = int(offered_load * processors * WEEK_SECONDS / (mean_runtime * mean_width))
    submit = np.sort(rng.uniform(0.0, WEEK_SECONDS, n_jobs))
    runtime = np.clip(
        rng.lognormal(runtime_log_mu, runtime_log_sigma, n_jobs), 60.0, 3 * 86400.0
    )
    width = rng.choice(widths, n_jobs, p=width_probs)
    margin = rng.uniform(1.2, 3.0, n_jobs)
    jobs = [
        Job(
            job_id=i + 1,
            submit_time=float(submit[i]),
            runtime=float(runtime[i]),
            processors=int(width[i]),
            requested_time=float(runtime[i] * margin[i]),
            user=int(i % 50),
        )
        for i in range(n_jobs)
    ]
    return Trace(jobs, processors=processors, name=name)


def _wide_trace(quick: bool) -> Trace:
    """Big machine, mostly narrow day-scale jobs: many concurrent runners
    stress EASY's release bookkeeping."""
    return make_week_trace(
        processors=2048 if quick else 4096,
        runtime_log_mu=10.2,
        runtime_log_sigma=0.8,
        widths=(1, 2, 4, 8, 32),
        width_probs=(0.55, 0.2, 0.15, 0.07, 0.03),
        offered_load=1.0,
        seed=1234,
        name="bench-week-wide",
    )


def _narrow_trace(quick: bool) -> Trace:
    """Medium machine, hour-scale jobs, deep queue: stresses conservative
    reservations and the correction path."""
    return make_week_trace(
        processors=192 if quick else 256,
        runtime_log_mu=9.3,
        runtime_log_sigma=1.0,
        widths=(1, 2, 4, 8),
        width_probs=(0.6, 0.2, 0.12, 0.08),
        offered_load=0.92 if quick else 0.95,
        seed=99,
        name="bench-week-narrow",
    )


def _components(spec: str):
    """(predictor, corrector) factories for a scenario spec."""
    if spec == "requested":
        return RequestedTimePredictor(), None
    if spec == "ave2+incremental":
        return RecentAveragePredictor(2), IncrementalCorrector()
    raise ValueError(f"unknown predictor spec {spec!r}")


def _schedule_bytes(result) -> bytes:
    """Canonical byte serialisation of the per-job schedule."""
    rows = sorted(
        (r.job_id, r.start_time, r.end_time, r.corrections) for r in result
    )
    return json.dumps(rows).encode("utf-8")


def run_scenario(
    label: str, trace: Trace, scheduler: str, predictor_spec: str
) -> dict:
    """Time profile-based vs seed scheduling on one (trace, triple) cell."""
    timings = {}
    schedules = {}
    for side, sched_name in (("profile", scheduler), ("legacy", f"legacy-{scheduler}")):
        predictor, corrector = _components(predictor_spec)
        session = SimSession(
            trace.processors,
            make_scheduler(sched_name),
            predictor,
            corrector,
            trace_name=trace.name,
        )
        t0 = time.perf_counter()
        session.feed(trace)
        session.drain()
        result = session.result()
        timings[side] = time.perf_counter() - t0
        schedules[side] = _schedule_bytes(result)
    identical = schedules["profile"] == schedules["legacy"]
    return {
        "scenario": label,
        "scheduler": scheduler,
        "predictor": predictor_spec,
        "trace": {
            "name": trace.name,
            "n_jobs": len(trace),
            "processors": trace.processors,
            "duration_days": round(trace.duration / 86400.0, 2),
        },
        "profile_seconds": round(timings["profile"], 4),
        "legacy_seconds": round(timings["legacy"], 4),
        "speedup": round(timings["legacy"] / timings["profile"], 2),
        "schedules_identical": identical,
    }


def run_dispatch_bench(quick: bool) -> dict:
    """Per-cell dispatch overhead: fsqueue backend vs in-process backend.

    Runs one small campaign cell-set twice through ``run_cells``'s
    broker layer -- once on :class:`repro.dist.LocalBroker` (single
    inline worker) and once on :class:`repro.dist.FsQueueBroker` with a
    single in-thread ``run_worker`` draining a tmp queue -- and charges
    the wall-clock difference to the queue mechanics (shard files,
    claim-by-rename, lease renewals, result tailing).  Simulation work
    is identical on both sides, so the delta/cell is the price of going
    distributed; it should stay far below a cell's simulation cost.
    """
    import tempfile
    import threading

    from repro.core.campaign import workload_digest
    from repro.dist import FsQueueBroker, LocalBroker, run_worker
    from repro.spec import CellSpec

    log = "KTH-SP2"
    n_jobs = 100 if quick else 250
    triple_keys = [
        "requested|none|easy",
        "requested|none|easy-sjbf",
        "clairvoyant|none|easy",
        "clairvoyant|none|easy-sjbf",
        "ave2|incremental|easy",
        "ave2|incremental|easy-sjbf",
        "ave3|incremental|easy-sjbf",
        "requested|none|conservative",
    ]
    cells = [CellSpec.from_triple(log, key, n_jobs=n_jobs) for key in triple_keys]
    workload_digest(cells[0].workload)  # warm the shared bundle cache

    def on_result(_spec, _value, _seconds=None):
        pass

    t0 = time.perf_counter()
    LocalBroker(workers=1).dispatch(cells, on_result)
    local_seconds = time.perf_counter() - t0

    with tempfile.TemporaryDirectory(prefix="repro-bench-queue-") as tmp:
        queue_dir = os.path.join(tmp, "queue")
        broker = FsQueueBroker(
            queue_dir, cells_per_shard=2, lease_ttl=120.0, poll_interval=0.02
        )
        worker = threading.Thread(
            target=run_worker,
            args=(queue_dir,),
            kwargs={"worker_id": "bench", "poll_interval": 0.02, "max_idle": 60.0},
            daemon=True,
        )
        worker.start()
        t0 = time.perf_counter()
        broker.dispatch(cells, on_result)
        fsqueue_seconds = time.perf_counter() - t0
        worker.join(timeout=30)

    overhead = max(0.0, fsqueue_seconds - local_seconds)
    return {
        "cells": len(cells),
        "n_jobs": n_jobs,
        "local_seconds": round(local_seconds, 4),
        "fsqueue_seconds": round(fsqueue_seconds, 4),
        "overhead_seconds_per_cell": round(overhead / len(cells), 4),
        "overhead_percent": round(overhead / local_seconds * 100.0, 1),
    }


def run_batch_bench(quick: bool) -> dict:
    """Per-cell fixed cost: batched shared-bundle runs vs cold per-cell runs.

    Runs one shared-trace group of cells twice -- once with the bundle
    cache cleared before **every** cell (the pre-batching regime: trace
    materialisation, digest, and static feature matrix paid per cell)
    and once through :class:`repro.core.BatchRunner` over a single warm
    bundle.  Scores must match exactly; the per-cell wall-clock
    difference is the fixed cost the batched campaign path amortises
    across the group.  Minimum over a few repetitions per side so
    background noise cancels.
    """
    from repro.core import BatchRunner, clear_bundle_cache, run_cell
    from repro.spec import CellSpec

    log = "KTH-SP2"
    n_jobs = 100 if quick else 250
    triple_keys = [
        "requested|none|easy",
        "requested|none|easy-sjbf",
        "clairvoyant|none|easy",
        "clairvoyant|none|easy-sjbf",
        "ave2|incremental|easy",
        "ave2|incremental|easy-sjbf",
        "ave3|incremental|easy-sjbf",
        "requested|none|conservative",
    ]
    cells = [CellSpec.from_triple(log, key, n_jobs=n_jobs) for key in triple_keys]

    reps = 2 if quick else 3
    sequential = batched = float("inf")
    identical = True
    for _ in range(reps):
        sequential_scores = []
        t0 = time.perf_counter()
        for spec in cells:
            clear_bundle_cache()  # every cell pays the full fixed cost
            sequential_scores.append(run_cell(spec))
        sequential = min(sequential, time.perf_counter() - t0)

        clear_bundle_cache()  # one cold build, then the group shares it
        t0 = time.perf_counter()
        results = BatchRunner().run(cells)
        batched = min(batched, time.perf_counter() - t0)
        batched_scores = [score for _spec, score, _report in results]
        identical = identical and batched_scores == sequential_scores
    drop = (sequential - batched) / len(cells)
    return {
        "cells": len(cells),
        "n_jobs": n_jobs,
        "trace_groups": 1,
        "sequential_seconds": round(sequential, 4),
        "batched_seconds": round(batched, 4),
        "fixed_cost_drop_seconds_per_cell": round(drop, 6),
        "fixed_cost_drop_percent": round(
            (sequential - batched) / sequential * 100.0, 1
        ),
        "scores_identical": identical,
    }


def run_telemetry_bench(quick: bool) -> dict:
    """Telemetry cost on the correction-heavy scenario, both ways.

    Runs the narrow ave2+incremental cell with telemetry disabled (the
    default ``NOOP`` registry -- hot paths pay one attribute check) and
    with a live registry, interleaved over a few repetitions with the
    per-side minimum kept so background noise cancels.  Asserts the two
    schedules are byte-identical: instrumentation must observe, never
    steer.  The disabled side is the exact configuration the speedup
    scenarios above time, so the ``--min-speedup`` gate doubles as the
    disabled-path overhead gate.
    """
    from repro.obs import Telemetry

    trace = _narrow_trace(quick)

    def run_once(telemetry):
        predictor, corrector = _components("ave2+incremental")
        session = SimSession(
            trace.processors,
            make_scheduler("easy-sjbf"),
            predictor,
            corrector,
            trace_name=trace.name,
            telemetry=telemetry,
        )
        t0 = time.perf_counter()
        session.feed(trace)
        session.drain()
        result = session.result()
        return time.perf_counter() - t0, _schedule_bytes(result)

    reps = 2 if quick else 3
    disabled = enabled = float("inf")
    disabled_bytes = enabled_bytes = b""
    for _ in range(reps):
        seconds, disabled_bytes = run_once(None)
        disabled = min(disabled, seconds)
        seconds, enabled_bytes = run_once(Telemetry(component="bench"))
        enabled = min(enabled, seconds)
    return {
        "scenario": "easy-sjbf/corrections",
        "disabled_seconds": round(disabled, 4),
        "enabled_seconds": round(enabled, 4),
        "enabled_overhead_percent": round((enabled - disabled) / disabled * 100.0, 1),
        "schedules_identical": disabled_bytes == enabled_bytes,
    }


def run_benchmark(quick: bool) -> dict:
    """All scenarios; returns the BENCH_engine.json payload."""
    wide = _wide_trace(quick)
    narrow = _narrow_trace(quick)
    plan = [
        ("easy/wide", wide, "easy", "requested"),
        ("easy-sjbf/wide", wide, "easy-sjbf", "requested"),
        ("easy-sjbf/corrections", narrow, "easy-sjbf", "ave2+incremental"),
        ("conservative/narrow", narrow, "conservative", "requested"),
    ]
    t0 = time.perf_counter()
    scenarios = []
    for label, trace, scheduler, predictor_spec in plan:
        scenario = run_scenario(label, trace, scheduler, predictor_spec)
        scenarios.append(scenario)
        print(
            f"  {label:24s} profile={scenario['profile_seconds']:7.3f}s "
            f"legacy={scenario['legacy_seconds']:7.3f}s "
            f"speedup={scenario['speedup']:5.2f}x "
            f"identical={scenario['schedules_identical']}"
        )
    dispatch = run_dispatch_bench(quick)
    print(
        f"  {'dispatch/fsqueue':24s} local={dispatch['local_seconds']:7.3f}s "
        f"fsqueue={dispatch['fsqueue_seconds']:7.3f}s "
        f"overhead={dispatch['overhead_seconds_per_cell']*1000:6.1f}ms/cell "
        f"({dispatch['overhead_percent']:.1f}%)"
    )
    batched = run_batch_bench(quick)
    print(
        f"  {'batched/shared-trace':24s} "
        f"sequential={batched['sequential_seconds']:7.3f}s "
        f"batched={batched['batched_seconds']:7.3f}s "
        f"drop={batched['fixed_cost_drop_seconds_per_cell']*1000:6.1f}ms/cell "
        f"({batched['fixed_cost_drop_percent']:.1f}%) "
        f"identical={batched['scores_identical']}"
    )
    telemetry = run_telemetry_bench(quick)
    print(
        f"  {'telemetry/enabled':24s} off={telemetry['disabled_seconds']:7.3f}s "
        f"on={telemetry['enabled_seconds']:7.3f}s "
        f"overhead={telemetry['enabled_overhead_percent']:5.1f}% "
        f"identical={telemetry['schedules_identical']}"
    )
    total_legacy = sum(s["legacy_seconds"] for s in scenarios)
    total_profile = sum(s["profile_seconds"] for s in scenarios)
    return {
        "benchmark": "engine-scheduling-path",
        "mode": "quick" if quick else "full",
        "engine_version": ENGINE_VERSION,
        "python": platform.python_version(),
        "scenarios": scenarios,
        "dispatch": dispatch,
        "batched": batched,
        "telemetry": telemetry,
        "total_profile_seconds": round(total_profile, 4),
        "total_legacy_seconds": round(total_legacy, 4),
        "overall_speedup": round(total_legacy / total_profile, 2),
        "all_schedules_identical": (
            all(s["schedules_identical"] for s in scenarios)
            and telemetry["schedules_identical"]
        ),
        "wall_seconds": round(time.perf_counter() - t0, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller traces, bounded well under 60s wall time (CI smoke)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_engine.json",
        help="where to write the JSON report (default: ./BENCH_engine.json)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="fail unless the overall speedup reaches this factor (default 3.0)",
    )
    args = parser.parse_args(argv)

    report = run_benchmark(quick=args.quick)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(
        f"overall speedup: {report['overall_speedup']}x "
        f"(profile {report['total_profile_seconds']}s vs "
        f"legacy {report['total_legacy_seconds']}s); wrote {args.out}"
    )
    if not report["all_schedules_identical"]:
        print(
            "FAIL: schedules diverge (profile vs seed implementation, "
            "or telemetry-on vs telemetry-off)"
        )
        return 1
    if report["overall_speedup"] < args.min_speedup:
        print(f"FAIL: overall speedup below the {args.min_speedup}x target")
        return 1
    batched = report["batched"]
    if not batched["scores_identical"]:
        print("FAIL: batched shared-bundle scores diverge from per-cell runs")
        return 1
    if batched["fixed_cost_drop_seconds_per_cell"] <= 0.0:
        print(
            "FAIL: batching did not reduce the per-cell fixed cost "
            f"(sequential {batched['sequential_seconds']}s vs "
            f"batched {batched['batched_seconds']}s)"
        )
        return 1
    return 0


# -- pytest-benchmark mode ---------------------------------------------------
try:  # pragma: no cover - only when pytest(-benchmark) is present
    import pytest
except ImportError:  # pragma: no cover
    pytest = None

if pytest is not None:

    @pytest.fixture(scope="module")
    def trace():
        from conftest import bench_n_jobs
        from repro.workload import get_trace

        return get_trace("KTH-SP2", n_jobs=min(bench_n_jobs(), 1500))

    @pytest.mark.parametrize(
        "scheduler_name",
        ["fcfs", "easy", "easy-sjbf", "conservative", "legacy-easy", "legacy-conservative"],
    )
    def test_engine_throughput(trace, scheduler_name, benchmark):
        def run():
            session = SimSession(
                trace.processors,
                make_scheduler(scheduler_name),
                RequestedTimePredictor(),
                trace_name=trace.name,
            )
            session.feed(trace)
            session.drain()
            return len(session.result())

        n_jobs = benchmark(run)
        assert n_jobs == len(trace)

    def test_engine_with_corrections_throughput(trace, benchmark):
        """AVE2 + incremental: the correction-heavy path (EXPIRE events)."""

        def run():
            session = SimSession(
                trace.processors,
                make_scheduler("easy-sjbf"),
                RecentAveragePredictor(2),
                IncrementalCorrector(),
                trace_name=trace.name,
            )
            session.feed(trace)
            session.drain()
            return session.result().total_corrections()

        corrections = benchmark(run)
        assert corrections > 0


if __name__ == "__main__":
    sys.exit(main())
