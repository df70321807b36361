"""The six workloads: inputs, one timed pass, checks on the pass's outputs.

A workload is prepared once per set-up (inputs from the seed, then a
reduced-size warm-up pass that is also compared with the frozen
``legacy-*`` schedulers) and then runs any number of identical passes,
each on fresh component instances.  A pass times only calls into the
program, in segments with a calibration slice between them (see
:mod:`clock`); validation of what came back happens after the clock stops.
Program entry points are reached through their modules at call time, so
a traced run (see :mod:`tracing`) sees every call.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field
from time import perf_counter

import checks
import clock
import numpy as np
import tracing
import workloads

import repro.core.campaign as campaign_mod
import repro.spec.grid as grid_mod
from repro.serve.server import SessionServer
from repro.sim.session import SimSession
from repro.spec import corrector_registry, predictor_registry, scheduler_registry
from repro.workload import Trace

#: (scheduler, predictor, corrector) registry spellings of one cell
Cell = tuple[str, str, str | None]

#: the warm-up pass runs the same generator at this share of the size
WARMUP_SHARE = 0.03
TAU = 10.0
#: a batch replay is timed in this many slices of the submission stream,
#: a served script in slices of this many requests (see PassResult.segments)
REPLAY_SLICES = 16
SCRIPT_SLICE = 1000


@dataclass
class PassResult:
    """What one pass measured and what its outputs were checked to be."""

    #: host seconds of the pass's consecutive timed segments, and the
    #: calibration seconds around each (``SegmentTimer.speeds``).  Segment
    #: k does the same work in every pass of a run
    segments: list[float]
    speeds: list[float]
    #: simulated jobs completed, and the workload's own unit of work
    jobs: int
    work: int
    #: simulated statistics; equal on every pass of a seed or it is a failure
    simulated: dict
    attempted: int
    problems: list[str]
    #: EngineStats totals where the harness holds the sessions (else empty)
    engine: dict = field(default_factory=dict)
    #: per-request seconds by class (serve only)
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: workload-specific timings read by the per-layer report
    extras: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.segments)


def build_session(
    processors: int,
    cell: Cell,
    name: str,
    telemetry: object | None = None,
    static_rows: dict | None = None,
) -> SimSession:
    """Fresh components from the spec registries, wired as ``run_spec`` does."""
    scheduler, predictor, corrector = cell
    built_predictor = predictor_registry().build(predictor)
    binder = getattr(built_predictor, "bind_static_features", None)
    if static_rows is not None and binder is not None:
        binder(static_rows)
    return SimSession(
        processors,
        scheduler_registry().build(scheduler),
        built_predictor,
        corrector_registry().build(corrector) if corrector else None,
        trace_name=name,
        telemetry=telemetry,
    )


def replay(
    trace: Trace,
    cell: Cell,
    telemetry: object | None = None,
    static_rows: dict | None = None,
    checkpoints: tuple[float, ...] = (),
    timer: clock.SegmentTimer | None = None,
) -> tuple[object, object]:
    """One batch cell, feed + drain: ``(SimulationResult, EngineStats)``.
    The drain is timed in slices: ``timer`` is cut after the feed, each
    time the session has advanced to the next of ``checkpoints``, and at
    the end."""
    cut = timer.cut if timer is not None else _no_cut
    session = build_session(trace.processors, cell, trace.name, telemetry, static_rows)
    session.feed(trace)
    cut()
    for time in checkpoints:
        session.advance_to(time)
        cut()
    session.drain()
    result = session.result()
    cut()
    return result, session.stats


def _no_cut() -> None:
    """An untimed replay (warm-up, reference schedule)."""


def slice_times(trace: Trace) -> tuple[float, ...]:
    """Submit times that cut the stream into ``REPLAY_SLICES`` equal parts."""
    submits = [job.submit_time for job in trace]
    cuts = {submits[len(submits) * k // REPLAY_SLICES] for k in range(1, REPLAY_SLICES)}
    return tuple(sorted(cuts))


def simulated_stats(placed: list[checks.Placement], processors: int) -> tuple[float, float]:
    """Harness-local AVEbsld (tau = 10) and utilization of a schedule."""
    _ids, submit, runtime, width, start, end = np.array(placed, dtype=float).T
    slowdown = np.maximum((start - submit + runtime) / np.maximum(runtime, TAU), 1.0)
    area = float(np.sum(runtime * width))
    return float(slowdown.mean()), area / (processors * float(end.max() - start.min()))


def oracle_problems(trace: Trace, cell: Cell) -> list[str]:
    """Byte-for-byte comparison of a cell, replayed in slices as the timed
    passes are, with its frozen ``legacy-*`` twin drained in one go."""
    scheduler, predictor, corrector = cell
    ours, _ = replay(trace, cell, checkpoints=slice_times(trace))
    oracle, _ = replay(trace, (f"legacy-{scheduler}", predictor, corrector))
    if json.dumps(checks.schedule_rows(ours)) != json.dumps(checks.schedule_rows(oracle)):
        return [f"{scheduler} diverges from legacy-{scheduler} on {len(trace)} jobs"]
    return []


class BatchWorkload:
    """One trace replayed through one or more cells, feed + drain."""

    work_unit = "events"

    def __init__(
        self,
        name: str,
        cells: tuple[Cell, ...],
        make_trace: Callable[[int, float], Trace],
        static_features: bool = False,
    ) -> None:
        self.name = name
        self.cells = cells
        self.make_trace = make_trace
        self.static_features = static_features
        self.trace: Trace | None = None
        self.static_rows: dict | None = None
        self.checkpoints: tuple[float, ...] = ()

    def prepare(self, seed: int, scale: float) -> tuple[int, list[str]]:
        self.trace = self.make_trace(seed, scale)
        self.checkpoints = slice_times(self.trace)
        if self.static_features:
            self.static_rows = _static_rows(self.trace)
        small = self.make_trace(seed, scale * WARMUP_SHARE)
        problems: list[str] = []
        for cell in self.cells:
            problems += oracle_problems(small, cell)
        return len(self.cells), problems

    def run_pass(self, telemetry: object | None = None) -> PassResult:
        trace = self.trace
        results = []
        engine = {"events": 0, "sched_passes": 0, "max_queue": 0, "corrections": 0}
        timer = clock.SegmentTimer()
        for cell in self.cells:
            result, stats = replay(
                trace, cell, telemetry, self.static_rows, self.checkpoints, timer
            )
            results.append(result)
            engine["events"] += stats.n_events
            engine["sched_passes"] += stats.n_scheduling_passes
            engine["corrections"] += stats.n_corrections
            engine["max_queue"] = max(engine["max_queue"], stats.max_queue_length)
        problems: list[str] = []
        expected = [job.job_id for job in trace]
        avebsld = utilization = 0.0
        rows = []
        for result in results:
            placed = checks.placements(result)
            problems += checks.validate_schedule(placed, trace.processors, expected)
            cell_bsld, cell_util = simulated_stats(placed, trace.processors)
            avebsld += cell_bsld / len(results)
            utilization += cell_util / len(results)
            rows.append(checks.schedule_rows(result))
        return PassResult(
            segments=timer.segments,
            speeds=timer.speeds(),
            jobs=len(trace) * len(self.cells),
            work=engine["events"],
            simulated={
                "avebsld": avebsld,
                "utilization": utilization,
                "corrections": engine["corrections"],
                "schedule_digest": checks.rows_digest(rows),
            },
            attempted=len(trace) * len(self.cells),
            problems=problems,
            engine=engine,
        )


def _static_rows(trace: Trace) -> dict | None:
    """The schedule-independent ML feature rows a bundle would share."""
    try:
        compute = tracing.resolve("repro.predict.features", "compute_static_features")
    except tracing.MissingTarget:
        return None  # predictors then extract every column live
    return compute(trace)


class CampaignWorkload:
    """A grid of small cells: expand, run cold into a cache file one
    replica at a time, run the whole grid warm, reload the file."""

    name = "campaign_grid"
    work_unit = "cells"
    logs = ("KTH-SP2", "SDSC-BLUE", "Curie")

    def __init__(self, n_jobs: int, workdir: str) -> None:
        self.n_jobs = n_jobs
        self.workdir = workdir
        self.doc: dict = {}
        self._passes = 0

    def prepare(self, seed: int, scale: float) -> tuple[int, list[str]]:
        # full size: 3 logs x 4 replicas x 16 triples = 192 cells
        logs, replicas = (self.logs, 4) if scale >= 0.5 else (self.logs[:1], 1)
        n_jobs = max(40, int(self.n_jobs * scale))
        self.doc = workloads.campaign_doc(seed, n_jobs, logs, replicas)
        small = CampaignWorkload(self.n_jobs, self.workdir)
        small.doc = workloads.campaign_doc(seed, 40, self.logs[:1])
        warm_up = small.run_pass()
        return warm_up.attempted, warm_up.problems

    def run_pass(self, telemetry: object | None = None) -> PassResult:
        self._passes += 1
        path = os.path.join(self.workdir, f"cells-{self._passes}.jsonl")
        bundles = _bundle_cache()
        if bundles is not None:
            bundles.clear()  # every pass pays the trace builds again: cold
            before = (bundles.hits, bundles.misses)
        timer = clock.SegmentTimer()
        cells = grid_mod.expand_spec_obj(self.doc)
        timer.cut()
        # the campaign runs in one slice per replica, each resuming the
        # same cache file, so that a pass has several timed segments
        seeds = sorted({cell.workload.seed for cell in cells})
        scores: dict[str, float] = {}
        durations: dict[str, float] = {}
        for seed in seeds:
            chunk = [cell for cell in cells if cell.workload.seed == seed]
            cold = campaign_mod.run_cells(chunk, cache_path=path, workers=1, telemetry=telemetry)
            timer.cut()
            scores.update(cold.scores)
            durations.update(cold.durations)
        cold_s = sum(timer.segments[1:])
        warm = campaign_mod.run_cells(cells, cache_path=path, workers=1)
        timer.cut()
        reloaded = campaign_mod.ResultCache(path)
        n_rows = len(reloaded)
        reloaded.close()
        timer.cut()
        os.remove(path)
        segments = timer.segments

        # (no calls into the program from here on: a traced run would
        # charge them to a layer after the clock has stopped)
        problems: list[str] = []
        if len(scores) != len(cells):
            problems.append(f"{len(scores)} scores for {len(cells)} cells")
        for digest, score in scores.items():
            if not math.isfinite(score) or score < 1.0:
                problems.append(f"cell {digest}: AVEbsld {score}")
        if warm.scores != scores:
            problems.append("warm scores differ from cold scores")
        if warm.durations:
            problems.append(f"warm run simulated {len(warm.durations)} cells")
        if n_rows != len(cells):
            problems.append(f"cache reloads {n_rows} rows for {len(cells)} cells")
        extras = {
            "warm_rerun_ms": segments[-2] * 1e3,
            "dispatch_overhead_ms_per_cell": max(0.0, cold_s - sum(durations.values()))
            * 1e3
            / len(cells),
        }
        if bundles is not None:
            hits = bundles.hits - before[0]
            misses = bundles.misses - before[1]
            extras["bundle_hit_share"] = hits / max(1, hits + misses)
        return PassResult(
            segments=segments,
            speeds=timer.speeds(),
            jobs=sum(cell.workload.n_jobs for cell in cells),
            work=len(cells),
            simulated={
                "avebsld": sum(scores.values()) / len(scores),
                "utilization": None,
                "corrections": None,
                "schedule_digest": checks.rows_digest(sorted(scores.items())),
            },
            attempted=2 * len(cells) + 1,
            problems=problems,
            extras=extras,
        )


def _bundle_cache() -> object | None:
    try:
        return tracing.resolve("repro.core.batch", "bundle_cache")()
    except tracing.MissingTarget:
        return None


class ServeWorkload:
    """One lock-step client driving a ``SessionServer`` with JSON lines."""

    name = "serve_closed_loop"
    work_unit = "requests"
    cell: Cell = ("easy-sjbf", "ave2", "incremental")

    def __init__(self, make_trace: Callable[[int, float], Trace]) -> None:
        self.make_trace = make_trace
        self.trace: Trace | None = None
        self.script: list[tuple[str, str]] = []
        self.reference: list[list] = []

    def prepare(self, seed: int, scale: float) -> tuple[int, list[str]]:
        small = ServeWorkload(self.make_trace)
        small._load(self.make_trace(seed, scale * WARMUP_SHARE), seed)
        warm_up = small.run_pass()
        problems = warm_up.problems + oracle_problems(small.trace, self.cell)
        self._load(self.make_trace(seed, scale), seed)
        return warm_up.attempted + 1, problems

    def _load(self, trace: Trace, seed: int) -> None:
        """Inputs: the stream, its batch schedule, and the client script."""
        batch, _ = replay(trace, self.cell)
        self.trace = trace
        self.reference = [
            [r.job_id, r.start_time, r.end_time]
            for r in sorted(batch, key=lambda r: r.job_id)
        ]
        ends = {job_id: end for job_id, _start, end in self.reference}
        self.script = workloads.serve_script(trace, ends, seed)

    def run_pass(self, telemetry: object | None = None) -> PassResult:
        trace = self.trace
        samples: dict[str, list[float]] = {name: [] for name in workloads.SERVE_CLASSES}
        samples["admin"] = []
        tail: list[dict] = []
        refused = 0
        encode_s = 0.0
        encode = json.dumps
        timer = clock.SegmentTimer()
        session = build_session(trace.processors, self.cell, trace.name, telemetry)
        handle = SessionServer(session, telemetry=telemetry).handle_line
        for index, (cls, line) in enumerate(self.script, start=1):
            t0 = perf_counter()
            reply = handle(line)
            t1 = perf_counter()
            encode(reply)
            t2 = perf_counter()
            samples[cls].append(t2 - t0)
            encode_s += t2 - t1
            refused += not reply.get("ok")
            if cls == "admin":
                tail.append(reply)
            if index % SCRIPT_SLICE == 0:
                timer.cut()
        timer.cut()

        _drained, result, stats = tail  # the script ends: drain, result, stats
        served = result.get("jobs")
        problems = [f"{refused} replies were not ok"] if refused else []
        if served != self.reference:
            problems.append("served schedule differs from the batch feed+drain")
        by_id = {job.job_id: job for job in trace}
        placed = [
            (job_id, by_id[job_id].submit_time, by_id[job_id].runtime,
             by_id[job_id].processors, start, end)
            for job_id, start, end in served or []
            if job_id in by_id
        ]
        problems += checks.validate_schedule(placed, trace.processors, by_id)
        avebsld, utilization = simulated_stats(placed, trace.processors) if placed else (0, 0)
        return PassResult(
            segments=timer.segments,
            speeds=timer.speeds(),
            jobs=len(trace),
            work=len(self.script),
            simulated={
                "avebsld": avebsld,
                "utilization": utilization,
                "corrections": stats.get("n_corrections"),
                "schedule_digest": checks.rows_digest(served),
            },
            attempted=len(self.script) + len(trace),
            problems=problems,
            engine={
                "events": stats.get("n_events", 0),
                "sched_passes": stats.get("n_scheduling_passes", 0),
                "max_queue": stats.get("max_queue_length", 0),
                "corrections": stats.get("n_corrections", 0),
            },
            samples=samples,
            extras={"encode_s": encode_s, "refused": refused},
        )

    def json_share(self, result: PassResult) -> float:
        """Decode + encode seconds of a pass over its request seconds
        (encoding was timed in the pass; decoding is re-timed here)."""
        t0 = perf_counter()
        for _cls, line in self.script:
            json.loads(line)
        decode_s = perf_counter() - t0
        requests_s = sum(sum(values) for values in result.samples.values())
        return (decode_s + result.extras["encode_s"]) / requests_s


# -- the six workloads -------------------------------------------------------
def _easy_wide_trace(seed: int, scale: float) -> Trace:
    return workloads.make_week_trace(
        processors=1024,
        runtime_log_mu=10.2,
        runtime_log_sigma=0.8,
        widths=(1, 2, 4, 8, 32),
        width_probs=(0.55, 0.2, 0.15, 0.07, 0.03),
        offered_load=0.75,
        seed=seed,
        weeks=2.4 * scale,
        flurry_share=0.7,
        flurry_hours=24.0,
        name="bench-easy-wide",
    )


def _narrow_trace(seed: int, scale: float) -> Trace:
    return workloads.make_week_trace(
        processors=256,
        runtime_log_mu=9.3,
        runtime_log_sigma=1.0,
        widths=(1, 2, 4, 8),
        width_probs=(0.6, 0.2, 0.12, 0.08),
        offered_load=0.8,
        seed=seed,
        weeks=6.0 * scale,
        flurry_share=0.2,
        flurry_hours=12.0,
        name="bench-corrections-narrow",
    )


def _conservative_trace(seed: int, scale: float) -> Trace:
    return workloads.make_week_trace(
        processors=64,
        runtime_log_mu=9.3,
        runtime_log_sigma=1.0,
        widths=(1, 2, 4, 8),
        width_probs=(0.6, 0.2, 0.12, 0.08),
        offered_load=0.6,
        seed=seed,
        weeks=5.0 * scale,
        flurry_share=0.8,
        flurry_hours=24.0,
        name="bench-conservative-deep",
    )


def _bursty_trace(seed: int, scale: float) -> Trace:
    return workloads.bursty_users(seed, n_jobs=max(60, int(6000 * scale)))


def _serve_trace(seed: int, scale: float) -> Trace:
    # a KTH-SP2-sized machine (100 processors, hour-scale jobs) under
    # four-hourly flurries: the queue the queries walk is ~35 deep
    return workloads.make_week_trace(
        processors=100,
        runtime_log_mu=7.6,
        runtime_log_sigma=1.0,
        widths=(1, 2, 4, 8, 16, 32),
        width_probs=(0.4, 0.2, 0.16, 0.12, 0.08, 0.04),
        offered_load=0.6,
        seed=seed,
        weeks=1.3 * scale,
        flurry_share=0.7,
        flurry_hours=4.0,
        n_users=95,
        name="bench-serve-stream",
    )


def make_workload(name: str, workdir: str) -> BatchWorkload | CampaignWorkload | ServeWorkload:
    """A fresh, unprepared workload by its ``BENCHMARK.json`` name."""
    if name == "easy_wide":
        cells: tuple[Cell, ...] = (("easy", "requested", None), ("easy-sjbf", "requested", None))
        return BatchWorkload(name, cells, _easy_wide_trace)
    if name == "corrections_narrow":
        return BatchWorkload(name, (("easy-sjbf", "ave2", "incremental"),), _narrow_trace)
    if name == "conservative_deep":
        return BatchWorkload(name, (("conservative", "requested", None),), _conservative_trace)
    if name == "ml_bursty_users":
        cell: Cell = ("easy-sjbf", "ml:sq-lin-large-area", "incremental")
        return BatchWorkload(name, (cell,), _bursty_trace, static_features=True)
    if name == "campaign_grid":
        return CampaignWorkload(n_jobs=50, workdir=workdir)
    if name == "serve_closed_loop":
        return ServeWorkload(_serve_trace)
    raise KeyError(f"unknown workload {name!r}")
