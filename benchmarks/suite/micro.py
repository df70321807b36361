"""Micro probes: one layer's public function in an isolated loop.

The same fixed set runs in every traced run, on inputs made from the
run's seed, so a layer has a number even on a workload that leaves it
idle.  A probe resolves its target by name when it runs; a target this
commit of the program lacks yields ``None`` for that probe's metrics and
a note, and touches nothing else.  Each value is the median of five
timings.
"""

from __future__ import annotations

import os
import statistics
import threading
from collections.abc import Callable
from time import perf_counter

import numpy as np
import workloads
from tracing import MissingTarget, resolve

class Context:
    """Seeded inputs and timing loops the probes share (one per traced run)."""

    def __init__(self, seed: int, scale: float, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.number = max(1, int(200 * scale))
        #: timings per reported median (the selftest takes one)
        self.repeats = 5 if scale >= 0.5 else 1
        self.rng = np.random.default_rng(seed)
        self.trace = workloads.bursty_users(seed, n_jobs=max(60, int(1500 * scale)))
        self.doc = workloads.campaign_doc(seed, 60, ("KTH-SP2", "SDSC-BLUE"))
        self.cells = resolve("repro.spec.grid", "expand_spec_obj")(self.doc)

    def per_op_us(self, op: Callable[[], object], number: int) -> float:
        """Median microseconds per call of ``op`` over batches of ``number``."""
        timings = []
        for _ in range(self.repeats):
            t0 = perf_counter()
            for _ in range(number):
                op()
            timings.append((perf_counter() - t0) / number)
        return statistics.median(timings) * 1e6

    def once_ms(self, op: Callable[[], object]) -> float:
        """Median milliseconds of one call of ``op``."""
        timings = []
        for _ in range(self.repeats):
            t0 = perf_counter()
            op()
            timings.append(perf_counter() - t0)
        return statistics.median(timings) * 1e3


def probe_event_queue(ctx: Context) -> dict[str, float]:
    queue_cls = resolve("repro.sim.events", "EventQueue")
    event_cls = resolve("repro.sim.events", "Event")
    kind = resolve("repro.sim.events", "EventType").SUBMIT
    times = ctx.rng.uniform(0.0, 1e6, 2000).tolist()
    events = [event_cls(time=t, kind=kind, job_id=i) for i, t in enumerate(times)]

    def cycle() -> None:
        queue = queue_cls()
        for event in events:
            queue.push(event)
        while queue:
            queue.pop()

    return {"sim.events.push_pop_us": ctx.per_op_us(cycle, max(1, ctx.number // 40)) / len(events)}


def probe_profile(ctx: Context) -> dict[str, float]:
    profile_cls = resolve("repro.sim.profile", "AvailabilityProfile")
    out = {}
    for segments in (64, 1024):
        profile = profile_cls(4096, 0.0)
        starts = np.sort(ctx.rng.uniform(0.0, 1e6, segments // 2))
        for start in starts:
            profile.reserve(float(start), 500.0, 1)
        # as wide as the machine and longer than the span: sweeps every segment
        out[f"sim.profile.earliest_fit_us.{segments}"] = ctx.per_op_us(
            lambda profile=profile: profile.earliest_fit(4096, 2e6, 0.0), ctx.number
        )
        # one processor over a window in the middle of the profile; its
        # breakpoints exist after the first call, so the size stays put
        middle = float(starts[len(starts) // 2]) + 0.5
        out[f"sim.profile.reserve_us.{segments}"] = ctx.per_op_us(
            lambda profile=profile, middle=middle: profile.reserve(middle, 100.0, 1),
            ctx.number,
        )
    return out


def probe_release_table(ctx: Context) -> dict[str, float]:
    table = resolve("repro.sched.profile_structure", "ReleaseTable")()
    ends = ctx.rng.uniform(0.0, 1e6, 1000)
    for job_id, end in enumerate(ends):
        table.add(job_id, float(end), 1 + job_id % 8)
    moved = ctx.rng.choice(1000, 50, replace=False).tolist()
    there = [(job_id, float(ends[job_id]) + 3600.0) for job_id in moved]
    back = [(job_id, float(ends[job_id])) for job_id in moved]

    def storm() -> None:
        table.move_many(there)
        table.move_many(back)

    return {"sched.release_table.move_many_us": ctx.per_op_us(storm, ctx.number) / 2}


def probe_features(ctx: Context) -> dict[str, float]:
    extract = resolve("repro.predict.features", "extract_features")
    static = resolve("repro.predict.features", "compute_static_features")
    tracker = resolve("repro.predict.base", "UserHistoryTracker")()
    jobs = list(ctx.trace)
    for job in jobs[: len(jobs) // 2]:
        tracker.on_submit(job, job.submit_time)
        tracker.on_start(job, job.submit_time)
        if job.job_id % 3:
            tracker.on_finish(job, job.submit_time + job.runtime)
    probe = jobs[len(jobs) // 2]
    return {
        "predict.features.extract_us": ctx.per_op_us(
            lambda: extract(probe, tracker, probe.submit_time), ctx.number * 5
        ),
        "predict.features.static_us_per_job": ctx.once_ms(lambda: static(ctx.trace))
        * 1e3
        / len(jobs),
    }


def probe_model(ctx: Context) -> dict[str, float]:
    n_features = resolve("repro.predict.features", "N_FEATURES")
    basis = resolve("repro.predict.basis", "PolynomialBasis")(n_features)
    optimizer = resolve("repro.predict.nag", "NagOptimizer")(basis.dim, eta=0.5, l2=1e-6)
    x = ctx.rng.uniform(0.0, 100.0, n_features)
    phi = basis.expand(x)
    return {
        "predict.basis.expand_us": ctx.per_op_us(lambda: basis.expand(x), ctx.number * 5),
        "predict.nag.step_us": ctx.per_op_us(lambda: optimizer.update(phi, 0.01), ctx.number * 5),
    }


def probe_workload(ctx: Context) -> dict[str, float]:
    get_trace = resolve("repro.workload.archive", "get_trace")
    dumps = resolve("repro.workload.swf", "dumps_swf")
    loads = resolve("repro.workload.swf", "loads_swf")
    n_jobs = max(60, ctx.number * 5)
    text = dumps(ctx.trace)
    per_job = 1e3 / len(ctx.trace)  # ms per trace -> us per job
    return {
        "workload.synthesize.us_per_job": ctx.once_ms(
            lambda: get_trace("KTH-SP2", n_jobs=n_jobs, seed=ctx.seed)
        )
        * 1e3
        / n_jobs,
        "workload.trace.digest_ms": ctx.once_ms(ctx.trace.digest),
        "workload.swf.dump_us_per_job": ctx.once_ms(lambda: dumps(ctx.trace)) * per_job,
        "workload.swf.parse_us_per_job": ctx.once_ms(lambda: loads(text)) * per_job,
    }


def probe_spec(ctx: Context) -> dict[str, float]:
    expand = resolve("repro.spec.grid", "expand_spec_obj")
    cell_cls = resolve("repro.spec.cellspec", "CellSpec")
    cells = ctx.cells

    def digests() -> None:
        for cell in cells:
            # a raw copy has no memoised digest yet
            cell_cls(
                cell.workload, cell.predictor, cell.corrector, cell.scheduler,
                cell.min_prediction, cell.tau,
            ).digest()

    def builds() -> None:
        for cell in cells:
            cell.build_components()

    return {
        "spec.expand.ms": ctx.once_ms(lambda: expand(ctx.doc)),
        "spec.digest.us_per_cell": ctx.once_ms(digests) * 1e3 / len(cells),
        "spec.build_components.us_per_cell": ctx.once_ms(builds) * 1e3 / len(cells),
    }


def probe_paper_spec(ctx: Context) -> dict[str, float]:
    expand_file = resolve("repro.spec.grid", "expand_spec_file")
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    path = os.path.join(root, "experiments", "paper.toml")
    if not os.path.exists(path):
        raise MissingTarget("experiments/paper.toml")
    return {"spec.expand_paper.ms": ctx.once_ms(lambda: expand_file(path))}


def probe_cache(ctx: Context) -> dict[str, float]:
    cache_cls = resolve("repro.core.campaign", "ResultCache")
    path = os.path.join(ctx.workdir, "probe-cache.jsonl")
    tokens = [f"v5|e2|probe@{i:08x}|spec:{i:016x}" for i in range(max(50, ctx.number * 5))]
    put_us = []
    load_ms = []
    for _ in range(ctx.repeats):
        cache = cache_cls(path)
        t0 = perf_counter()
        for i, token in enumerate(tokens):
            cache.put(token, 1.0 + i)
        put_us.append((perf_counter() - t0) / len(tokens) * 1e6)
        cache.close()
        t0 = perf_counter()
        reloaded = cache_cls(path)
        load_ms.append((perf_counter() - t0) * 1e3)
        reloaded.close()
        os.remove(path)
    return {
        "core.cache.put_us": statistics.median(put_us),
        "core.cache.load_ms": statistics.median(load_ms),
    }


def probe_shards(ctx: Context) -> dict[str, float]:
    plan = resolve("repro.dist.shards", "plan_shards")
    model = resolve("repro.dist.shards", "CellCostModel")()
    return {
        "dist.shards.plan_ms": ctx.once_ms(
            lambda: plan(ctx.cells, cells_per_shard=4, cost_model=model)
        )
    }


def probe_fsqueue(ctx: Context) -> dict[str, float]:
    """8 cells through the filesystem queue and one in-thread worker,
    against the same cells through the in-process broker."""
    local_cls = resolve("repro.dist", "LocalBroker")
    queue_cls = resolve("repro.dist", "FsQueueBroker")
    run_worker = resolve("repro.dist", "run_worker")
    cells = [c for c in ctx.cells if not c.predictor.name.startswith("ml")][:8]

    def on_result(_spec, _value, _seconds=None) -> None:
        pass

    local_cls(workers=1).dispatch(cells, on_result)  # bundles warm on both sides
    t0 = perf_counter()
    local_cls(workers=1).dispatch(cells, on_result)
    local_s = perf_counter() - t0
    queue_dir = os.path.join(ctx.workdir, "queue")
    broker = queue_cls(queue_dir, cells_per_shard=2, lease_ttl=120.0, poll_interval=0.01)
    worker = threading.Thread(
        target=run_worker,
        args=(queue_dir,),
        kwargs={"worker_id": "bench", "poll_interval": 0.01, "max_idle": 30.0},
    )
    worker.start()
    try:
        t0 = perf_counter()
        broker.dispatch(cells, on_result)
        queue_s = perf_counter() - t0
    finally:
        worker.join(timeout=60.0)
    if worker.is_alive():
        raise RuntimeError("fsqueue worker thread did not stop")
    return {"dist.fsqueue.overhead_ms_per_cell": (queue_s - local_s) * 1e3 / len(cells)}


def probe_metrics(ctx: Context) -> dict[str, float]:
    avebsld = resolve("repro.metrics.slowdown", "average_bounded_slowdown")
    session = resolve("repro.sim.session", "SimSession")(
        ctx.trace.processors,
        resolve("repro.spec", "scheduler_registry")().build("easy"),
        resolve("repro.spec", "predictor_registry")().build("requested"),
    )
    session.feed(ctx.trace)
    session.drain()
    result = session.result()
    return {"metrics.avebsld.us_per_job": ctx.once_ms(lambda: avebsld(result)) * 1e3 / len(result)}


def probe_learn(ctx: Context) -> dict[str, float]:
    env_cls = resolve("repro.learn.env", "BackfillEnv")
    config_cls = resolve("repro.learn.env", "EnvConfig")
    policy = resolve("repro.learn.policy", "LinearSoftmaxPolicy").sjbf_init()
    n_jobs = max(60, ctx.number * 2)
    env = env_cls(config_cls("KTH-SP2", n_jobs=n_jobs))
    seconds = ctx.once_ms(lambda: env.rollout(policy, seed=ctx.seed, sample=True)) / 1e3
    return {"learn.rollout.jobs_per_s": n_jobs / seconds}


#: every probe with the metric names it owns (all None when it is skipped)
PROBES: tuple[tuple[Callable[[Context], dict[str, float]], tuple[str, ...]], ...] = (
    (probe_event_queue, ("sim.events.push_pop_us",)),
    (
        probe_profile,
        (
            "sim.profile.earliest_fit_us.64",
            "sim.profile.earliest_fit_us.1024",
            "sim.profile.reserve_us.64",
            "sim.profile.reserve_us.1024",
        ),
    ),
    (probe_release_table, ("sched.release_table.move_many_us",)),
    (probe_features, ("predict.features.extract_us", "predict.features.static_us_per_job")),
    (probe_model, ("predict.basis.expand_us", "predict.nag.step_us")),
    (
        probe_workload,
        (
            "workload.synthesize.us_per_job",
            "workload.trace.digest_ms",
            "workload.swf.dump_us_per_job",
            "workload.swf.parse_us_per_job",
        ),
    ),
    (
        probe_spec,
        ("spec.expand.ms", "spec.digest.us_per_cell", "spec.build_components.us_per_cell"),
    ),
    (probe_paper_spec, ("spec.expand_paper.ms",)),
    (probe_cache, ("core.cache.put_us", "core.cache.load_ms")),
    (probe_shards, ("dist.shards.plan_ms",)),
    (probe_fsqueue, ("dist.fsqueue.overhead_ms_per_cell",)),
    (probe_metrics, ("metrics.avebsld.us_per_job",)),
    (probe_learn, ("learn.rollout.jobs_per_s",)),
)


#: the probes do not depend on the workload, so one interpreter runs them
#: once per (seed, scale): the selftest makes six traced runs in one
_DONE: dict[tuple[int, float], tuple[dict[str, float | None], list[str]]] = {}


def run_probes(seed: int, scale: float, workdir: str) -> tuple[dict[str, float | None], list[str]]:
    """Every probe's metrics (``None`` where skipped) and the skip notes."""
    if (seed, scale) not in _DONE:
        _DONE[seed, scale] = _run_probes(seed, scale, workdir)
    return _DONE[seed, scale]


def _run_probes(seed: int, scale: float, workdir: str) -> tuple[dict[str, float | None], list[str]]:
    values: dict[str, float | None] = {}
    skipped: list[str] = []
    try:
        ctx = Context(seed, scale, workdir)
    except MissingTarget as exc:
        for _probe, names in PROBES:
            values.update(dict.fromkeys(names))
        return values, [f"all micro probes: {exc}"]
    for probe, names in PROBES:
        try:
            values.update(probe(ctx))
        except MissingTarget as exc:
            values.update(dict.fromkeys(names))
            skipped.append(f"{probe.__name__}: {exc}")
    return values, skipped
