"""Every per-layer metric the suite reports: its unit, and where.

``BENCHMARK.json`` declares the metrics measured on *every* workload (the
driver's contract wants each declared metric from each workload); the
rest are measured only where their layer does work, and appear in the
printed table and the result file of those workloads.  ``--selftest``
holds this table, ``BENCHMARK.json`` and what a run emits to each other.
"""

from __future__ import annotations

ALL = ("easy_wide", "corrections_narrow", "conservative_deep", "ml_bursty_users",
       "campaign_grid", "serve_closed_loop")
CORRECTED = ("corrections_narrow", "ml_bursty_users", "campaign_grid", "serve_closed_loop")
SINGLE_SESSION = tuple(name for name in ALL if name != "campaign_grid")
CAMPAIGN = ("campaign_grid",)
SERVE = ("serve_closed_loop",)


def _span(key: str, where: tuple[str, ...], per_call: str | None = None) -> dict:
    out = {f"{key}.busy_s": ("s", where), f"{key}.calls": ("count", where)}
    if per_call:
        out[f"{key}.{per_call}"] = ("us", where)
    return out


def _latency(cls: str) -> dict:
    return {
        f"serve.{cls}.p50_us": ("us", SERVE),
        f"serve.{cls}.p99_us": ("us", SERVE),
        f"serve.{cls}.n": ("count", SERVE),
    }


#: name -> unit: what a user of the system sees (BENCHMARK.json holds each
#: metric's direction and bound)
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "work_per_s": "1/s",
    "wall_obs_on_s": "s",
    "peak_rss_mb": "MiB",
}

#: name -> (unit, workloads that measure it)
PER_LAYER: dict[str, tuple[str, tuple[str, ...]]] = {
    # harness (per-layer times are raw seconds of the box; calib_s is its speed:
    # the mean calibration slice during the pass they are read off)
    "calib_s": ("s", ALL),
    "traced_wall_s": ("s", ALL),
    "trace_overhead_pct": ("%", ALL),
    "layer_sum_s": ("s", ALL),
    "unexplained_share": ("share", ALL),
    # simulated statistics of the traced inputs (exact for a seed)
    "simulated.avebsld": ("bsld", ALL),
    "simulated.utilization": ("share", SINGLE_SESSION),
    "simulated.corrections": ("count", SINGLE_SESSION),
    # layer self times: they and unexplained_share add up to traced_wall_s
    "sim.session.self_s": ("s", ALL),
    "sched.self_s": ("s", ALL),
    "predict.self_s": ("s", ALL),
    "spec.self_s": ("s", ALL),
    "correct.self_s": ("s", CORRECTED),
    "workload.self_s": ("s", CAMPAIGN),
    "core.self_s": ("s", CAMPAIGN),
    "metrics.self_s": ("s", CAMPAIGN),
    "serve.self_s": ("s", SERVE),
    # sim
    "sim.session.us_per_event": ("us", ALL),
    "sim.session.events": ("count", ALL),
    "sim.session.sched_passes": ("count", ALL),
    "sim.session.max_queue": ("count", ALL),
    "sim.events.push_pop_us": ("us", ALL),
    "sim.profile.earliest_fit_us.64": ("us", ALL),
    "sim.profile.earliest_fit_us.1024": ("us", ALL),
    "sim.profile.reserve_us.64": ("us", ALL),
    "sim.profile.reserve_us.1024": ("us", ALL),
    # sched
    **_span("sched.select_jobs", ALL, "us_per_pass"),
    "sched.productive_pass_share": ("share", ALL),
    **_span("sched.notify", ALL),
    **_span("sched.on_corrections", CORRECTED),
    "sched.on_corrections.jobs_per_call": ("count", CORRECTED),
    **_span("sched.estimated_starts", SERVE),
    "sched.release_table.move_many_us": ("us", ALL),
    # predict
    **_span("predict.predict", ALL, "us_per_call"),
    **_span("predict.update", ALL, "us_per_call"),
    **_span("predict.estimate", SERVE, "us_per_call"),
    "predict.features.extract_us": ("us", ALL),
    "predict.features.static_us_per_job": ("us", ALL),
    "predict.basis.expand_us": ("us", ALL),
    "predict.nag.step_us": ("us", ALL),
    # correct
    **_span("correct.correct", CORRECTED, "us_per_call"),
    "correct.corrections_per_job": ("count", CORRECTED),
    # workload
    **_span("workload.get_trace", CAMPAIGN),
    "workload.synthesize.us_per_job": ("us", ALL),
    "workload.trace.digest_ms": ("ms", ALL),
    "workload.swf.dump_us_per_job": ("us", ALL),
    "workload.swf.parse_us_per_job": ("us", ALL),
    # spec
    "spec.expand.ms": ("ms", ALL),
    "spec.expand_paper.ms": ("ms", ALL),
    "spec.digest.us_per_cell": ("us", ALL),
    "spec.build_components.us_per_cell": ("us", ALL),
    # core
    **_span("core.run_spec", CAMPAIGN),
    **_span("core.get_bundle", CAMPAIGN),
    "core.bundle.hit_share": ("share", CAMPAIGN),
    "core.dispatch.overhead_ms_per_cell": ("ms", CAMPAIGN),
    "core.cache.warm_rerun_ms": ("ms", CAMPAIGN),
    "core.cache.put_us": ("us", ALL),
    "core.cache.load_ms": ("ms", ALL),
    # dist
    "dist.fsqueue.overhead_ms_per_cell": ("ms", ALL),
    "dist.shards.plan_ms": ("ms", ALL),
    # serve
    **_latency("submit"),
    **_latency("query_cold"),
    **_latency("query_warm"),
    **_latency("probe"),
    **_latency("complete"),
    "serve.request.p50_us": ("us", SERVE),
    "serve.json.share": ("share", SERVE),
    "serve.errors": ("count", SERVE),
    # obs
    "obs.wall_on_s": ("s", ALL),
    "obs.enabled_overhead_pct": ("%", ALL),
    "obs.snapshot_ms": ("ms", ALL),
    # learn, metrics
    "learn.rollout.jobs_per_s": ("1/s", ALL),
    "metrics.avebsld.us_per_job": ("us", ALL),
}


def measured_on(workload: str) -> set[str]:
    return {name for name, (_unit, where) in PER_LAYER.items() if workload in where}
