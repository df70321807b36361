"""The repo benchmark: one workload, one seed, one JSON line.

    python3 benchmarks/suite/run.py --workload NAME --seed N \
        --seconds S --trace 0|1 [--out FILE]

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` on an
untouched program; ``--trace 1`` repeats the same inputs with outside-in
spans installed and reports the per-layer metrics.  Every metric is
printed by name with its unit, outputs are checked, and the last line of
standard output is the contract's JSON object.  ``--workload all`` runs
every workload in both modes, each in a fresh interpreter, and merges
the results into ``--out``; ``--selftest`` is the under-ten-second smoke.
See README.md beside this file for the protocol and the metric tables.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
SUITE_VERSION = 1

#: set-up is repeated and its median reported, so one slow import or page
#: fault does not decide ``setup_s``
SETUP_REPEATS = 5
#: an untraced run alternates plain passes and passes with a live
#: Telemetry registry: both report a median, so both need the samples
MIN_PLAIN_PASSES = 3
MIN_OBS_PASSES = 3
MIN_TRACED_PASSES = 2
#: share of a traced run's ``--seconds`` kept back for the micro probes
MICRO_SHARE = 0.3


def bootstrap() -> str:
    """Make the checkout's ``src/`` importable; returns that directory.

    The benchmark builds nothing: the program is the source tree it sits
    in.  Without that tree there is nothing to measure, and the run ends
    with a non-zero code before printing a result.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"benchmark: no program to measure ({src}/repro is missing)")
    for directory in (src, SUITE_DIR):
        if directory not in sys.path:
            sys.path.insert(0, directory)
    return src


def import_seconds(src: str) -> float:
    """Median reference-box seconds a fresh interpreter takes to import
    the suite and every program layer it drives (numpy included), over
    ``SETUP_REPEATS`` interpreters: an import cannot be repeated inside
    one."""
    import clock

    code = f"import sys; sys.path[:0] = [{SUITE_DIR!r}, {src!r}]; import passes"
    command = [sys.executable, "-c", code]
    timings = [
        clock.timed(lambda: subprocess.run(command, check=True))[1]
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(timings)


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def fingerprint(seed: int) -> dict:
    import numpy as np

    from repro.sim.engine import ENGINE_VERSION

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "engine_version": ENGINE_VERSION,
        "commit": commit,
        "seed": seed,
    }


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- one run -------------------------------------------------------------------
def run_one(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    import_s: float,
    scale: float = 1.0,
    quick: bool = False,
) -> dict:
    """Set up, measure for ``seconds`` and check one workload.

    ``quick`` (the selftest) sets up once and runs the minimum number of
    passes of each kind.
    """
    import clock
    import passes

    workdir = os.path.join(SUITE_DIR, ".work", f"{os.getpid()}-{name}")
    os.makedirs(workdir, exist_ok=True)
    prepared = []

    def set_up() -> None:
        workload = passes.make_workload(name, workdir)
        prepared[:] = [workload, *workload.prepare(seed, scale)]

    try:
        setups = [clock.timed(set_up)[1] for _ in range(1 if quick else SETUP_REPEATS)]
        workload, attempted, problems = prepared
        record = {
            "workload": name,
            "seed": seed,
            "trace": int(traced),
            "seconds": seconds,
            "scale": scale,
            "work_unit": workload.work_unit,
            "passes": {"setup_s": [import_s + s for s in setups]},
        }
        if traced:
            done = measure_traced(workload, seconds, quick, seed, scale, workdir, record)
        else:
            done = measure_untraced(workload, seconds, quick, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    speeds = [speed for result in done for speed in result.speeds]
    # the speed of the box during the run; a traced run has already put
    # in the speed during the pass its per-layer seconds come from
    record.setdefault("calib_s", statistics.median(speeds))
    record["calib_fastest_s"] = min(speeds)
    digests = {result.simulated["schedule_digest"] for result in done}
    if len(digests) > 1:
        problems.append(f"{len(digests)} different schedule digests over {len(done)} passes")
    for result in done:
        attempted += result.attempted
        problems += result.problems
    attempted += len(done)
    record["recorded"] = done[0].simulated
    record["attempted"] = attempted
    record["failed"] = len(problems)
    record["failed_share"] = len(problems) / attempted
    record["correct"] = not problems
    record["problems"] = problems[:20]
    return record


def run_passes(workload, seconds: float, kinds, minimum: dict[str, int]) -> dict[str, list]:
    """Passes of the kinds ``kinds`` yields ("plain", or "obs" for a pass
    with a live Telemetry registry) until ``seconds`` are spent and every
    kind has its minimum; returns ``{kind: [PassResult]}``."""
    from repro.obs.telemetry import Telemetry

    done: dict[str, list] = {kind: [] for kind in minimum}
    last_cost = 0.0
    deadline = perf_counter() + seconds
    for kind in kinds:
        enough = all(len(done[k]) >= n for k, n in minimum.items())
        if enough and perf_counter() + last_cost > deadline:
            break
        t0 = perf_counter()
        telemetry = Telemetry(component="bench") if kind == "obs" else None
        result = workload.run_pass(telemetry)
        if telemetry is not None:
            result.extras["telemetry"] = telemetry
        done[kind].append(result)
        last_cost = perf_counter() - t0
    return done


def steady_wall(results: list) -> float:
    """Reference-box seconds of one pass, from all ``results`` of a kind
    (``clock.steady_seconds``: per-segment medians in calibration units).

    Measured on this box, 3 passes a run, one input: the median of the raw
    pass times moved 15-28 % (middle half over its median) from run to
    run, the sum of each segment's fastest time 13-22 %, this 3-7 %.
    """
    import clock

    return clock.steady_seconds([(r.segments, r.speeds) for r in results])


def measure_untraced(workload, seconds: float, quick: bool, record: dict) -> list:
    minimum = {"plain": 1 if quick else MIN_PLAIN_PASSES, "obs": 1 if quick else MIN_OBS_PASSES}
    done = run_passes(workload, seconds, itertools.cycle(("plain", "obs")), minimum)
    first = done["plain"][0]
    wall = steady_wall(done["plain"])
    # per pass: reference-box seconds (what compare.py reads) and raw seconds
    for metric, kind in (("wall_s", "plain"), ("wall_obs_on_s", "obs")):
        record["passes"][metric] = [steady_wall([r]) for r in done[kind]]
        record["passes"][f"raw_{metric}"] = [r.wall_s for r in done[kind]]
    record["end_to_end"] = {
        "setup_s": statistics.median(record["passes"]["setup_s"]),
        "wall_s": wall,
        "jobs_per_s": first.jobs / wall,
        "work_per_s": first.work / wall,
        "wall_obs_on_s": steady_wall(done["obs"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record["jobs"] = first.jobs
    record["work"] = first.work
    return done["plain"] + done["obs"]


def measure_traced(
    workload, seconds: float, quick: bool, seed: int, scale: float, workdir: str, record: dict
) -> list:
    import catalog
    import micro
    import tracing

    begin = perf_counter()
    minimum = {"plain": 1 if quick else 2, "obs": 1}
    pattern = ("plain", "obs") if quick else ("plain", "obs", "plain")
    reference = run_passes(workload, 0.0, iter(pattern), minimum)
    tracer = tracing.Tracer()
    tracer.install()
    traced = []
    try:
        deadline = begin + seconds * (1.0 - MICRO_SHARE)
        cost = 0.0
        needed = 1 if quick else MIN_TRACED_PASSES
        while len(traced) < needed or perf_counter() + cost < deadline:
            t0 = perf_counter()
            tracer.reset()
            result = workload.run_pass()
            engine = dict(result.engine)
            if tracer.sessions:  # every session built in the pass, the program's own too
                stats = [session.stats for session in tracer.sessions]
                engine = {
                    "events": sum(s.n_events for s in stats),
                    "sched_passes": sum(s.n_scheduling_passes for s in stats),
                    "corrections": sum(s.n_corrections for s in stats),
                    "max_queue": max(s.max_queue_length for s in stats),
                }
            traced.append((result, tracer.snapshot(), engine))
            cost = perf_counter() - t0
    finally:
        tracer.uninstall()
    probes, skipped = micro.run_probes(seed, scale, workdir)
    plain = reference["plain"]
    obs = reference["obs"]
    values = layer_values(plain, obs, traced, probes)
    record["calib_s"] = values["calib_s"]
    if workload.name == "serve_closed_loop":
        values.update(serve_values(plain, workload.json_share(plain[-1])))
    unknown = sorted(set(values) - set(catalog.PER_LAYER))
    if unknown:
        raise KeyError(f"metrics missing from catalog.PER_LAYER: {unknown}")
    record["per_layer"] = {metric: values.get(metric) for metric in catalog.PER_LAYER}
    record["skipped"] = tracer.skipped + skipped
    record["passes"]["plain_wall_s"] = [r.wall_s for r in plain]
    record["passes"]["traced_wall_s"] = [r.wall_s for r, _snap, _engine in traced]
    return plain + obs + [r for r, _snap, _engine in traced]


def layer_values(plain: list, obs: list, traced: list, probes: dict) -> dict:
    """Per-layer metrics of a traced run, read off its fastest traced pass
    so that the pieces add up to one wall time, in raw seconds (``calib_s``
    is the speed of the box during that pass); the overheads compare
    reference-box seconds.  ``None`` = not measured here (the layer is
    idle on this workload, or its target is gone)."""
    import tracing

    result, snapshot, engine = min(traced, key=lambda item: item[0].wall_s)
    wall = result.wall_s
    fastest_plain = min(plain, key=lambda r: r.wall_s)
    plain_wall = steady_wall(plain)
    layers = tracing.layer_self_times(snapshot)
    # the client loop encodes each reply as `serve_loop` would: serving time
    layers["serve"] = layers.get("serve", 0.0) + result.extras.get("encode_s", 0.0)

    def calls(key: str):
        return snapshot.get(key, (0,))[0] or None

    def span(key: str, column: int):
        return None if calls(key) is None else snapshot[key][column]

    def ratio(top, bottom, scale: float = 1.0):
        return None if top is None or not bottom else top / bottom * scale

    values: dict[str, float | None] = {
        "calib_s": statistics.fmean(result.speeds),
        "traced_wall_s": wall,
        "trace_overhead_pct": (steady_wall([r for r, _, _ in traced]) / plain_wall - 1.0) * 100.0,
        "layer_sum_s": sum(layers.values()),
        "unexplained_share": 1.0 - sum(layers.values()) / wall,
        "simulated.avebsld": result.simulated["avebsld"],
        "simulated.utilization": result.simulated["utilization"],
        "simulated.corrections": result.simulated["corrections"],
        "sim.session.self_s": layers.get("sim"),
        "sim.session.us_per_event": ratio(layers.get("sim"), engine.get("events"), 1e6),
        "sim.session.events": engine.get("events"),
        "sim.session.sched_passes": engine.get("sched_passes"),
        "sim.session.max_queue": engine.get("max_queue"),
    }
    for name in ("sched", "predict", "correct", "workload", "spec", "core", "serve", "metrics"):
        values[f"{name}.self_s"] = layers.get(name) or None
    for key in (
        "sched.select_jobs", "sched.notify", "sched.on_corrections", "sched.estimated_starts",
        "predict.predict", "predict.update", "predict.estimate", "correct.correct",
        "workload.get_trace", "core.run_spec", "core.get_bundle",
    ):
        values[f"{key}.busy_s"] = span(key, 1)
        values[f"{key}.calls"] = calls(key)
    values["sched.select_jobs.us_per_pass"] = ratio(
        span("sched.select_jobs", 1), calls("sched.select_jobs"), 1e6
    )
    values["sched.productive_pass_share"] = ratio(
        span("sched.select_jobs", 3), calls("sched.select_jobs")
    )
    values["sched.on_corrections.jobs_per_call"] = ratio(
        span("sched.on_corrections", 3), calls("sched.on_corrections")
    )
    for key in ("predict.predict", "predict.update", "predict.estimate", "correct.correct"):
        values[f"{key}.us_per_call"] = ratio(span(key, 1), calls(key), 1e6)
    values["correct.corrections_per_job"] = ratio(calls("correct.correct"), result.jobs)
    for extra, metric in (
        ("bundle_hit_share", "core.bundle.hit_share"),
        ("dispatch_overhead_ms_per_cell", "core.dispatch.overhead_ms_per_cell"),
        ("warm_rerun_ms", "core.cache.warm_rerun_ms"),
    ):
        values[metric] = fastest_plain.extras.get(extra)
    obs_wall = steady_wall(obs)
    values["obs.wall_on_s"] = obs_wall
    values["obs.enabled_overhead_pct"] = (obs_wall / plain_wall - 1.0) * 100.0
    telemetry = obs[-1].extras["telemetry"]
    t0 = perf_counter()
    telemetry.snapshot()
    values["obs.snapshot_ms"] = (perf_counter() - t0) * 1e3
    values.update(probes)
    return values


def serve_values(plain: list, json_share: float) -> dict:
    """Request latencies by class, from the untraced passes of the run."""
    import workloads

    values: dict[str, float] = {"serve.json.share": json_share}
    everything: list[float] = []
    for cls in workloads.SERVE_CLASSES:
        samples = [s for r in plain for s in r.samples[cls]]
        everything += samples
        values[f"serve.{cls}.p50_us"] = statistics.median(samples) * 1e6
        values[f"serve.{cls}.p99_us"] = percentile(samples, 0.99) * 1e6
        values[f"serve.{cls}.n"] = len(samples)
    values["serve.request.p50_us"] = statistics.median(everything) * 1e6
    values["serve.errors"] = sum(r.extras["refused"] for r in plain)
    return values


# -- output ----------------------------------------------------------------------
def contract_line(record: dict, spec: dict) -> str:
    """The last line of standard output: exactly the declared metrics."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    metrics = {}
    for metric in spec[kind]:
        value = record[kind].get(metric["name"])
        # the contract wants a number; a skipped probe reads 0 here and
        # null (with its note under "skipped") in the result file
        metrics[metric["name"]] = {
            "value": 0.0 if value is None else value,
            "unit": metric["unit"],
        }
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def print_table(record: dict) -> None:
    """Every metric of the run by name, with its unit."""
    import catalog

    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"calib_s={record['calib_s']:.4f}")
    if record["trace"]:
        rows = [(n, v, catalog.PER_LAYER[n][0]) for n, v in record["per_layer"].items()]
    else:
        rows = [(n, v, catalog.END_TO_END[n]) for n, v in record["end_to_end"].items()]
    for name, value, unit in rows:
        if value is None:
            continue  # not measured on this workload
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:44s} {shown:>14s} {unit}")
    for key, value in record["recorded"].items():
        print(f"recorded.{key:35s} {value}")
    for note in record.get("skipped", []):
        print(f"skipped: {note}")
    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    print(f"failed_share {record['failed']}/{record['attempted']}")


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload, both modes, each in its own interpreter."""
    runs = []
    found: dict = {}
    status = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            out = os.path.join(SUITE_DIR, ".work", f"all-{workload['name']}-{trace}.json")
            os.makedirs(os.path.dirname(out), exist_ok=True)
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", workload["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace), "--out", out,
            ]
            print("+", " ".join(command[2:]), flush=True)
            done = subprocess.run(command, stdout=subprocess.DEVNULL, check=False)
            status = status or done.returncode
            if os.path.exists(out):
                with open(out, encoding="utf-8") as fh:
                    result = json.load(fh)
                runs += result["runs"]
                found = result["fingerprint"]
                os.remove(out)
    merged = {"suite_version": SUITE_VERSION, "claim": None, "fingerprint": found, "runs": runs}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(runs)} runs to {args.out}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result JSON here")
    parser.add_argument("--selftest", action="store_true", help="smoke run, under 10 s")
    args = parser.parse_args(argv)
    src = bootstrap()
    spec = declared()
    if args.selftest:
        import selftest

        return selftest.main(spec, run_one, contract_line)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload == "all":
        if not args.out:
            parser.error("--workload all needs --out")
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)} (or 'all')")
    import_s = import_seconds(src)
    record = run_one(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print_table(record)
    if args.out:
        result = {
            "suite_version": SUITE_VERSION,
            "claim": None,
            "fingerprint": fingerprint(args.seed),
            "runs": [record],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    print(contract_line(record, spec))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
