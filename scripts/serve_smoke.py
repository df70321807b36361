"""Serving-mode smoke test (CI).

Proves ``repro serve`` end to end, with a real subprocess and pipes:

1. synthesises a small SWF-style trace (runtimes clamped to the serving
   default ``min_prediction`` so the clairvoyant predictor is *exact*);
2. batch-runs it (conservative + clairvoyant) as the reference -- under
   conservative backfilling with exact predictions, the start estimate
   at submit time equals the start the batch schedule assigns;
3. derives a JSONL command script (submit+advance, query per job, then
   drain/result/stats/quit) and pipes it through
   ``repro serve --scheduler conservative --predictor clairvoyant``;
4. asserts every served query matches the batch start time, the final
   served schedule is identical to the batch one, and warm queries are
   answered in well under a millisecond of server-side time;
5. with ``--telemetry-dir`` it also reconciles the server's telemetry
   snapshot: ``serve.requests.total`` must equal the number of piped
   commands and the warm/cold/probe query counters must cover every
   query sent;
6. differential leg on the *default* configuration (``easy-sjbf`` /
   ``ave2`` / ``incremental``, what ``build_serve_session`` and the repo
   benchmark serve): per job a submit+advance, its query twice, a
   hypothetical probe, and a ``complete`` at its batch end time once the
   stream has passed it -- so finishes, corrections and starts land
   between the queries.  *Every* reply, ``elapsed_us`` aside, must equal
   the one an in-process ``SessionServer`` over the frozen
   ``legacy-easy-sjbf`` gives: the oracle answers each query from the
   machine alone, the served scheduler from the plan it carries.  The
   same script then runs under ``--scheduler conservative`` (still
   ``ave2`` / ``incremental``) against ``legacy-conservative``: its
   plan is carried from pass to pass, and a probe is fitted on it.
   The oracles share the probe's fit (``Scheduler.estimated_starts``)
   with the served schedulers, so for a probe this leg checks the plan
   under it, not the fit; ``assert_queries_exact`` in
   ``tests/sched/test_plan_reuse.py`` checks probe answers against an
   independent profile.

Exit code 0 only if every check passes.

Usage::

    python scripts/serve_smoke.py [--n-jobs 60] [--max-warm-us 1000]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.predict import ClairvoyantPredictor  # noqa: E402
from repro.sched import make_scheduler  # noqa: E402
from repro.serve import SessionServer, build_serve_session  # noqa: E402
from repro.sim import simulate  # noqa: E402
from repro.workload import Trace, get_trace  # noqa: E402

MIN_PREDICTION = 60.0
#: stream length of the differential legs: deep enough to queue
#: (the legs' own "does it bite" floor below was set at this length)
DIFFERENTIAL_JOBS = 400
#: the differential legs: the served scheduler (None: the default, no
#: option given) and the frozen oracle its every reply must equal
DIFFERENTIAL_LEGS = ((None, "legacy-easy-sjbf"), ("conservative", "legacy-conservative"))


def build_trace(n_jobs: int) -> Trace:
    base = get_trace("KTH-SP2", n_jobs=n_jobs)
    jobs = [
        job.with_updates(
            runtime=max(job.runtime, MIN_PREDICTION),
            requested_time=max(job.requested_time, MIN_PREDICTION),
        )
        for job in base
    ]
    return Trace(jobs, processors=base.processors, name="serve-smoke")


_CLOSING = [{"cmd": "drain"}, {"cmd": "result"}, {"cmd": "stats"}, {"cmd": "quit"}]


def submit_command(job) -> dict:
    return {
        "cmd": "submit",
        "advance": True,
        "job": {
            "job_id": job.job_id,
            "submit_time": job.submit_time,
            "processors": job.processors,
            "requested_time": job.requested_time,
            "runtime": job.runtime,
            "user": job.user,
        },
    }


def command_script(trace: Trace) -> list[dict]:
    commands: list[dict] = []
    for job in trace:
        commands.append(submit_command(job))
        commands.append({"cmd": "query", "job_id": job.job_id})
    return commands + _CLOSING


def differential_script(trace: Trace, ends: dict[int, float]) -> list[dict]:
    """The default-configuration leg: cold query, repeated query and a
    probe per job, and ``complete`` lines at the batch end times."""
    jobs = list(trace)
    by_end = sorted((end, job_id) for job_id, end in ends.items())
    commands: list[dict] = []
    done = 0
    for i, job in enumerate(jobs):
        query = {"cmd": "query", "job_id": job.job_id}
        probe = {
            "job_id": 10**9 + i,
            "submit_time": job.submit_time,
            "processors": 1 << (i % 4),
            "requested_time": 900.0 * (1 + i % 7),
            "user": job.user,
        }
        commands += [submit_command(job), query, query, {"cmd": "query", "job": probe}]
        horizon = jobs[i + 1].submit_time if i + 1 < len(jobs) else float("inf")
        while done < len(by_end) and by_end[done][0] <= horizon:
            end, job_id = by_end[done]
            commands.append({"cmd": "complete", "job_id": job_id, "time": end})
            done += 1
    return commands + _CLOSING


def pipe_through_serve(
    commands: list[dict], processors: int, options: list[str]
) -> list[dict] | None:
    """The replies of a real ``repro serve`` subprocess, one per command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--processors", str(processors), *options],
        input="".join(json.dumps(c) + "\n" for c in commands),
        capture_output=True, text=True, env=env, timeout=300,
    )
    print(proc.stderr.strip())
    if proc.returncode != 0:
        print(f"FAIL: repro serve exited {proc.returncode}")
        return None
    responses = [json.loads(line) for line in proc.stdout.splitlines()]
    if len(responses) != len(commands):
        print(f"FAIL: {len(commands)} command(s) but {len(responses)} response(s)")
        return None
    bad = [r for r in responses if not r.get("ok")]
    if bad:
        print(f"FAIL: {len(bad)} error response(s), first: {bad[0]}")
        return None
    return responses


def differential_leg(scheduler: str | None, oracle_name: str) -> int:
    """Failures of one served configuration against its frozen oracle."""
    trace = get_trace("KTH-SP2", n_jobs=DIFFERENTIAL_JOBS)
    named = {} if scheduler is None else {"scheduler": scheduler}
    batch = build_serve_session(trace.processors, **named)
    batch.feed(trace)
    batch.drain()
    commands = differential_script(trace, {r.job_id: r.end_time for r in batch.result()})
    options = [] if scheduler is None else ["--scheduler", scheduler]
    served = pipe_through_serve(commands, trace.processors, options)
    if served is None:
        return 1
    oracle = SessionServer(build_serve_session(trace.processors, scheduler=oracle_name))
    failures = 0
    waiting = 0
    for command, reply in zip(commands, served, strict=True):
        expected = json.loads(json.dumps(oracle.handle_line(json.dumps(command))))
        expected.pop("elapsed_us", None)
        reply.pop("elapsed_us", None)
        waiting += reply.get("state") == "waiting"
        if reply != expected and failures < 5:
            print(f"FAIL: {command} answered {reply}, the oracle says {expected}")
        failures += reply != expected
    if waiting < DIFFERENTIAL_JOBS // 4:
        print(f"FAIL: only {waiting} quer(ies) met a waiting job; the leg does not bite")
        failures += 1
    if not failures:
        print(
            f"OK: {len(commands)} repl(ies) of {scheduler or 'the default configuration'} "
            f"identical to {oracle_name}'s, {waiting} of them start estimates of waiting jobs"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-jobs", type=int, default=60)
    parser.add_argument(
        "--max-warm-us", type=float, default=1000.0,
        help="bound on the median server-side warm-query time (microseconds)",
    )
    parser.add_argument(
        "--telemetry-dir", default=None,
        help="run the server with --telemetry DIR and reconcile its "
        "request counters against the piped command script",
    )
    args = parser.parse_args(argv)

    trace = build_trace(args.n_jobs)
    batch = simulate(
        trace, make_scheduler("conservative"), ClairvoyantPredictor(),
        min_prediction=MIN_PREDICTION,
    )
    batch_rows = sorted([r.job_id, r.start_time, r.end_time] for r in batch)
    batch_starts = {r.job_id: r.start_time for r in batch}

    commands = command_script(trace)
    options = ["--scheduler", "conservative", "--predictor", "clairvoyant",
               "--corrector", "none"]
    if args.telemetry_dir:
        options += ["--telemetry", args.telemetry_dir]
    responses = pipe_through_serve(commands, trace.processors, options)
    if responses is None:
        return 1
    by_cmd: dict[str, list[dict]] = {}
    for response in responses:
        by_cmd.setdefault(response["cmd"], []).append(response)

    failures = 0
    query_times: list[float] = []
    for answer in by_cmd["query"]:
        query_times.append(answer["elapsed_us"])
        expected = batch_starts[answer["job_id"]]
        if answer["start"] != expected:
            print(
                f"FAIL: job {answer['job_id']} served start {answer['start']} "
                f"!= batch start {expected}"
            )
            failures += 1
    served_rows = by_cmd["result"][0]["jobs"]
    if served_rows != batch_rows:
        print("FAIL: served schedule differs from the batch schedule")
        failures += 1

    # warm latency: ignore the first few queries (cold caches/imports)
    warm = query_times[min(5, len(query_times) - 1):]
    median_us = statistics.median(warm)
    worst_us = max(warm)
    print(
        f"queries: {len(query_times)}, warm median {median_us:.0f}us, "
        f"warm worst {worst_us:.0f}us (bound {args.max_warm_us:.0f}us on median)"
    )
    if median_us >= args.max_warm_us:
        print("FAIL: warm queries slower than the bound")
        failures += 1

    if args.telemetry_dir:
        from repro.obs import load_snapshots

        snapshots = [
            s for s in load_snapshots(args.telemetry_dir)
            if s["component"] == "serve"
        ]
        if not snapshots:
            print(f"FAIL: no serve telemetry snapshot under {args.telemetry_dir}")
            failures += 1
        else:
            counters = snapshots[0].get("counters", {})
            total = counters.get("serve.requests.total", 0)
            if total != len(commands):
                print(
                    f"FAIL: serve.requests.total={total} but "
                    f"{len(commands)} command(s) were piped"
                )
                failures += 1
            answered = (
                counters.get("serve.query.warm", 0)
                + counters.get("serve.query.cold", 0)
                + counters.get("serve.query.probe", 0)
            )
            if answered != len(query_times):
                print(
                    f"FAIL: warm+cold+probe query counters ({answered}) != "
                    f"{len(query_times)} quer(ies) sent"
                )
                failures += 1
            print(
                f"telemetry: {total:.0f} request(s), "
                f"{counters.get('serve.query.warm', 0):.0f} warm / "
                f"{counters.get('serve.query.cold', 0):.0f} cold quer(ies), "
                f"{counters.get('serve.errors', 0):.0f} error(s)"
            )

    if not failures:
        print(
            f"OK: {len(batch_rows)} job(s) served identical to batch, "
            f"{len(query_times)} quer(ies) exact"
        )
    for scheduler, oracle_name in DIFFERENTIAL_LEGS:
        failures += differential_leg(scheduler, oracle_name)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
