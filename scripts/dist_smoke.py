"""Distributed-campaign smoke test (CI).

Proves the fsqueue dispatch subsystem end to end, with real processes:

1. runs a small campaign single-host (the reference);
2. runs the *same* campaign through ``repro campaign --backend fsqueue``
   coordinated over a tmp queue directory, drained by **two**
   ``repro worker`` subprocesses -- plus a third worker that is
   SIGKILLed mid-run to prove lease-expiry retry recovers its shard;
3. canonicalises both result caches (``repro.dist.merge``) and asserts
   they are **byte-identical**;
4. prints what ``repro metrics`` would, from the one event stream: the
   coordinator's (``--telemetry-dir``) and the workers'
   (``QUEUE/progress/``, written with or without ``--telemetry``);
5. reconciles the workers' telemetry against the merged cache: every
   unique cell must be accounted for by a *surviving* worker's
   ``worker.cells.simulated + worker.cells.cached`` counters (survivors
   re-claim the victim's shard and serve its proven cells from the shard
   cache), claims and lease renewals must be non-zero, and the
   SIGKILLed victim must have left **no** snapshot (snapshots land only
   on clean exit);

and leaves the merged cache at ``--out``, the telemetry directory
(``--telemetry-dir``) and, under an explicit ``--workdir``, the queue with
the workers' streams for CI artifact upload.

Exit code 0 only if every step, including the byte comparison and the
telemetry reconciliation, passes.

Usage::

    python scripts/dist_smoke.py --out merged_cache.jsonl [--n-jobs 120]
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.dist import merge_caches  # noqa: E402


def spawn(args: list[str], env: dict, log_path: str) -> subprocess.Popen:
    log = open(log_path, "w", encoding="utf-8")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env, stdout=log, stderr=subprocess.STDOUT,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="merged_cache.jsonl",
                        help="where the canonical merged cache lands")
    parser.add_argument("--log", default="KTH-SP2")
    parser.add_argument("--n-jobs", type=int, default=120)
    parser.add_argument("--workdir", default=None,
                        help="scratch dir (default: a fresh tempdir)")
    parser.add_argument("--telemetry-dir", default=None,
                        help="telemetry output dir (default: WORKDIR/telemetry; "
                        "kept for artifact upload)")
    parser.add_argument("--timeout", type=float, default=900.0)
    args = parser.parse_args(argv)

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-dist-smoke-")
    os.makedirs(workdir, exist_ok=True)
    telemetry_dir = args.telemetry_dir or os.path.join(workdir, "telemetry")
    queue_dir = os.path.join(workdir, "queue")
    local_cache = os.path.join(workdir, "local.jsonl")
    dist_cache = os.path.join(workdir, "dist.jsonl")
    env = {**os.environ, "PYTHONPATH": _SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    campaign_args = [
        "--logs", args.log, "--n-jobs", str(args.n_jobs), "--replicas", "1",
    ]

    print(f"[smoke] workdir: {workdir}")
    t0 = time.monotonic()
    print("[smoke] 1/5 single-host reference campaign ...")
    subprocess.run(
        [sys.executable, "-m", "repro", "campaign", *campaign_args,
         "--cache", local_cache],
        env=env, check=True, timeout=args.timeout,
        stdout=subprocess.DEVNULL,
    )
    print(f"[smoke]     done in {time.monotonic() - t0:.0f}s")

    print("[smoke] 2/5 distributed campaign: 2 workers + 1 sacrificial ...")
    workers = [
        spawn(["worker", "--queue", queue_dir, "--worker-id", f"smoke-w{i}",
               "--poll", "0.2", "--max-idle", "120",
               "--telemetry", telemetry_dir],
              env, os.path.join(workdir, f"w{i}.log"))
        for i in (1, 2)
    ]
    victim = spawn(["worker", "--queue", queue_dir, "--worker-id", "smoke-victim",
                    "--poll", "0.2", "--max-idle", "120",
                    "--telemetry", telemetry_dir],
                   env, os.path.join(workdir, "victim.log"))
    coordinator = spawn(
        ["campaign", *campaign_args, "--cache", dist_cache,
         "--backend", "fsqueue", "--queue", queue_dir,
         "--lease-ttl", "10", "--dist-timeout", str(args.timeout),
         "--telemetry", telemetry_dir],
        env, os.path.join(workdir, "coordinator.log"),
    )
    # kill the victim the moment it claims its first shard (its stream is
    # in the queue from its first action): its lease must expire and the
    # shard must be retried by a surviving worker
    victim_progress = os.path.join(queue_dir, "progress", "smoke-victim.jsonl")
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        try:
            with open(victim_progress, encoding="utf-8") as fh:
                if '"claim"' in fh.read():
                    break
        except OSError:
            pass
        if coordinator.poll() is not None:
            break  # campaign already over; nothing left to sabotage
        time.sleep(0.05)
    victim.send_signal(signal.SIGKILL)
    print("[smoke]     victim worker SIGKILLed on first claim; waiting for recovery ...")
    code = coordinator.wait(timeout=args.timeout)
    for proc in workers:
        proc.wait(timeout=120)
    if code != 0:
        print(f"[smoke] FAIL: coordinator exited {code}; see {workdir}/coordinator.log")
        sys.stdout.write(open(os.path.join(workdir, "coordinator.log")).read()[-4000:])
        return 1
    print(f"[smoke]     done in {time.monotonic() - t0:.0f}s")

    print("[smoke] 3/5 canonicalise + byte-compare ...")
    local_canon = os.path.join(workdir, "local.canonical.jsonl")
    _, local_report = merge_caches([local_cache], out_path=local_canon)
    _, dist_report = merge_caches([dist_cache], out_path=args.out)
    print(f"[smoke]     local: {local_report.describe()}")
    print(f"[smoke]     dist : {dist_report.describe()}")
    with open(local_canon, "rb") as fh:
        local_bytes = fh.read()
    with open(args.out, "rb") as fh:
        dist_bytes = fh.read()
    if local_bytes != dist_bytes:
        print("[smoke] FAIL: merged distributed cache differs from single-host run")
        return 1
    print(f"[smoke]     byte-identical: {len(dist_bytes)} bytes, "
          f"{dist_report.unique} cells")

    print("[smoke] 4/5 worker participation ...")
    shard_results = [p for p in os.listdir(os.path.join(queue_dir, "results"))]
    progress_dir = os.path.join(queue_dir, "progress")
    from repro.obs import format_events, load_events

    report = format_events(load_events(telemetry_dir) + load_events(progress_dir))
    print(report)
    if not all(f"worker-smoke-w{i}: " in report for i in (1, 2)):
        print("[smoke] FAIL: a surviving worker left no event stream in the queue")
        return 1

    print("[smoke] 5/5 telemetry reconciliation ...")
    from repro.obs import load_snapshots

    snapshots = load_snapshots(telemetry_dir)
    components = sorted(s["component"] for s in snapshots)
    print(f"[smoke]     snapshots: {', '.join(components) or '(none)'}")
    worker_snaps = [s for s in snapshots if s["component"].startswith("worker-")]
    if any(s["component"] == "worker-smoke-victim" for s in worker_snaps):
        print("[smoke] FAIL: SIGKILLed victim left a telemetry snapshot "
              "(snapshots must only land on clean exit)")
        return 1
    if not any(s["component"] == "campaign" for s in snapshots):
        print("[smoke] FAIL: coordinator wrote no campaign telemetry snapshot")
        return 1

    def counter(snap: dict, name: str) -> float:
        return float(snap.get("counters", {}).get(name, 0))

    claims = sum(counter(s, "worker.claims") for s in worker_snaps)
    renewals = sum(counter(s, "worker.lease.renewals") for s in worker_snaps)
    proven = sum(
        counter(s, "worker.cells.simulated") + counter(s, "worker.cells.cached")
        for s in worker_snaps
    )
    print(f"[smoke]     surviving workers: {len(worker_snaps)}, "
          f"claims={claims:.0f}, renewals={renewals:.0f}, "
          f"cells simulated+cached={proven:.0f} "
          f"(merged cache: {dist_report.unique} unique cells)")
    if len(worker_snaps) != 2:
        print("[smoke] FAIL: expected snapshots from the 2 surviving workers")
        return 1
    if claims < 1 or renewals < 1:
        print("[smoke] FAIL: workers recorded no claims or lease renewals")
        return 1
    # every merged cell was either simulated by a survivor or proven by a
    # dead attempt and re-served from its shard cache by the survivor
    # that re-claimed the shard -- so the counters must cover the cache
    if proven < dist_report.unique:
        print("[smoke] FAIL: worker telemetry accounts for fewer cells "
              "than the merged cache holds")
        return 1

    print(f"[smoke] OK ({len(shard_results)} shard result file(s)); "
          f"merged cache at {args.out}; telemetry at {telemetry_dir}")
    if args.workdir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
