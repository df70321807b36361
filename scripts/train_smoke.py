#!/usr/bin/env python
"""Learned-policy smoke test (CI).

Proves the repro.learn subsystem end to end, through the real CLI:

1. trains a tiny policy twice (``repro train --json``) into two separate
   stores and asserts the checkpoint digests are **byte-identical**
   (training is deterministic in its config, regardless of store);
2. evaluates the policy on a held-out seed (``repro eval --json``) and
   asserts the leaderboard contains the learned triple and that its mean
   AVEbsld **matches or beats the EASY baseline** (guaranteed by the
   trainer's best-including-init selection: the shipped policy is never
   worse than the EASY-SJBF-equivalent init);
3. runs the learned cell through a *distributed* campaign -- a JSON spec
   file with an ``rl-backfill`` scheduler, ``repro campaign --backend
   fsqueue`` coordinated over a tmp queue, drained by a ``repro worker``
   subprocess that resolves the checkpoint via ``$REPRO_CHECKPOINT_DIR``
   -- and asserts the learned cell's cached score equals the local
   evaluation exactly (cache identity is the spec digest, which embeds
   the checkpoint digest, not the store path);
4. leaves the telemetry directory (training curves included) for CI
   artifact upload.

Exit code 0 only if every assertion holds.

Usage::

    python scripts/train_smoke.py [--n-jobs 250] [--telemetry-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

LOG = "KTH-SP2"


def run_cli(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def spawn(args: list[str], env: dict, log_path: str) -> subprocess.Popen:
    log = open(log_path, "w", encoding="utf-8")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env, stdout=log, stderr=subprocess.STDOUT,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-jobs", type=int, default=250)
    parser.add_argument("--workdir", default=None,
                        help="scratch dir (default: a fresh tempdir)")
    parser.add_argument("--telemetry-dir", default=None,
                        help="telemetry output dir (kept for artifact upload)")
    parser.add_argument("--timeout", type=float, default=900.0)
    args = parser.parse_args(argv)

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-train-smoke-")
    os.makedirs(workdir, exist_ok=True)
    telemetry_dir = args.telemetry_dir or os.path.join(workdir, "telemetry")
    env = {**os.environ,
           "PYTHONPATH": _SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    train_args = [
        "train", "--log", LOG, "--n-jobs", str(args.n_jobs),
        "--replicas", "2", "--epochs", "2", "--episodes", "4",
        "--seed", "7", "--json",
    ]

    print(f"[train-smoke] workdir: {workdir}")
    t0 = time.monotonic()

    print("[train-smoke] 1/3 train twice, compare digests ...")
    digests = []
    for attempt in (1, 2):
        store = os.path.join(workdir, f"store{attempt}")
        proc = run_cli(
            [*train_args, "--store", store, "--telemetry", telemetry_dir],
            env, args.timeout,
        )
        if proc.returncode != 0:
            print(f"[train-smoke] FAIL: train #{attempt} exited "
                  f"{proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        report = json.loads(proc.stdout)
        digests.append(report["digest"])
        print(f"[train-smoke]     run {attempt}: digest {report['digest']} "
              f"(AVEbsld {report['train_avebsld']:.3f} trained, "
              f"{report['init_avebsld']:.3f} init, "
              f"best epoch {report['best_epoch']})")
        if report["train_avebsld"] > report["init_avebsld"]:
            print("[train-smoke] FAIL: shipped policy is worse than its init "
                  "(best-including-init selection is broken)")
            return 1
        if not os.path.exists(os.path.join(store, f"{report['digest']}.json")):
            print(f"[train-smoke] FAIL: checkpoint file missing from {store}")
            return 1
    if digests[0] != digests[1]:
        print(f"[train-smoke] FAIL: training is not deterministic: "
              f"{digests[0]} != {digests[1]}")
        return 1
    digest = digests[0]
    store = os.path.join(workdir, "store1")
    print(f"[train-smoke]     deterministic: both runs -> {digest} "
          f"({time.monotonic() - t0:.0f}s)")

    print("[train-smoke] 2/3 held-out eval vs heuristics ...")
    proc = run_cli(
        ["eval", "--policy", digest, "--store", store, "--log", LOG,
         "--n-jobs", str(args.n_jobs), "--json",
         "--cache", os.path.join(workdir, "eval.jsonl"),
         "--telemetry", telemetry_dir],
        env, args.timeout,
    )
    if proc.returncode != 0:
        print(f"[train-smoke] FAIL: eval exited {proc.returncode}\n"
              f"{proc.stderr[-2000:]}")
        return 1
    report = json.loads(proc.stdout)
    holdout_seeds = report["seeds"]
    learned = [r for r in report["leaderboard"] if "rl-backfill" in r["label"]]
    easy = [r for r in report["leaderboard"] if r["label"].endswith("|easy")]
    if len(learned) != 1 or len(easy) != 1:
        print(f"[train-smoke] FAIL: leaderboard must carry exactly one "
              f"learned and one EASY row; got "
              f"{[r['label'] for r in report['leaderboard']]}")
        return 1
    learned_mean = learned[0]["mean_avebsld"]
    easy_mean = easy[0]["mean_avebsld"]
    for row in report["leaderboard"]:
        print(f"[train-smoke]     {row['label']}: {row['mean_avebsld']:.3f}")
    if learned_mean > easy_mean:
        print(f"[train-smoke] FAIL: learned policy ({learned_mean:.3f}) does "
              f"not match-or-beat EASY ({easy_mean:.3f}) on held-out "
              f"seed(s) {holdout_seeds}")
        return 1
    print(f"[train-smoke]     learned {learned_mean:.3f} <= easy "
          f"{easy_mean:.3f} on held-out seed(s) {holdout_seeds}")

    print("[train-smoke] 3/3 learned cell through fsqueue campaign ...")
    spec_path = os.path.join(workdir, "learned.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "campaign": {
                    "name": "learned-smoke",
                    "logs": [LOG],
                    "n_jobs": args.n_jobs,
                    "seeds": [holdout_seeds[0]],
                },
                "grid": [
                    {
                        "predictor": ["ave2"],
                        "corrector": ["incremental"],
                        "scheduler": [
                            {"name": "rl-backfill",
                             "params": {"policy": digest}},
                            "easy-sjbf",
                        ],
                    }
                ],
            },
            fh,
        )
    queue_dir = os.path.join(workdir, "queue")
    dist_cache = os.path.join(workdir, "dist.jsonl")
    # the worker resolves the bare digest through the environment -- the
    # spec (and so the cache identity) never names the store path
    dist_env = {**env, "REPRO_CHECKPOINT_DIR": store}
    worker = spawn(
        ["worker", "--queue", queue_dir, "--worker-id", "train-smoke-w1",
         "--poll", "0.2", "--max-idle", "120", "--telemetry", telemetry_dir],
        dist_env, os.path.join(workdir, "worker.log"),
    )
    coordinator = spawn(
        ["campaign", "--spec", spec_path, "--cache", dist_cache,
         "--backend", "fsqueue", "--queue", queue_dir,
         "--dist-timeout", str(args.timeout), "--telemetry", telemetry_dir],
        dist_env, os.path.join(workdir, "coordinator.log"),
    )
    code = coordinator.wait(timeout=args.timeout)
    worker.wait(timeout=120)
    if code != 0:
        print(f"[train-smoke] FAIL: fsqueue coordinator exited {code}")
        sys.stdout.write(
            open(os.path.join(workdir, "coordinator.log")).read()[-3000:]
        )
        return 1

    from repro.spec import expand_spec_file

    cells = {c.label: c for c in expand_spec_file(spec_path)}
    rows = [json.loads(line) for line in open(dist_cache, encoding="utf-8")]
    by_token = {r["token"]: r["value"] for r in rows if "token" in r}
    learned_cell = next(c for label, c in cells.items() if "rl-backfill" in label)
    learned_rows = [
        score for token, score in by_token.items()
        if f"spec:{learned_cell.digest()}" in token
    ]
    if len(learned_rows) != 1:
        print(f"[train-smoke] FAIL: expected exactly one learned cell in the "
              f"fsqueue cache, found {len(learned_rows)} "
              f"(tokens: {sorted(by_token)})")
        return 1
    if abs(learned_rows[0] - learned_mean) > 1e-9:
        print(f"[train-smoke] FAIL: fsqueue score {learned_rows[0]!r} != "
              f"local eval score {learned_mean!r} for the same cell")
        return 1
    print(f"[train-smoke]     fsqueue learned cell == local eval "
          f"({learned_rows[0]:.3f}); cache keys embed checkpoint digest "
          f"{digest}")

    print(f"[train-smoke] all checks passed in {time.monotonic() - t0:.0f}s "
          f"(telemetry: {telemetry_dir})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
