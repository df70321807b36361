"""Command-line interface.

Subcommands::

    repro synth --log Curie out.swf  # write a synthetic SWF file
    repro sim --log KTH-SP2 --predictor ml:sq-lin-large-area \\
              --corrector incremental --scheduler easy-sjbf
    repro campaign --n-jobs 1500 --replicas 2 --cache camp.json
    repro campaign --spec experiments/paper.toml --cache camp.json
    repro campaign --backend fsqueue --queue /shared/q --cache camp.json
    repro spec validate experiments/*.toml   # check experiment files
    repro spec expand experiments/paper.toml # list the expanded cells
    repro train --log KTH-SP2 --epochs 4     # train + checkpoint a policy
    repro eval --policy DIGEST --log KTH-SP2 # rank it vs heuristics
    repro serve --processors 1024    # live JSONL session (README: Serving mode)
    repro worker --queue /shared/q   # drain shards from a queue dir
    repro merge --out merged.jsonl /shared/q/results
    repro check [PATH ...]           # static invariant checker
    repro table --which 1|4|6|7|8    # print a paper table reproduction
    repro metrics RUN_DIR            # counters + campaign/worker progress
    repro metrics /shared/q/progress # the workers of a live fsqueue campaign
    repro metrics BEFORE_DIR AFTER_DIR   # counter deltas between two runs

``sim``, ``campaign``, ``serve``, ``train``, ``eval`` and ``worker``
accept ``--telemetry DIR``: counters/histograms land in
``DIR/metrics-<component>.json`` (+ Prometheus text) on exit, spans and
lifecycle events in ``DIR/trace-<component>.jsonl`` as they happen (a
worker's, always, in ``QUEUE/progress/<id>.jsonl``); ``repro metrics``
renders both, live or afterwards.  ``-v``/``-vv`` (or ``REPRO_LOG=INFO``)
raises the log level.  ``python -m repro`` works as well as the
installed ``repro`` script.

A command passes on only the options that were typed (:func:`_given`),
so an option left out takes the default of the function the command
calls.  The CLI holds only the defaults no callee has: ``sim``'s triple,
``train``/``eval``'s ``--log``, ``campaign --backend``, ``spec expand
--format``, ``check``'s path and ``-v``.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import os
import sys

from .core import (
    TRIPLE_NAMES,
    analyze_predictions,
    average_reductions,
    build_workload,
    leave_one_out,
    paper_cells,
    run_cells,
    run_spec,
    selection_consensus,
    table8_rows,
)
from .core.reporting import format_leaderboard, format_percent, format_table
from .spec import CellSpec, SpecFileError, WorkloadSpec, validate_spec_file
from .workload import LOG_NAMES, save_swf, stable_seed, table4_rows

__all__ = ["main", "build_parser"]

_TELEMETRY_HELP = (
    "write counters/histograms and a span trace into this directory "
    "(render with `repro metrics DIR`)"
)


def _version_string() -> str:
    from . import __version__
    from .core.campaign import CACHE_VERSION
    from .sim.engine import ENGINE_VERSION
    from .spec import SPEC_VERSION

    return (
        f"repro {__version__} (engine v{ENGINE_VERSION}, "
        f"cache v{CACHE_VERSION}, spec v{SPEC_VERSION})"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Improving Backfilling by using Machine "
            "Learning to predict Running Times' (SC 2015)"
        ),
    )
    parser.add_argument("--version", action="version", version=_version_string())
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log INFO (-v) or DEBUG (-vv); REPRO_LOG=LEVEL works too",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        # an option left out stays out of the namespace (see _given)
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.set_defaults(run=run)  # main() calls it with the parsed namespace
        return p

    def telemetry_option(p: argparse.ArgumentParser) -> None:
        p.add_argument("--telemetry", dest="telemetry_dir", metavar="DIR", help=_TELEMETRY_HELP)

    p_synth = command("synth", _cmd_synth, "write a synthetic SWF trace")
    p_synth.add_argument("output", help="output .swf path")
    p_synth.add_argument("--log", required=True, choices=LOG_NAMES)
    p_synth.add_argument("--n-jobs", type=int)
    p_synth.add_argument("--seed", type=int)

    p_sim = command("sim", _cmd_sim, "run one heuristic triple on one log")
    p_sim.add_argument("--log", required=True, choices=LOG_NAMES)
    p_sim.add_argument("--n-jobs", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--predictor", default="requested")
    p_sim.add_argument("--corrector", default="none")
    p_sim.add_argument("--scheduler", default="easy")
    p_sim.add_argument("--tau", type=float)
    telemetry_option(p_sim)

    p_camp = command(
        "campaign", _cmd_campaign,
        "run the paper's 128-triple campaign, or any experiment spec file",
    )
    p_camp.add_argument(
        "--spec",
        help="run the cells expanded from this experiment spec file "
        "(TOML/JSON) instead of the paper grid over --logs/--n-jobs/--replicas",
    )
    p_camp.add_argument("--logs", nargs="*")
    p_camp.add_argument("--n-jobs", type=int)
    p_camp.add_argument("--replicas", type=int)
    p_camp.add_argument("--cache", dest="cache_path", help="JSONL result-cache path")
    p_camp.add_argument("--workers", type=int)
    p_camp.add_argument(
        "--backend",
        choices=["local", "fsqueue"],
        default="local",
        help="dispatch: this host's process pool, or coordinate "
        "`repro worker` processes over a shared queue directory",
    )
    p_camp.add_argument(
        "--queue", dest="queue_dir", help="fsqueue: the shared queue directory"
    )
    p_camp.add_argument(
        "--shards", dest="n_shards", type=int,
        help="fsqueue: fixed shard count (default: ~16 cells per shard)",
    )
    p_camp.add_argument(
        "--lease-ttl", type=float,
        help="fsqueue: seconds without heartbeat before a shard is re-queued",
    )
    p_camp.add_argument(
        "--max-attempts", type=int,
        help="fsqueue: attempts per shard before the campaign fails",
    )
    p_camp.add_argument(
        "--dist-timeout", dest="timeout", type=float,
        help="fsqueue: give up after this many seconds without completion",
    )
    telemetry_option(p_camp)

    p_serve = command(
        "serve", _cmd_serve,
        "long-running simulation session speaking JSONL on stdin/stdout",
    )
    p_serve.add_argument(
        "--processors", type=int, required=True, help="machine size to serve"
    )
    p_serve.add_argument("--scheduler")
    p_serve.add_argument("--predictor")
    p_serve.add_argument("--corrector")
    p_serve.add_argument("--min-prediction", type=float)
    p_serve.add_argument("--name", help="session/trace label")
    telemetry_option(p_serve)

    p_worker = command(
        "worker", _cmd_worker, "claim and simulate shards from a campaign queue"
    )
    p_worker.add_argument(
        "--queue", dest="queue_dir", required=True, help="the shared queue directory"
    )
    p_worker.add_argument("--worker-id", help="default: <host>-<pid>")
    p_worker.add_argument(
        "--poll", dest="poll_interval", type=float, help="claim poll seconds"
    )
    p_worker.add_argument(
        "--max-idle", type=float,
        help="exit after this many idle seconds (default: wait for DONE/STOP)",
    )
    p_worker.add_argument("--max-shards", type=int, help="exit after completing N shards")
    telemetry_option(p_worker)

    p_merge = command(
        "merge", _cmd_merge, "merge shard result caches into one canonical cache"
    )
    p_merge.add_argument(
        "inputs", nargs="+",
        help="shard cache files and/or directories of *.jsonl (e.g. QUEUE/results)",
    )
    p_merge.add_argument("--out", required=True, help="canonical merged cache path")

    p_spec = command(
        "spec", _cmd_spec, "validate / expand declarative experiment spec files"
    )
    spec_sub = p_spec.add_subparsers(dest="spec_command", required=True)
    p_validate = spec_sub.add_parser(
        "validate", help="parse, expand and registry-check spec files"
    )
    p_validate.add_argument("files", nargs="+", help="experiment .toml/.json files")
    p_expand = spec_sub.add_parser(
        "expand", help="print the cells a spec file expands to"
    )
    p_expand.add_argument("file", help="experiment .toml/.json file")
    p_expand.add_argument(
        "--format", choices=["cells", "keys", "json"], default="cells",
        help="cells: one line per cell; keys: unique legacy triple keys; "
        "json: canonical cell objects",
    )

    store_help = "checkpoint directory (default: $REPRO_CHECKPOINT_DIR or ./checkpoints)"
    p_train = command(
        "train", _cmd_train, "train a backfilling policy (REINFORCE) and checkpoint it"
    )
    p_train.add_argument("--log", default="KTH-SP2", choices=LOG_NAMES)
    p_train.add_argument("--n-jobs", type=int)
    p_train.add_argument(
        "--replicas", type=int, help="training trace seeds: stable_seed(log) + 0..N-1"
    )
    p_train.add_argument(
        "--train-seeds", type=int, nargs="+",
        help="pin the training trace seeds explicitly (overrides --replicas)",
    )
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--episodes", type=int, help="sampled episodes per epoch")
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--temperature", type=float)
    p_train.add_argument("--seed", type=int, help="master seed for action noise")
    p_train.add_argument("--predictor")
    p_train.add_argument("--corrector")
    p_train.add_argument("--min-prediction", type=float)
    p_train.add_argument("--tau", type=float)
    p_train.add_argument("--store", help=store_help)
    p_train.add_argument("--workers", type=int, help="parallel rollout workers")
    p_train.add_argument("--json", action="store_true", help="machine-readable summary")
    telemetry_option(p_train)

    p_eval = command(
        "eval", _cmd_eval,
        "rank a trained policy against heuristic baselines (leaderboard)",
    )
    p_eval.add_argument(
        "--policy", dest="digest", required=True, help="checkpoint digest to evaluate"
    )
    p_eval.add_argument("--store", help=store_help)
    p_eval.add_argument("--log", default="KTH-SP2", choices=LOG_NAMES)
    p_eval.add_argument("--n-jobs", type=int)
    p_eval.add_argument(
        "--seeds", type=int, nargs="*",
        help="evaluation trace seeds (default: stable_seed(log) + 2, the first "
        "seed past the two that `repro train` uses by default)",
    )
    p_eval.add_argument("--predictor")
    p_eval.add_argument("--corrector")
    p_eval.add_argument("--min-prediction", type=float)
    p_eval.add_argument("--tau", type=float)
    p_eval.add_argument(
        "--baselines", nargs="*", help="heuristic schedulers to rank against"
    )
    p_eval.add_argument("--cache", dest="cache_path", help="JSONL result-cache path")
    p_eval.add_argument("--workers", type=int)
    p_eval.add_argument("--json", action="store_true", help="machine-readable leaderboard")
    telemetry_option(p_eval)

    p_metrics = command(
        "metrics", _cmd_metrics,
        "render a --telemetry DIR or a queue's progress/: counter snapshots, "
        "campaign and worker progress",
    )
    p_metrics.add_argument(
        "dirs", nargs="+", metavar="DIR",
        help="one directory to render, or two to diff (before after)",
    )

    p_check = command(
        "check", _cmd_check,
        "run the static invariant checker (determinism/durability/"
        "cache-identity rules; README: Static analysis & invariants)",
    )
    p_check.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    p_check.add_argument(
        "--update-frozen", action="store_true",
        help="regenerate the FRZ001 digest file after a deliberate, "
        "oracle-proven semantics change (or an ENGINE_VERSION bump)",
    )

    p_table = command("table", _cmd_table, "print a paper table reproduction")
    p_table.add_argument("--which", required=True, choices=["1", "4", "6", "7", "8"])
    p_table.add_argument("--n-jobs", type=int)
    p_table.add_argument("--replicas", type=int)
    p_table.add_argument("--cache", dest="cache_path")
    p_table.add_argument("--workers", type=int)
    return parser


def _given(args: argparse.Namespace, callee) -> dict:
    """The options typed on the command line that ``callee`` takes, by
    parameter name; the ones left out keep the callee's own default."""
    params = inspect.signature(callee).parameters
    return {name: value for name, value in vars(args).items() if name in params}


@contextlib.contextmanager
def _telemetry(args: argparse.Namespace, component: str):
    """The command's registry under ``--telemetry DIR``, else ``None``.

    It traces into ``DIR/trace-<component>.jsonl`` as the block runs; the
    counter snapshot lands when the block is left, normally or not.
    """
    directory = getattr(args, "telemetry_dir", None)
    if not directory:
        yield None
        return
    from .obs import JsonlTraceSink, Telemetry

    trace = JsonlTraceSink(os.path.join(directory, f"trace-{component}.jsonl"))
    telemetry = Telemetry(component=component, trace=trace)
    try:
        yield telemetry
    finally:
        path = telemetry.write(directory)
        telemetry.close()
        print(f"telemetry written to {path}", file=sys.stderr)


def _cmd_synth(args: argparse.Namespace) -> int:
    try:
        workload = WorkloadSpec.make(**_given(args, WorkloadSpec.make))
    except ValueError as exc:
        return _usage_error("synth", exc)
    trace = build_workload(workload)
    save_swf(trace, args.output)
    # a derived seed is printed too, so every run is reproducible from its output
    origin = "from --seed" if "seed" in args else "derived from log name; pass --seed to override"
    print(f"seed {workload.seed} ({origin})")
    print(f"wrote {args.output}: {trace.stats().describe()}")
    return 0


def _usage_error(command: str, exc: Exception | str) -> int:
    """A bad name, number, spec file or option combination from the command
    line: one line on stderr, exit status 2 (argparse's own usage-error
    status)."""
    message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
    print(f"repro {command}: {message}", file=sys.stderr)
    return 2


def _cmd_sim(args: argparse.Namespace) -> int:
    try:
        spec = CellSpec.make(
            WorkloadSpec.make(**_given(args, WorkloadSpec.make)),
            **_given(args, CellSpec.make),
        )
    except (KeyError, ValueError) as exc:
        return _usage_error("sim", exc)
    with _telemetry(args, "sim") as telemetry:
        result = run_spec(spec, telemetry=telemetry)
    origin = "from --seed" if "seed" in args else "derived from log name"
    print(f"log        : {spec.workload.log}")
    print(f"seed       : {spec.workload.seed} ({origin})")
    print(f"triple     : {TRIPLE_NAMES.get(spec.label, spec.label)}")
    print(f"AVEbsld    : {result.avebsld(spec.tau):.2f}")
    print(f"utilization: {result.utilization():.3f}")
    print(f"corrections: {result.total_corrections()}")
    print(f"max queue  : {result.stats.max_queue_length}")
    return 0


def _run_cells_from_args(args: argparse.Namespace, cells: list[CellSpec]):
    """Run ``cells`` with the cache/dispatch/telemetry options of ``repro
    campaign`` (``repro table`` carries only the cache and worker ones)."""
    given = _given(args, run_cells)
    if given.pop("backend", None) == "fsqueue":  # the option's name becomes a broker
        from .dist import FsQueueBroker

        given["backend"] = FsQueueBroker(**_given(args, FsQueueBroker))
    with _telemetry(args, "campaign") as telemetry:
        return run_cells(cells, **given, telemetry=telemetry)


def _print_table6(result) -> None:
    rows = []
    for log, clair_fcfs, clair_sjbf, easy, easypp, rng_f, rng_s in result.table6_rows():
        rows.append(
            (
                log,
                clair_fcfs,
                clair_sjbf,
                easy,
                easypp,
                f"{rng_f[0]:.1f} - {rng_f[1]:.1f}",
                f"{rng_s[0]:.1f} - {rng_s[1]:.1f}",
            )
        )
    print(
        format_table(
            ["Trace", "Clairv FCFS", "Clairv SJBF", "EASY", "EASY++", "Learn FCFS", "Learn SJBF"],
            rows,
            title="Campaign overview (paper Table 6 layout)",
        )
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    """``repro campaign``: the paper grid over ``--logs/--n-jobs/
    --replicas``, or with ``--spec FILE`` any experiment file."""
    if args.backend == "fsqueue" and not getattr(args, "queue_dir", None):
        return _usage_error("campaign", "--backend fsqueue requires --queue DIR")
    try:
        if "spec" in args:
            name, cells = validate_spec_file(args.spec)
            print(f"spec {args.spec} ({name}): {len(cells)} cell(s)")
        else:
            name = "paper-sc15"
            cells = paper_cells(**_given(args, paper_cells))
    except SpecFileError as exc:
        return _usage_error("campaign", exc)
    result = _run_cells_from_args(args, cells)
    try:
        _print_table6(result)
    except KeyError:  # not the paper's matrix: no Table 6 to fill
        print(
            format_leaderboard(
                result.leaderboard(), title=f"Scenario leaderboard ({name})"
            )
        )
    return 0


def _cmd_spec(args: argparse.Namespace) -> int:
    from .spec import triple_keys_of

    if args.spec_command == "validate":
        failures = 0
        for path in args.files:
            try:
                name, cells = validate_spec_file(path)
            except Exception as exc:  # noqa: BLE001 - report every bad file
                print(f"FAIL {path}: {exc}")
                failures += 1
                continue
            legacy = sum(1 for c in cells if c.triple_key is not None)
            print(
                f"ok   {path} ({name}): {len(cells)} cell(s), "
                f"{legacy} with a legacy triple spelling"
            )
        return 1 if failures else 0

    try:
        name, cells = validate_spec_file(args.file)
    except SpecFileError as exc:
        return _usage_error("spec", exc)
    if args.format == "keys":
        entries = triple_keys_of(cells)
    elif args.format == "json":
        entries = [cell.canonical() for cell in cells]
    else:
        entries = [
            f"{cell.workload.log} n={cell.workload.n_jobs} "
            f"s={cell.workload.seed} {cell.label} [{cell.digest()}]"
            for cell in cells
        ]
    for entry in entries:
        print(entry)
    print(f"# {name}: {len(cells)} cell(s), {len(triple_keys_of(cells))} unique triple key(s)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: JSONL protocol loop over one live SimSession."""
    from .serve import build_serve_session, serve_loop

    given = _given(args, build_serve_session)
    with _telemetry(args, "serve") as telemetry:
        try:
            session = build_serve_session(**given, telemetry=telemetry)
        except (KeyError, ValueError) as exc:
            return _usage_error("serve", exc)
        params = inspect.signature(build_serve_session).parameters
        shown = {name: given.get(name, params[name].default) for name in params}
        print(
            f"serving m={shown['processors']} scheduler={shown['scheduler']} "
            f"predictor={shown['predictor']} corrector={shown['corrector']}; "
            "one JSON request per line (see README 'Serving mode')",
            file=sys.stderr,
        )
        stats = serve_loop(session, sys.stdin, sys.stdout, telemetry=telemetry)
    print(
        f"serve session closed: {stats.n_requests} request(s), "
        f"{stats.n_submitted} submitted, {stats.n_queries} query(ies), "
        f"{stats.n_errors} error(s)",
        file=sys.stderr,
    )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .dist import QueueVersionError, run_worker

    try:
        stats = run_worker(**_given(args, run_worker))
    except (FileNotFoundError, QueueVersionError) as exc:
        # raised only as the worker starts: no queue, or another version's
        return _usage_error("worker", exc)
    print(
        f"worker {stats.worker_id} exiting ({stats.reason}): "
        f"{stats.shards} shard(s), {stats.cells} simulated cell(s), "
        f"{stats.cached_cells} served from earlier attempts, "
        f"{stats.abandoned} abandoned lease(s)"
    )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from .dist import CellConflictError, MergeVersionError, merge_caches

    try:
        _cells, report = merge_caches(args.inputs, out_path=args.out)
    except (FileNotFoundError, MergeVersionError, CellConflictError) as exc:
        # an input that isn't there, another version's cells, two values for one cell
        return _usage_error("merge", exc)
    print(report.describe())
    print(f"wrote {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    """``repro train``: REINFORCE a backfill policy, save the checkpoint."""
    import json

    from .dist import LocalBroker
    from .learn import TrainConfig, resolve_store, train

    given = _given(args, TrainConfig)
    if "train_seeds" in given:
        given["train_seeds"] = tuple(given["train_seeds"])
    try:
        config = TrainConfig(**given)
    except (KeyError, ValueError) as exc:
        return _usage_error("train", exc)
    with _telemetry(args, "train") as telemetry:
        result = train(
            config, broker=LocalBroker(**_given(args, LocalBroker)), telemetry=telemetry
        )
    store = getattr(args, "store", None)
    path = result.checkpoint.save(store)
    if "json" in args:
        print(
            json.dumps(
                {
                    "digest": result.digest,
                    "path": path,
                    "best_epoch": result.best_epoch,
                    "train_avebsld": result.train_avebsld,
                    "init_avebsld": result.init_avebsld,
                    "history": result.history,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"checkpoint : {result.digest}")
    print(f"saved to   : {path} (store: {resolve_store(store)})")
    print(f"train seeds: {list(config.resolved_train_seeds())}")
    print(
        f"AVEbsld    : {result.train_avebsld:.3f} trained "
        f"(init {result.init_avebsld:.3f}, best epoch {result.best_epoch})"
    )
    if result.history:
        rows = [
            (
                h["epoch"],
                f"{h['mean_return']:.2f}",
                f"{h['greedy_avebsld']:.3f}",
                f"{h['entropy']:.3f}",
                f"{h['grad_norm']:.3f}",
            )
            for h in result.history
        ]
        print(
            format_table(
                ["epoch", "mean return", "greedy AVEbsld", "entropy", "|grad|"],
                rows,
                title="Training history",
            )
        )
    print(
        f"evaluate with: repro eval --policy {result.digest} --log {config.log}"
        + (f" --store {store}" if store else "")
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    """``repro eval``: leaderboard of a trained policy vs heuristics."""
    import json

    from .learn import DEFAULT_STORE_ENV, CheckpointError, PolicyCheckpoint, evaluate_policy

    store = getattr(args, "store", None)
    try:
        PolicyCheckpoint.load_by_digest(args.digest, store=store)
    except CheckpointError as exc:
        return _usage_error("eval", exc)
    # held out: the first seed past the two that `repro train` uses by default
    seeds = getattr(args, "seeds", None) or [stable_seed(args.log) + 2]
    # the store is resolved via the environment, not the spec params, so
    # the learned cells' cache identity stays store-location-free -- for
    # this evaluation only: an in-process caller gets its own value back
    previous = os.environ.get(DEFAULT_STORE_ENV)
    if store:
        os.environ[DEFAULT_STORE_ENV] = store
    try:
        with _telemetry(args, "eval") as telemetry:
            result = evaluate_policy(
                **{**_given(args, evaluate_policy), "seeds": seeds}, telemetry=telemetry
            )
    except SpecFileError as exc:  # a bad size or baseline name, refused before any run
        return _usage_error("eval", exc)
    finally:
        if previous is not None:
            os.environ[DEFAULT_STORE_ENV] = previous
        elif store:
            del os.environ[DEFAULT_STORE_ENV]
    board = result.leaderboard()
    if "json" in args:
        print(
            json.dumps(
                {
                    "policy": args.digest,
                    "log": args.log,
                    "seeds": seeds,
                    "leaderboard": [
                        {
                            "label": row.label,
                            "mean_avebsld": row.mean_score,
                            "n_cells": row.n_cells,
                            "mean_seconds": row.mean_seconds,
                        }
                        for row in board
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"policy {args.digest} on {args.log} seeds {seeds}")
    print(
        format_leaderboard(
            board, title=f"Learned vs heuristic ({args.log})"
        )
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """``repro metrics DIR [DIR2]``: render a directory's counter snapshots
    and event streams, or diff the snapshots of two.  The snapshots'
    Prometheus and JSON forms are the ``metrics-*.prom`` / ``.json``
    files in the directory itself."""
    from . import obs

    if len(args.dirs) > 2:
        return _usage_error("metrics", "takes one directory, or two to diff")
    if len(args.dirs) == 2:
        baseline = obs.load_snapshots(args.dirs[0])
        current = obs.load_snapshots(args.dirs[1])
        if not baseline and not current:
            print(f"no metrics-*.json snapshots under {args.dirs[0]} or {args.dirs[1]}")
            return 1
        print(obs.diff_snapshots(baseline, current))
        return 0
    snapshots = obs.load_snapshots(args.dirs[0])
    # under the tables, what the event streams say of a campaign and its workers
    progress = obs.format_events(obs.load_events(args.dirs[0]))
    if not snapshots and not progress:
        print(f"no metrics-*.json snapshots or event streams under {args.dirs[0]}")
        return 1
    tables = obs.format_snapshots(snapshots) if snapshots else ""
    print("\n\n".join(filter(None, [tables, progress])))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """``repro check``: the static invariant checker (repro.analysis)."""
    from .analysis import find_root, format_text, run_check, write_frozen

    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        return _usage_error("check", f"no such file or directory: {', '.join(missing)}")
    root = find_root(args.paths[0])
    if "update_frozen" in args:
        path = write_frozen(root)
        print(f"frozen digests regenerated: {path}", file=sys.stderr)
    findings, files = run_check(args.paths, root=root)
    if not files:
        return _usage_error("check", f"no .py files under {', '.join(args.paths)}")
    print(format_text(findings, len(files)))
    return 1 if findings else 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.which == "4":
        print(
            format_table(
                ["Name", "Year", "# CPUs", "# Jobs", "Duration"],
                table4_rows(),
                title="Workload logs (paper Table 4; published metadata)",
            )
        )
        return 0
    try:
        if args.which == "8":
            analysis = analyze_predictions(**_given(args, analyze_predictions))
        else:
            cells = paper_cells(**_given(args, paper_cells))
    except SpecFileError as exc:  # a bad size or count, refused before any run
        return _usage_error("table", exc)
    if args.which == "8":
        rows = [
            (name, round(mae), f"{eloss:.3g}") for name, mae, eloss in table8_rows(analysis)
        ]
        print(
            format_table(
                ["Prediction Technique", "MAE (s)", "Mean E-Loss"],
                rows,
                title="Prediction error vs E-Loss (paper Table 8)",
            )
        )
        return 0
    result = _run_cells_from_args(args, cells)
    if args.which == "1":
        rows = [
            (log, easy, clair, format_percent(red))
            for log, easy, clair, red in result.table1_rows()
        ]
        print(
            format_table(
                ["Log", "EASY", "EASY-Clairvoyant", "decrease"],
                rows,
                title="EASY vs clairvoyant EASY (paper Table 1)",
            )
        )
    elif args.which == "6":
        _print_table6(result)
    elif args.which == "7":
        rows = leave_one_out(result)
        consensus, folds = selection_consensus(rows)
        table = [
            (
                row.log,
                f"{row.cv_score:.1f} {format_percent(row.reduction_vs_easy)}",
                f"{row.easy_score:.1f}",
                f"{row.easypp_score:.1f} {format_percent(row.reduction_vs_easypp)}",
            )
            for row in rows
        ]
        print(
            format_table(
                ["Log", "C-V Heuristic triple", "EASY", "EASY++"],
                table,
                title="Cross-validated triple selection (paper Table 7)",
            )
        )
        vs_easy, vs_easypp = average_reductions(rows)
        print(f"\nconsensus triple: {consensus} (selected in {folds}/6 folds)")
        print(f"average reduction vs EASY  : {vs_easy:.0f}% (paper: 28%)")
        print(f"average reduction vs EASY++: {vs_easypp:.0f}% (paper: 11%)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .obs import setup_logging

    setup_logging(verbosity=args.verbose)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
