"""Command-line interface.

Subcommands::

    repro logs                       # list the archive logs (Table 4)
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
    repro table --which 1|6|7|8      # print a paper table reproduction
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
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .core import (
    TRIPLE_NAMES,
    analyze_predictions,
    average_reductions,
    leave_one_out,
    paper_cells,
    run_cells,
    run_spec,
    selection_consensus,
    table8_rows,
)
from .core.reporting import format_leaderboard, format_percent, format_table
from .spec import CellSpec, SpecFileError, WorkloadSpec, validate_spec_file
from .workload import LOG_NAMES, get_trace, save_swf, stable_seed, table4_rows

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
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)  # main() calls it with the parsed namespace
        return p

    command("logs", _cmd_logs, "list the archive logs (paper Table 4)")

    p_synth = command("synth", _cmd_synth, "write a synthetic SWF trace")
    p_synth.add_argument("output", help="output .swf path")
    p_synth.add_argument("--log", required=True, choices=LOG_NAMES)
    p_synth.add_argument("--n-jobs", type=int, default=2000)
    p_synth.add_argument("--seed", type=int, default=None)

    p_sim = command("sim", _cmd_sim, "run one heuristic triple on one log")
    p_sim.add_argument("--log", required=True, choices=LOG_NAMES)
    p_sim.add_argument("--n-jobs", type=int, default=2000)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--predictor", default="requested")
    p_sim.add_argument("--corrector", default="none")
    p_sim.add_argument("--scheduler", default="easy")
    p_sim.add_argument("--tau", type=float, default=10.0)
    p_sim.add_argument("--telemetry", default=None, metavar="DIR", help=_TELEMETRY_HELP)

    p_camp = command(
        "campaign", _cmd_campaign,
        "run the paper's 128-triple campaign, or any experiment spec file",
    )
    p_camp.add_argument(
        "--spec",
        default=None,
        help="run the cells expanded from this experiment spec file "
        "(TOML/JSON) instead of the paper grid over --logs/--n-jobs/--replicas",
    )
    p_camp.add_argument("--logs", nargs="*", default=list(LOG_NAMES))
    p_camp.add_argument("--n-jobs", type=int, default=2000)
    p_camp.add_argument("--replicas", type=int, default=3)
    p_camp.add_argument("--cache", default=None, help="JSONL result-cache path")
    p_camp.add_argument("--workers", type=int, default=None)
    p_camp.add_argument(
        "--backend",
        choices=["local", "fsqueue"],
        default="local",
        help="dispatch: this host's process pool, or coordinate "
        "`repro worker` processes over a shared queue directory",
    )
    p_camp.add_argument(
        "--queue", default=None, help="fsqueue: the shared queue directory"
    )
    p_camp.add_argument(
        "--shards", type=int, default=None,
        help="fsqueue: fixed shard count (default: ~16 cells per shard)",
    )
    p_camp.add_argument(
        "--lease-ttl", type=float, default=300.0,
        help="fsqueue: seconds without heartbeat before a shard is re-queued",
    )
    p_camp.add_argument(
        "--max-attempts", type=int, default=3,
        help="fsqueue: attempts per shard before the campaign fails",
    )
    p_camp.add_argument(
        "--dist-timeout", type=float, default=None,
        help="fsqueue: give up after this many seconds without completion",
    )
    p_camp.add_argument("--telemetry", default=None, metavar="DIR", help=_TELEMETRY_HELP)

    p_serve = command(
        "serve", _cmd_serve,
        "long-running simulation session speaking JSONL on stdin/stdout",
    )
    p_serve.add_argument(
        "--processors", type=int, required=True, help="machine size to serve"
    )
    p_serve.add_argument("--scheduler", default="easy-sjbf")
    p_serve.add_argument("--predictor", default="ave2")
    p_serve.add_argument("--corrector", default="incremental")
    p_serve.add_argument("--min-prediction", type=float, default=60.0)
    p_serve.add_argument("--name", default="serve", help="session/trace label")
    p_serve.add_argument("--telemetry", default=None, metavar="DIR", help=_TELEMETRY_HELP)

    p_worker = command(
        "worker", _cmd_worker, "claim and simulate shards from a campaign queue"
    )
    p_worker.add_argument("--queue", required=True, help="the shared queue directory")
    p_worker.add_argument("--worker-id", default=None, help="default: <host>-<pid>")
    p_worker.add_argument("--poll", type=float, default=0.5, help="claim poll seconds")
    p_worker.add_argument(
        "--max-idle", type=float, default=None,
        help="exit after this many idle seconds (default: wait for DONE/STOP)",
    )
    p_worker.add_argument(
        "--max-shards", type=int, default=None, help="exit after completing N shards"
    )
    p_worker.add_argument(
        "--telemetry", default=None, metavar="DIR", help=_TELEMETRY_HELP
    )

    p_merge = command(
        "merge", _cmd_merge, "merge shard result caches into one canonical cache"
    )
    p_merge.add_argument(
        "inputs", nargs="+",
        help="shard cache files and/or directories of *.jsonl (e.g. QUEUE/results)",
    )
    p_merge.add_argument("--out", required=True, help="canonical merged cache path")
    p_merge.add_argument(
        "--no-version-check", action="store_true",
        help="accept cells from other CACHE_VERSION/ENGINE_VERSION codes (unsafe)",
    )

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
    p_expand.add_argument(
        "--limit", type=int, default=None, help="print at most N entries"
    )

    p_train = command(
        "train", _cmd_train, "train a backfilling policy (REINFORCE) and checkpoint it"
    )
    p_train.add_argument("--log", default="KTH-SP2", choices=LOG_NAMES)
    p_train.add_argument("--n-jobs", type=int, default=500)
    p_train.add_argument(
        "--replicas", type=int, default=2,
        help="training trace seeds: stable_seed(log) + 0..N-1",
    )
    p_train.add_argument(
        "--train-seeds", type=int, nargs="*", default=None,
        help="pin the training trace seeds explicitly (overrides --replicas)",
    )
    p_train.add_argument("--epochs", type=int, default=4)
    p_train.add_argument(
        "--episodes", type=int, default=8, help="sampled episodes per epoch"
    )
    p_train.add_argument("--lr", type=float, default=0.05)
    p_train.add_argument("--temperature", type=float, default=1.0)
    p_train.add_argument(
        "--seed", type=int, default=0, help="master seed for action noise"
    )
    p_train.add_argument("--predictor", default="ave2")
    p_train.add_argument("--corrector", default="incremental")
    p_train.add_argument("--min-prediction", type=float, default=60.0)
    p_train.add_argument("--tau", type=float, default=10.0)
    p_train.add_argument(
        "--store", default=None,
        help="checkpoint directory (default: $REPRO_CHECKPOINT_DIR or ./checkpoints)",
    )
    p_train.add_argument(
        "--workers", type=int, default=None, help="parallel rollout workers"
    )
    p_train.add_argument("--json", action="store_true", help="machine-readable summary")
    p_train.add_argument("--telemetry", default=None, metavar="DIR", help=_TELEMETRY_HELP)

    p_eval = command(
        "eval", _cmd_eval,
        "rank a trained policy against heuristic baselines (leaderboard)",
    )
    p_eval.add_argument("--policy", required=True, help="checkpoint digest to evaluate")
    p_eval.add_argument(
        "--store", default=None,
        help="checkpoint directory (default: $REPRO_CHECKPOINT_DIR or ./checkpoints)",
    )
    p_eval.add_argument("--log", default="KTH-SP2", choices=LOG_NAMES)
    p_eval.add_argument("--n-jobs", type=int, default=500)
    p_eval.add_argument(
        "--seeds", type=int, nargs="*", default=None,
        help="evaluation trace seeds (default: one held-out seed per --replicas)",
    )
    p_eval.add_argument(
        "--replicas", type=int, default=1,
        help="without --seeds: evaluate on stable_seed(log)+offset..+offset+N-1",
    )
    p_eval.add_argument(
        "--holdout-offset", type=int, default=2,
        help="without --seeds: first evaluation seed is stable_seed(log)+OFFSET "
        "(keep it >= the training replicas so evaluation is held out)",
    )
    p_eval.add_argument("--predictor", default="ave2")
    p_eval.add_argument("--corrector", default="incremental")
    p_eval.add_argument("--min-prediction", type=float, default=60.0)
    p_eval.add_argument("--tau", type=float, default=10.0)
    p_eval.add_argument(
        "--baselines", nargs="*", default=["easy", "easy-sjbf"],
        help="heuristic schedulers to rank against",
    )
    p_eval.add_argument("--cache", default=None, help="JSONL result-cache path")
    p_eval.add_argument("--workers", type=int, default=None)
    p_eval.add_argument("--json", action="store_true", help="machine-readable leaderboard")
    p_eval.add_argument("--telemetry", default=None, metavar="DIR", help=_TELEMETRY_HELP)

    p_metrics = command(
        "metrics", _cmd_metrics,
        "render a --telemetry DIR or a queue's progress/: counter snapshots, "
        "campaign and worker progress",
    )
    p_metrics.add_argument(
        "dirs", nargs="+", metavar="DIR",
        help="one directory to render, or two to diff (before after)",
    )
    p_metrics.add_argument(
        "--format", choices=["text", "prom", "json"], default="text",
        help="single-directory rendering: human text, Prometheus "
        "exposition, or raw snapshot JSON",
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
    p_table.add_argument("--n-jobs", type=int, default=2000)
    p_table.add_argument("--replicas", type=int, default=3)
    p_table.add_argument("--cache", default=None)
    p_table.add_argument("--workers", type=int, default=None)
    return parser


def _cmd_logs(_args: argparse.Namespace | None = None) -> int:
    rows = table4_rows()
    print(
        format_table(
            ["Name", "Year", "# CPUs", "# Jobs", "Duration"],
            rows,
            title="Workload logs (paper Table 4; published metadata)",
        )
    )
    return 0


def _resolve_seed(args: argparse.Namespace) -> tuple[int, bool]:
    """The run's seed and whether it was derived (``--seed`` omitted).

    Derived seeds use :func:`repro.workload.stable_seed`, the same
    default the campaign uses -- and are *printed*, so every CLI run is
    reproducible from its own output.
    """
    if args.seed is not None:
        return args.seed, False
    return stable_seed(args.log), True


@contextlib.contextmanager
def _telemetry(args: argparse.Namespace, component: str):
    """The command's registry under ``--telemetry DIR``, else ``None``.

    It traces into ``DIR/trace-<component>.jsonl`` as the block runs; the
    counter snapshot lands when the block is left, normally or not.
    """
    directory = getattr(args, "telemetry", None)
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
    seed, derived = _resolve_seed(args)
    try:
        trace = get_trace(args.log, n_jobs=args.n_jobs, seed=seed)
    except ValueError as exc:
        return _usage_error("synth", exc)
    save_swf(trace, args.output)
    stats = trace.stats()
    origin = "derived from log name; pass --seed to override" if derived else "from --seed"
    print(f"seed {seed} ({origin})")
    print(f"wrote {args.output}: {stats.describe()}")
    return 0


def _usage_error(command: str, exc: Exception | str) -> int:
    """A bad name, number, spec file or option combination from the command
    line: one line on stderr, exit status 2 (argparse's own usage-error
    status)."""
    message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
    print(f"repro {command}: {message}", file=sys.stderr)
    return 2


def _cmd_sim(args: argparse.Namespace) -> int:
    seed, derived = _resolve_seed(args)
    try:
        spec = CellSpec.make(
            WorkloadSpec.make(args.log, n_jobs=args.n_jobs, seed=seed),
            args.predictor,
            args.corrector,
            args.scheduler,
            tau=args.tau,
        )
    except (KeyError, ValueError) as exc:
        return _usage_error("sim", exc)
    with _telemetry(args, "sim") as telemetry:
        result = run_spec(spec, telemetry=telemetry)
    origin = "derived from log name" if derived else "from --seed"
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
    backend = None
    if getattr(args, "backend", "local") == "fsqueue":
        from .dist import FsQueueBroker

        backend = FsQueueBroker(
            args.queue,
            n_shards=args.shards,
            lease_ttl=args.lease_ttl,
            max_attempts=args.max_attempts,
            timeout=args.dist_timeout,
        )
    with _telemetry(args, "campaign") as telemetry:
        return run_cells(
            cells,
            cache_path=args.cache,
            workers=args.workers,
            backend=backend,
            telemetry=telemetry,
        )


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
    if args.backend == "fsqueue" and not args.queue:
        return _usage_error("campaign", "--backend fsqueue requires --queue DIR")
    try:
        if args.spec:
            name, cells = validate_spec_file(args.spec)
            print(f"spec {args.spec} ({name}): {len(cells)} cell(s)")
        else:
            name = "paper-sc15"
            cells = paper_cells(args.logs, n_jobs=args.n_jobs, replicas=args.replicas)
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
    shown = entries if args.limit is None else entries[: args.limit]
    for entry in shown:
        print(entry)
    if len(shown) < len(entries):
        print(f"... ({len(entries) - len(shown)} more)")
    print(f"# {name}: {len(cells)} cell(s), {len(triple_keys_of(cells))} unique triple key(s)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: JSONL protocol loop over one live SimSession."""
    from .serve import build_serve_session, serve_loop

    with _telemetry(args, "serve") as telemetry:
        try:
            session = build_serve_session(
                processors=args.processors,
                scheduler=args.scheduler,
                predictor=args.predictor,
                corrector=args.corrector,
                min_prediction=args.min_prediction,
                name=args.name,
                telemetry=telemetry,
            )
        except (KeyError, ValueError) as exc:
            return _usage_error("serve", exc)
        print(
            f"serving m={args.processors} scheduler={args.scheduler} "
            f"predictor={args.predictor} corrector={args.corrector}; "
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
    from .dist import run_worker

    stats = run_worker(
        args.queue,
        worker_id=args.worker_id,
        poll_interval=args.poll,
        max_idle=args.max_idle,
        max_shards=args.max_shards,
        telemetry_dir=args.telemetry,
    )
    print(
        f"worker {stats.worker_id} exiting ({stats.reason}): "
        f"{stats.shards} shard(s), {stats.cells} simulated cell(s), "
        f"{stats.cached_cells} served from earlier attempts, "
        f"{stats.abandoned} abandoned lease(s)"
    )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from .dist import merge_caches

    try:
        _cells, report = merge_caches(
            args.inputs,
            out_path=args.out,
            check_versions=not args.no_version_check,
        )
    except FileNotFoundError as exc:  # an input or --out path that isn't there
        return _usage_error("merge", exc)
    print(report.describe())
    print(f"wrote {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    """``repro train``: REINFORCE a backfill policy, save the checkpoint."""
    import json

    from .dist import LocalBroker
    from .learn import TrainConfig, resolve_store, train

    config = TrainConfig(
        log=args.log,
        n_jobs=args.n_jobs,
        replicas=args.replicas,
        train_seeds=tuple(args.train_seeds) if args.train_seeds else None,
        epochs=args.epochs,
        episodes=args.episodes,
        lr=args.lr,
        temperature=args.temperature,
        seed=args.seed,
        predictor=args.predictor,
        corrector=args.corrector,
        min_prediction=args.min_prediction,
        tau=args.tau,
    )
    with _telemetry(args, "train") as telemetry:
        result = train(
            config, broker=LocalBroker(workers=args.workers), telemetry=telemetry
        )
    path = result.checkpoint.save(args.store)
    if args.json:
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
    print(f"saved to   : {path} (store: {resolve_store(args.store)})")
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
        f"evaluate with: repro eval --policy {result.digest} --log {args.log}"
        + (f" --store {args.store}" if args.store else "")
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    """``repro eval``: leaderboard of a trained policy vs heuristics."""
    import json

    from .learn import DEFAULT_STORE_ENV, CheckpointError, PolicyCheckpoint, evaluate_policy

    try:
        PolicyCheckpoint.load_by_digest(args.policy, store=args.store)
    except CheckpointError as exc:
        return _usage_error("eval", exc)
    if args.seeds:
        seeds = [int(s) for s in args.seeds]
    else:
        base = stable_seed(args.log) + args.holdout_offset
        seeds = [base + r for r in range(args.replicas)]
    # the store is resolved via the environment, not the spec params, so
    # the learned cells' cache identity stays store-location-free -- for
    # this evaluation only: an in-process caller gets its own value back
    previous = os.environ.get(DEFAULT_STORE_ENV)
    if args.store:
        os.environ[DEFAULT_STORE_ENV] = args.store
    try:
        with _telemetry(args, "eval") as telemetry:
            result = evaluate_policy(
                args.policy,
                args.log,
                seeds=seeds,
                n_jobs=args.n_jobs,
                predictor=args.predictor,
                corrector=args.corrector,
                min_prediction=args.min_prediction,
                tau=args.tau,
                baselines=args.baselines,
                cache_path=args.cache,
                workers=args.workers,
                telemetry=telemetry,
            )
    finally:
        if previous is not None:
            os.environ[DEFAULT_STORE_ENV] = previous
        elif args.store:
            del os.environ[DEFAULT_STORE_ENV]
    board = result.leaderboard()
    if args.json:
        print(
            json.dumps(
                {
                    "policy": args.policy,
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
    print(f"policy {args.policy} on {args.log} seeds {seeds}")
    print(
        format_leaderboard(
            board, title=f"Learned vs heuristic ({args.log})"
        )
    )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """``repro metrics DIR [DIR2]``: render a directory's counter snapshots
    and event streams, or diff the snapshots of two."""
    import json

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
    # under the tables, what the event streams say of a campaign and its
    # workers; the machine-readable formats carry snapshots only
    progress = obs.format_events(obs.load_events(args.dirs[0]))
    if not snapshots and not progress:
        print(f"no metrics-*.json snapshots or event streams under {args.dirs[0]}")
        return 1
    if not snapshots and args.format != "text":
        print(
            f"no metrics-*.json snapshots under {args.dirs[0]}: --format "
            f"{args.format} carries snapshots only, the event streams there "
            "render as text"
        )
        return 1
    if args.format == "prom":
        print("\n".join(obs.prom_text(snap) for snap in snapshots))
    elif args.format == "json":
        print(json.dumps(snapshots, indent=2, sort_keys=True))
    else:
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
    if args.update_frozen:
        path = write_frozen(root)
        print(f"frozen digests regenerated: {path}", file=sys.stderr)
    findings, files = run_check(args.paths, root=root)
    if not files:
        return _usage_error("check", f"no .py files under {', '.join(args.paths)}")
    print(format_text(findings, len(files)))
    return 1 if findings else 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.which == "4":
        return _cmd_logs()
    if args.which == "8":
        analysis, _result, procs = analyze_predictions(n_jobs=args.n_jobs)
        rows = [
            (name, round(mae), f"{eloss:.3g}")
            for name, mae, eloss in table8_rows(analysis, procs)
        ]
        print(
            format_table(
                ["Prediction Technique", "MAE (s)", "Mean E-Loss"],
                rows,
                title="Prediction error vs E-Loss (paper Table 8)",
            )
        )
        return 0

    try:
        cells = paper_cells(n_jobs=args.n_jobs, replicas=args.replicas)
    except SpecFileError as exc:
        return _usage_error("table", exc)
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
