"""Unit tests for the command-line interface."""

import inspect
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core import analyze_predictions, paper_cells, run_cells
from repro.dist import FsQueueBroker, run_worker
from repro.dist.broker import LocalBroker
from repro.learn import TrainConfig, evaluate_policy
from repro.serve import build_serve_session
from repro.spec import CellSpec, WorkloadSpec
from repro.workload import load_swf

README = str(Path(__file__).resolve().parents[1] / "README.md")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_log_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sim", "--log", "NOPE"])


class TestLogsCommand:
    def test_prints_table4(self, capsys):
        assert main(["table", "--which", "4"]) == 0
        out = capsys.readouterr().out
        for name in ("KTH-SP2", "Curie", "Metacentrum"):
            assert name in out
        assert "80640" in out  # Curie's CPU count


class TestSynthCommand:
    def test_writes_swf(self, tmp_path, capsys):
        out_path = tmp_path / "t.swf"
        assert main(["synth", str(out_path), "--log", "KTH-SP2", "--n-jobs", "80"]) == 0
        trace, report = load_swf(out_path)
        assert len(trace) == 80
        assert "wrote" in capsys.readouterr().out

    def test_omitted_seed_is_derived_and_printed(self, tmp_path, capsys):
        """Every run must be reproducible from its own output: with
        --seed omitted the derived seed is printed, and re-running with
        that seed writes a byte-identical trace."""
        from repro.workload import stable_seed

        first = tmp_path / "a.swf"
        assert main(["synth", str(first), "--log", "Curie", "--n-jobs", "60"]) == 0
        out = capsys.readouterr().out
        derived = stable_seed("Curie")
        assert f"seed {derived}" in out
        assert "derived from log name" in out

        second = tmp_path / "b.swf"
        assert main([
            "synth", str(second), "--log", "Curie", "--n-jobs", "60",
            "--seed", str(derived),
        ]) == 0
        out = capsys.readouterr().out
        assert "from --seed" in out
        assert first.read_bytes() == second.read_bytes()


class TestSimCommand:
    def test_easy_run(self, capsys):
        code = main([
            "sim", "--log", "KTH-SP2", "--n-jobs", "200",
            "--predictor", "requested", "--scheduler", "easy",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "AVEbsld" in out
        assert "EASY (standard)" in out

    def test_ml_run_with_correction(self, capsys):
        code = main([
            "sim", "--log", "Curie", "--n-jobs", "200",
            "--predictor", "ml:sq-lin-large-area",
            "--corrector", "incremental", "--scheduler", "easy-sjbf",
        ])
        assert code == 0
        assert "winner" in capsys.readouterr().out

    def test_omitted_seed_is_derived_and_printed(self, capsys):
        from repro.workload import stable_seed

        assert main(["sim", "--log", "KTH-SP2", "--n-jobs", "120"]) == 0
        out = capsys.readouterr().out
        assert f"seed       : {stable_seed('KTH-SP2')} (derived from log name)" in out

    def test_explicit_seed_reproduces(self, capsys):
        args = ["sim", "--log", "KTH-SP2", "--n-jobs", "120", "--seed", "77"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "seed       : 77 (from --seed)" in first
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestDefaultsLiveInTheCallee:
    """A bare command parses to a namespace with none of its callees'
    parameters, so each default is the callee's alone; only the defaults
    no callee has (and what the command requires) are set."""

    @pytest.mark.parametrize(
        "argv, callees, cli_only",
        [
            (["synth", "out.swf", "--log", "KTH-SP2"], [WorkloadSpec.make], {"log"}),
            (["sim", "--log", "KTH-SP2"], [WorkloadSpec.make, CellSpec.make],
             {"log", "predictor", "corrector", "scheduler"}),
            (["campaign"], [paper_cells, run_cells, FsQueueBroker], {"backend"}),
            (["serve", "--processors", "8"], [build_serve_session], {"processors"}),
            (["worker", "--queue", "q"], [run_worker], {"queue_dir"}),
            (["train"], [TrainConfig, LocalBroker], {"log"}),
            (["eval", "--policy", "x"], [evaluate_policy], {"digest", "log"}),
            (["table", "--which", "1"], [paper_cells, run_cells, analyze_predictions], set()),
        ],
        ids=["synth", "sim", "campaign", "serve", "worker", "train", "eval", "table"],
    )
    def test_bare_command_restates_no_default(self, argv, callees, cli_only):
        namespace = vars(build_parser().parse_args(argv))
        params = {name for callee in callees for name in inspect.signature(callee).parameters}
        assert namespace.keys() & params <= cli_only


@pytest.fixture(scope="class")
def refusal_inputs(tmp_path_factory):
    """What the refusal rows name: a saved policy, a cache from another
    code version, and two caches that disagree on one cell."""
    from repro.core.campaign import CACHE_VERSION
    from repro.learn import train
    from repro.sim.engine import ENGINE_VERSION

    root = tmp_path_factory.mktemp("refusals")
    store = str(root / "store")
    policy = train(TrainConfig(log="KTH-SP2", n_jobs=60, replicas=1, epochs=0))
    policy.checkpoint.save(store)
    token = f"v{CACHE_VERSION}|e{ENGINE_VERSION}|x"
    caches = {
        "stale": [("v0|e0|x", 1.0)],
        "conflict_a": [(token, 1.0)],
        "conflict_b": [(token, 2.0)],
    }
    for name, rows in caches.items():
        (root / f"{name}.jsonl").write_text(
            "".join(json.dumps({"token": t, "value": v}) + "\n" for t, v in rows)
        )
    return {
        "policy": policy.digest,
        "store": store,
        **{name: str(root / f"{name}.jsonl") for name in caches},
        "out": str(root / "merged.jsonl"),
    }


class TestUsageErrors:
    """Bad names, numbers, spec files and option combinations: exit 2, one
    line, no traceback."""

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["sim", "--log", "KTH-SP2", "--predictor", "galactic"],
             "unknown predictor 'galactic'"),
            (["sim", "--log", "KTH-SP2", "--corrector", "nope"], "unknown corrector"),
            (["sim", "--log", "KTH-SP2", "--scheduler", "nope"], "unknown scheduler"),
            (["sim", "--log", "KTH-SP2", "--n-jobs", "0"], "n_jobs must be positive"),
            (["sim", "--log", "KTH-SP2", "--tau", "-1"], "tau must be positive"),
            (["campaign", "--logs", "KTH-SP2", "--n-jobs", "40", "--replicas", "0"],
             "replicas must be an integer >= 1"),
            (["campaign", "--logs", "NOPE", "--n-jobs", "40"], "unknown log(s)"),
            (["campaign", "--logs", "KTH-SP2", "--n-jobs", "0"],
             "n_jobs must be positive"),
            (["campaign", "--spec", "/no/such/spec.toml"], "/no/such/spec.toml"),
            (["table", "--which", "6", "--replicas", "0"],
             "replicas must be an integer >= 1"),
            (["metrics", "a", "b", "c"], "one directory, or two to diff"),
            (["check", "srcx"], "no such file or directory: srcx"),
            (["campaign", "--backend", "fsqueue", "--logs", "KTH-SP2",
              "--n-jobs", "50", "--replicas", "1"], "requires --queue"),
            # spellings of components that left the registry are not lowered
            (["sim", "--log", "KTH-SP2", "--predictor", "quantile0.25"],
             "unknown predictor 'quantile0.25'; known: ave, clairvoyant, ml, requested"),
            (["sim", "--log", "KTH-SP2", "--scheduler", "multifactor"],
             "unknown scheduler 'multifactor'; known: "),
            (["sim", "--log", "KTH-SP2", "--scheduler", "easy-saf"],
             "unknown scheduler 'easy-saf'; known: "),
            # a bad path, number or name turned into an object by other commands
            (["spec", "expand", "no.toml"], "no.toml"),
            (["merge", "--out", "m.jsonl", "/nonexistent"], "'/nonexistent' does not exist"),
            (["synth", "--log", "KTH-SP2", "--n-jobs", "-5", "x.swf"],
             "n_jobs must be positive"),
            (["serve", "--processors", "0"], "must have > 0 processors"),
            (["serve", "--processors", "8", "--scheduler", "nope"],
             "unknown scheduler 'nope'"),
            (["eval", "--policy", "deadbeef"], "no checkpoint 'deadbeef'"),
            (["check", README], "no .py files under"),
            # refused by name before any work starts, as the rows above are
            (["table", "--which", "8", "--n-jobs", "0"], "n_jobs must be positive"),
            (["train", "--n-jobs", "0"], "n_jobs must be positive"),
            (["train", "--replicas", "0"], "training needs at least one train seed"),
            (["train", "--predictor", "nosuch"], "unknown predictor 'nosuch'"),
            (["eval", "--policy", "{policy}", "--store", "{store}", "--n-jobs", "0"],
             "n_jobs must be positive"),
            (["eval", "--policy", "{policy}", "--store", "{store}", "--baselines", "nosuch"],
             "unknown scheduler 'nosuch'"),
            (["worker", "--queue", "/nonexistent/queue", "--max-idle", "0"], "no queue at"),
            (["merge", "--out", "{out}", "{stale}"], "CACHE_VERSION/ENGINE_VERSION"),
            (["merge", "--out", "{out}", "{conflict_a}", "{conflict_b}"],
             "has conflicting values"),
        ],
    )
    def test_exits_2_with_one_line(self, argv, needle, refusal_inputs, capsys):
        argv = [arg.format(**refusal_inputs) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {argv[0]}: ")
        assert needle in lines[0]

    def test_spec_file_with_zero_replicas_rejected(self, tmp_path, capsys):
        path = tmp_path / "zero.toml"
        path.write_text(MINI_SPEC.replace("replicas = 1", "replicas = 0"))
        assert main(["campaign", "--spec", str(path)]) == 2
        assert "replicas must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, needle",
        [
            ("replicas = 1", 'replicas = 1\nfilters = [{ name = "drop-flurries" }]',
             "unknown filter 'drop-flurries'; known: max-width"),
            ('predictor = ["requested"]', 'predictor = ["quantile0.5"]',
             "unknown predictor 'quantile0.5'; known: ave, clairvoyant, ml, requested"),
            ('"easy-sjbf"]', '"easy-narrow"]', "unknown scheduler 'easy-narrow'; known: "),
        ],
        ids=["drop-flurries", "quantile", "easy-narrow"],
    )
    def test_spec_file_with_a_removed_component_rejected(self, old, new, needle,
                                                         tmp_path, capsys):
        path = tmp_path / "removed.toml"
        path.write_text(MINI_SPEC.replace(old, new))
        assert main(["campaign", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("repro campaign: ")
        assert needle in captured.err


MINI_SPEC = """
[campaign]
name = "cli-mini"
logs = ["KTH-SP2"]
n_jobs = 60
replicas = 1

[[grid]]
predictor = ["requested"]
corrector = ["none"]
scheduler = ["easy", "easy-sjbf"]
"""


class TestSpecCommands:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "mini.toml"
        path.write_text(MINI_SPEC)
        assert main(["spec", "validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "2 cell(s)" in out

    def test_validate_reports_failures_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text("[campaign]\nlogs = [\"KTH-SP2\"]\n[[grid]]\npredictor = [\"warp-drive\"]\nscheduler = [\"easy\"]\n")
        assert main(["spec", "validate", str(bad)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_expand_keys(self, tmp_path, capsys):
        path = tmp_path / "mini.toml"
        path.write_text(MINI_SPEC)
        assert main(["spec", "expand", str(path), "--format", "keys"]) == 0
        out = capsys.readouterr().out
        assert "requested|none|easy" in out
        assert "requested|none|easy-sjbf" in out

    def test_expand_checked_in_paper_spec(self, capsys):
        assert main(["spec", "expand", "experiments/paper.toml", "--format", "keys"]) == 0
        out = capsys.readouterr().out
        assert "requested|none|easy" in out
        assert "130 unique triple key(s)" in out

    def test_campaign_with_spec_file(self, tmp_path, capsys):
        path = tmp_path / "mini.toml"
        path.write_text(MINI_SPEC)
        cache = tmp_path / "cache.jsonl"
        assert main([
            "campaign", "--spec", str(path), "--cache", str(cache), "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        # not the full paper matrix -> leaderboard fallback
        assert "Scenario leaderboard" in out
        assert "mean s/cell" in out  # timing column from this run's durations
        assert cache.exists()


class TestVersionAndMetrics:
    def test_version_reports_all_version_fences(self, capsys):
        from repro import __version__
        from repro.core.campaign import CACHE_VERSION
        from repro.sim.engine import ENGINE_VERSION

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert f"repro {__version__}" in out
        assert f"engine v{ENGINE_VERSION}" in out
        assert f"cache v{CACHE_VERSION}" in out

    def test_sim_telemetry_then_metrics_render(self, tmp_path, capsys):
        tele_dir = tmp_path / "tele"
        assert main([
            "sim", "--log", "KTH-SP2", "--n-jobs", "60",
            "--telemetry", str(tele_dir),
        ]) == 0
        capsys.readouterr()
        assert (tele_dir / "metrics-sim.json").exists()
        assert (tele_dir / "metrics-sim.prom").exists()
        assert main(["metrics", str(tele_dir)]) == 0
        out = capsys.readouterr().out
        assert "== sim ==" in out
        assert "engine.events.submit" in out

    def test_metrics_prom_and_json_formats(self, tmp_path, capsys):
        """The snapshot's Prometheus and JSON forms are files beside it."""
        tele_dir = tmp_path / "tele"
        assert main([
            "sim", "--log", "KTH-SP2", "--n-jobs", "60",
            "--telemetry", str(tele_dir),
        ]) == 0
        assert "repro_engine_events_submit_total" in (tele_dir / "metrics-sim.prom").read_text()
        snap = json.loads((tele_dir / "metrics-sim.json").read_text())
        assert snap["component"] == "sim"

    def test_metrics_diff_between_two_runs(self, tmp_path, capsys):
        before, after = tmp_path / "before", tmp_path / "after"
        for directory, n_jobs in ((before, "40"), (after, "80")):
            assert main([
                "sim", "--log", "KTH-SP2", "--n-jobs", n_jobs,
                "--telemetry", str(directory),
            ]) == 0
        capsys.readouterr()
        assert main(["metrics", str(before), str(after)]) == 0
        out = capsys.readouterr().out
        assert "== sim (delta) ==" in out
        assert "engine.events.submit" in out and "+40" in out

    def test_metrics_empty_directory_fails(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path)]) == 1
        assert "no metrics-" in capsys.readouterr().out

    def test_metrics_renders_the_campaign_under_the_tables(self, tmp_path, capsys):
        path = tmp_path / "mini.toml"
        path.write_text(MINI_SPEC)
        tele_dir = tmp_path / "tele"
        assert main([
            "campaign", "--spec", str(path), "--workers", "1",
            "--telemetry", str(tele_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["metrics", str(tele_dir)]) == 0
        out = capsys.readouterr().out
        tables, _, progress = out.partition("campaign: 2 cells (0 cached, 2 to simulate)")
        assert "== campaign ==" in tables and "campaign.cells.simulated" in tables
        assert "simulated: 2/2" in progress
        assert "  KTH-SP2: 2 cells" in progress
        assert "finished in" in progress
        # the machine-readable form beside it carries the snapshot alone
        prom = (tele_dir / "metrics-campaign.prom").read_text()
        assert 'repro_campaign_cells_simulated_total{component="campaign"} 2' in prom
        assert "simulated: 2/2" not in prom

    def test_campaign_telemetry_covers_engine_and_campaign(self, tmp_path, capsys):
        path = tmp_path / "mini.toml"
        path.write_text(MINI_SPEC)
        tele_dir = tmp_path / "tele"
        assert main([
            "campaign", "--spec", str(path), "--workers", "1",
            "--telemetry", str(tele_dir),
        ]) == 0
        capsys.readouterr()
        import json as jsonlib

        snap = jsonlib.loads((tele_dir / "metrics-campaign.json").read_text())
        assert snap["counters"]["campaign.cells.simulated"] == 2
        assert snap["counters"]["engine.cells"] == 2  # folded in from the cells
        assert "campaign.cell.seconds" in snap["histograms"]
        # the dispatch span and the lifecycle events are one stream
        trace_lines = (tele_dir / "trace-campaign.jsonl").read_text().splitlines()
        kinds = [jsonlib.loads(line)["kind"] for line in trace_lines]
        assert kinds == ["start", "cell", "cell", "span", "end"]


class TestDistCommands:
    def test_worker_requires_queue(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])

    def test_campaign_fsqueue_requires_queue(self, capsys):
        code = main([
            "campaign", "--backend", "fsqueue",
            "--logs", "KTH-SP2", "--n-jobs", "50", "--replicas", "1",
        ])
        assert code == 2
        assert "--queue" in capsys.readouterr().err

    def test_worker_drains_prepared_queue(self, tmp_path, capsys):
        """A worker pointed at a pre-enqueued queue completes the shard
        and exits on the idle budget."""
        from repro.dist import FsQueue, plan_shards
        from repro.spec import CellSpec

        queue = FsQueue.create(str(tmp_path / "q"), lease_ttl=60.0)
        cells = [CellSpec.from_triple("KTH-SP2", "requested|none|easy", n_jobs=60)]
        for shard in plan_shards(cells, n_shards=1):
            queue.enqueue(shard.manifest())
        code = main([
            "worker", "--queue", str(tmp_path / "q"),
            "--worker-id", "t1", "--poll", "0.05", "--max-idle", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 shard(s), 1 simulated cell(s)" in out
        assert queue.done_ids() == {"shard-0000"}
        # no --telemetry: the worker's stream is in the queue all the same,
        # and `repro metrics` reads it (one line per worker)
        assert main(["metrics", str(tmp_path / "q" / "progress")]) == 0
        out = capsys.readouterr().out
        assert "  worker-t1: 1 cell(s), 1/1 shard(s) done, exited (idle)" in out
        assert "cells simulated across workers: 1" in out
        # without --telemetry the streams are all there is: no snapshot
        # files, so nothing for a Prometheus scrape to pick up
        assert not list((tmp_path / "q" / "progress").glob("metrics-*"))

    def test_merge_command(self, tmp_path, capsys):
        import json as jsonlib

        from repro.core.campaign import CACHE_VERSION
        from repro.sim.engine import ENGINE_VERSION

        token = f"v{CACHE_VERSION}|e{ENGINE_VERSION}|x"
        src = tmp_path / "shard.jsonl"
        src.write_text(jsonlib.dumps({"token": token, "value": 1.0}) + "\n")
        out = tmp_path / "merged.jsonl"
        assert main(["merge", "--out", str(out), str(src)]) == 0
        assert "1 unique cells" in capsys.readouterr().out
        assert out.exists()


class TestEvalStore:
    @pytest.mark.parametrize("preset", [None, "/some/other/store"])
    def test_store_option_does_not_leak_into_the_caller(
        self, preset, tmp_path, monkeypatch, capsys
    ):
        """``--store`` reaches the learned cell through the environment (so
        cache identity stays store-location-free) -- for the evaluation
        only: the process gets its own value, or its absence, back."""
        import os

        from repro.learn import DEFAULT_STORE_ENV, TrainConfig, train

        trained = train(
            TrainConfig(log="KTH-SP2", n_jobs=100, replicas=1, epochs=1, episodes=2, seed=3)
        )
        store = str(tmp_path / "store")
        trained.checkpoint.save(store)
        if preset is None:
            monkeypatch.delenv(DEFAULT_STORE_ENV, raising=False)
        else:
            monkeypatch.setenv(DEFAULT_STORE_ENV, preset)
        before = dict(os.environ)
        code = main([
            "eval", "--policy", trained.digest, "--store", store, "--log", "KTH-SP2",
            "--n-jobs", "100", "--workers", "1", "--baselines", "easy", "--json",
        ])
        assert code == 0
        assert "rl-backfill" in capsys.readouterr().out  # it did find the store
        assert dict(os.environ) == before
        # ... and on the way out of a failing evaluation too (a cache path
        # that is a directory fails inside it, after the store is set)
        with pytest.raises(IsADirectoryError):
            main([
                "eval", "--policy", trained.digest, "--store", store,
                "--cache", str(tmp_path), "--workers", "1",
            ])
        assert dict(os.environ) == before
        # an unknown digest is refused before the environment is touched
        assert main(["eval", "--policy", "0" * 16, "--store", store]) == 2
        assert store in capsys.readouterr().err
        assert dict(os.environ) == before


class TestTableCommands:
    def test_table4(self, capsys):
        assert main(["table", "--which", "4"]) == 0
        assert "Table 4" in capsys.readouterr().out

    def test_table1_small(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        code = main([
            "table", "--which", "1", "--n-jobs", "150", "--replicas", "1",
            "--cache", str(cache),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "EASY-Clairvoyant" in out
        assert cache.exists()

    def test_table8_small(self, capsys):
        assert main(["table", "--which", "8", "--n-jobs", "300"]) == 0
        out = capsys.readouterr().out
        assert "AVE2" in out
        assert "E-Loss" in out
