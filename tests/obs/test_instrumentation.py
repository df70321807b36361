"""Telemetry threaded through the engine and campaign layers.

The load-bearing property: instrumentation *observes* and never steers.
A run with a live registry must produce the byte-identical schedule of
an uninstrumented run, and its counters must reconcile with the run's
own visible outcome (jobs in == jobs finished == predictions scored).
"""

from __future__ import annotations

import json

import pytest

from repro.core import run_cells
from repro.core.run import run_cell_report, run_spec
from repro.obs import Telemetry
from repro.spec import CellSpec

TRIPLES = [
    "requested|none|easy",
    "ave2|incremental|easy-sjbf",
    "requested|none|conservative",
    "clairvoyant|none|fcfs",
]


def _spec(triple_key: str, n_jobs: int = 120) -> CellSpec:
    return CellSpec.from_triple("KTH-SP2", triple_key, n_jobs=n_jobs, seed=7)


def _schedule(outcome_spec: CellSpec, telemetry: Telemetry | None):
    from repro.core.run import build_workload
    from repro.sim.session import SimSession

    trace = build_workload(outcome_spec.workload)
    scheduler, predictor, corrector = outcome_spec.build_components()
    session = SimSession(
        trace.processors,
        scheduler,
        predictor,
        corrector,
        min_prediction=outcome_spec.min_prediction,
        trace_name=trace.name,
        telemetry=telemetry,
    )
    session.feed(trace)
    session.drain()
    return sorted(
        (r.job_id, r.start_time, r.end_time, r.corrections)
        for r in session.result()
    )


class TestByteIdentity:
    @pytest.mark.parametrize("triple_key", TRIPLES)
    def test_schedule_identical_with_telemetry_on(self, triple_key):
        spec = _spec(triple_key)
        baseline = _schedule(spec, None)
        instrumented = _schedule(spec, Telemetry(component="test"))
        assert baseline == instrumented

    def test_outcome_identical_through_run_spec(self):
        spec = _spec("ave2|incremental|easy-sjbf")
        plain = run_spec(spec)
        tele = Telemetry(component="test")
        observed = run_spec(spec, telemetry=tele)
        assert observed == plain


class TestEngineCounters:
    @pytest.fixture(scope="class")
    def run(self):
        spec = _spec("ave2|incremental|easy-sjbf")
        tele = Telemetry(component="test")
        outcome = run_spec(spec, telemetry=tele)
        return spec, tele, outcome

    def test_event_counts_reconcile_with_the_trace(self, run):
        spec, tele, outcome = run
        n_jobs = spec.workload.n_jobs
        assert tele.counter_value("engine.events.submit") == n_jobs
        assert tele.counter_value("engine.events.finish") == n_jobs
        assert tele.counter_value("engine.sched.jobs_started") == n_jobs
        assert tele.counter_value("engine.events.expire") == outcome.corrections

    def test_expire_storms_sum_to_the_corrections(self, run):
        _spec_, tele, outcome = run
        storms = tele.histogram("engine.expire_storm.size")
        assert storms is not None
        assert storms.total == outcome.corrections

    def test_prediction_quality_counters(self, run):
        spec, tele, _outcome = run
        finished = tele.counter_value("predict.finished")
        assert finished == spec.workload.n_jobs
        assert 0 <= tele.counter_value("predict.underestimates") <= finished
        assert tele.histogram("predict.abs_error.seconds").count == finished

    def test_queue_depth_sampled_per_pass(self, run):
        _spec_, tele, _outcome = run
        passes = tele.counter_value("engine.sched.passes")
        assert passes > 0
        queue = tele.histogram("engine.sched.queue_length")
        assert queue.count == passes
        # easy-sjbf exposes its release-table size via introspect()
        assert tele.histogram("engine.sched.release_table").count == passes

    def test_time_split_and_cell_span(self, run):
        _spec_, tele, _outcome = run
        wall = tele.counter_value("engine.time.wall.seconds")
        sched = tele.counter_value("engine.time.sched.seconds")
        predict = tele.counter_value("engine.time.predict.seconds")
        build = tele.counter_value("engine.time.build.seconds")
        assert wall > 0
        assert sched + predict + build < wall
        assert tele.counter_value("engine.cells") == 1
        assert tele.histogram("engine.cell.seconds").count == 1

    def test_conservative_profile_segments_sampled(self):
        spec = _spec("requested|none|conservative", n_jobs=60)
        tele = Telemetry(component="test")
        run_spec(spec, telemetry=tele)
        segments = tele.histogram("engine.sched.profile_segments")
        assert segments is not None and segments.count > 0


class TestSnapshotPins:
    """What a drained session leaves in the registry, cell by cell, as
    the per-event loop recorded it before the loop went flat (values
    computed at that commit; 120 KTH-SP2 jobs, seed 7).  Timers are
    wall-clock sums, so only their presence is pinned."""

    TIMERS = {"engine.time.predict.seconds", "engine.time.sched.seconds"}
    PINS = {
        "requested|none|easy": (
            {
                "engine.events.finish": 120, "engine.events.submit": 120,
                "engine.sched.backfill_starts": 35, "engine.sched.hold_passes": 60,
                "engine.sched.jobs_started": 120, "engine.sched.passes": 239,
                "predict.finished": 120,
            },
            {
                "engine.sched.queue_length": (239, 941),
                "engine.sched.release_table": (239, 532),
                "predict.abs_error.seconds": (120, None),
            },
        ),
        "ave2|incremental|easy-sjbf": (
            {
                "engine.events.expire": 135, "engine.events.finish": 120,
                "engine.events.submit": 120, "engine.sched.backfill_starts": 37,
                "engine.sched.hold_passes": 72, "engine.sched.jobs_started": 120,
                "engine.sched.passes": 348, "predict.finished": 120,
                "predict.underestimates": 43,
            },
            {
                "engine.expire_storm.size": (109, 135),
                "engine.sched.queue_length": (348, 1170),
                "engine.sched.release_table": (348, 924),
                "predict.abs_error.seconds": (120, None),
            },
        ),
        "requested|none|conservative": (
            {
                "engine.events.finish": 120, "engine.events.submit": 120,
                "engine.sched.backfill_starts": 35, "engine.sched.hold_passes": 60,
                "engine.sched.jobs_started": 120, "engine.sched.passes": 239,
                "predict.finished": 120,
            },
            {
                "engine.sched.plan_reused": (239, 75),
                "engine.sched.profile_segments": (239, 904),
                "engine.sched.queue_length": (239, 941),
                "predict.abs_error.seconds": (120, None),
            },
        ),
    }

    @pytest.mark.parametrize("triple_key", PINS)
    def test_counters_and_histograms_match_the_pins(self, triple_key):
        counters, histograms = self.PINS[triple_key]
        tele = Telemetry(component="test")
        instrumented = _schedule(_spec(triple_key), tele)
        assert instrumented == _schedule(_spec(triple_key), None)
        snap = tele.snapshot()
        assert set(snap["counters"]) == set(counters) | self.TIMERS
        for name, value in counters.items():
            assert snap["counters"][name] == value, name
        assert all(snap["counters"][name] > 0 for name in self.TIMERS)
        assert set(snap["histograms"]) == set(histograms)
        for name, (count, total) in histograms.items():
            assert snap["histograms"][name]["count"] == count, name
            if total is not None:
                assert snap["histograms"][name]["sum"] == total, name


class TestCellReport:
    def test_report_always_carries_seconds(self):
        score, report = run_cell_report(_spec("requested|none|easy", 40))
        assert score > 0
        assert report["seconds"] > 0
        assert "telemetry" not in report

    def test_with_telemetry_ships_a_picklable_snapshot(self):
        _score, report = run_cell_report(
            _spec("requested|none|easy", 40), with_telemetry=True
        )
        snap = json.loads(json.dumps(report["telemetry"]))
        assert snap["component"] == "cell"
        assert snap["counters"]["engine.events.submit"] == 40


class TestCampaignTelemetry:
    def test_run_cells_folds_cell_metrics_home(self, tmp_path):
        cells = [_spec(key, 40) for key in ("requested|none|easy",
                                            "requested|none|easy-sjbf")]
        tele = Telemetry(component="campaign")
        result = run_cells(cells, workers=1, telemetry=tele)
        assert tele.counter_value("campaign.cells.total") == 2
        assert tele.counter_value("campaign.cells.simulated") == 2
        assert tele.counter_value("campaign.cells.cached") == 0
        # per-cell engine counters came home through snapshots
        assert tele.counter_value("engine.events.submit") == 80
        assert tele.histogram("campaign.cell.seconds").count == 2
        assert tele.histogram("campaign.dispatch.seconds").count == 1
        # planner estimates recorded alongside the real durations
        assert tele.histogram("campaign.cell.est_seconds").count == 2
        assert len(result.durations) == 2
        assert all(seconds > 0 for seconds in result.durations.values())

    def test_cached_cells_skip_simulation_counters(self, tmp_path):
        cells = [_spec("requested|none|easy", 40)]
        cache = str(tmp_path / "cache.jsonl")
        run_cells(cells, cache_path=cache, workers=1)
        tele = Telemetry(component="campaign")
        result = run_cells(cells, cache_path=cache, workers=1, telemetry=tele)
        assert tele.counter_value("campaign.cells.cached") == 1
        assert tele.counter_value("campaign.cells.simulated") == 0
        assert result.durations == {}
        board = result.leaderboard()
        assert board[0].mean_seconds is None  # nothing simulated this run

    def test_leaderboard_timing_column(self):
        cells = [_spec(key, 40) for key in ("requested|none|easy",
                                            "requested|none|easy-sjbf")]
        result = run_cells(cells, workers=1)
        board = result.leaderboard()
        assert [row.mean_score for row in board] == sorted(
            row.mean_score for row in board
        )
        assert all(row.n_cells == 1 for row in board)
        assert all(row.mean_seconds > 0 for row in board)
