"""Campaign subsystem tests: cache warm-paths, parallelism, progress.

These pin the PR's campaign-throughput guarantees:

* a finished campaign re-runs with **zero** simulations (everything is
  served from the JSONL result cache);
* cache cells are invalidated by anything that changes the numbers
  (trace content, engine version) and survive torn writes;
* the parallel fan-out produces exactly the serial results;
* the lifecycle events a traced campaign emits are complete and
  renderable (``repro.obs.load_events`` / ``format_events``).
"""

import pytest

import repro.core.campaign as campaign_mod
import repro.core.run as run_mod
from repro.core import ResultCache, run_cells
from repro.obs import JsonlTraceSink, Telemetry, format_events, load_events

from tests.helpers import triple_cells

#: A tiny but heterogeneous triple subset: no corrector, corrector, SJBF.
TRIPLES = [
    "requested|none|easy",
    "requested|none|easy-sjbf",
    "ave2|incremental|easy",
    "ave2|incremental|easy-sjbf",
]

REPLICAS = 2
CELLS = triple_cells(TRIPLES, logs=("KTH-SP2",), n_jobs=120, replicas=REPLICAS)


@pytest.fixture(scope="module")
def warm_campaign(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache") / "cells.jsonl"
    progress = tmp_path_factory.mktemp("progress") / "progress.jsonl"
    telemetry = Telemetry("campaign", trace=JsonlTraceSink(str(progress)))
    result = run_cells(CELLS, cache_path=str(cache), workers=1, telemetry=telemetry)
    telemetry.close()
    return result, cache, progress


class TestWarmCache:
    def test_rerun_performs_zero_simulations(self, warm_campaign, monkeypatch):
        """With the cache warm, the runner must never reach a worker."""
        result, cache, _ = warm_campaign

        def boom(spec, with_telemetry=False):
            raise AssertionError(f"simulation dispatched for {spec}")

        monkeypatch.setattr(run_mod, "run_cell_report", boom)
        again = run_cells(CELLS, cache_path=str(cache), workers=1)
        assert again.scores == result.scores

    def test_partial_cache_resumes_only_missing_cells(
        self, warm_campaign, tmp_path, monkeypatch
    ):
        result, cache, _ = warm_campaign
        # keep only half the cells (plus a torn trailing line)
        lines = cache.read_text().strip().splitlines()
        partial = tmp_path / "partial.jsonl"
        kept = lines[: len(lines) // 2]
        partial.write_text("\n".join(kept) + '\n{"token": "torn-wr')

        calls = []
        real = run_mod.run_cell_report

        def counting(spec, with_telemetry=False):
            calls.append(spec)
            return real(spec, with_telemetry=with_telemetry)

        monkeypatch.setattr(run_mod, "run_cell_report", counting)
        resumed = run_cells(CELLS, cache_path=str(partial), workers=1)
        assert resumed.scores == result.scores
        assert len(calls) == len(lines) - len(kept)

    def test_engine_version_invalidates_cache(self, warm_campaign, monkeypatch):
        """Bumping the engine version must abandon every cached cell."""
        _, cache, _ = warm_campaign
        monkeypatch.setattr(campaign_mod, "ENGINE_VERSION", 9999)

        calls = []
        real = run_mod.run_cell_report

        def counting(spec, with_telemetry=False):
            calls.append(spec)
            return real(spec, with_telemetry=with_telemetry)

        monkeypatch.setattr(run_mod, "run_cell_report", counting)
        run_cells(CELLS, cache_path=str(cache), workers=1)
        assert len(calls) == len(CELLS)


class TestParallelEqualsSerial:
    def test_scores_identical(self, warm_campaign, tmp_path):
        serial, _, _ = warm_campaign
        parallel = run_cells(
            CELLS, cache_path=str(tmp_path / "par.jsonl"), workers=2
        )
        assert parallel.scores == serial.scores


class TestProgressStream:
    def test_events_complete(self, warm_campaign):
        _, _, progress = warm_campaign
        events = load_events(str(progress))
        kinds = [e["kind"] for e in events]
        n_cells = len(TRIPLES) * REPLICAS
        assert kinds == ["start"] + ["cell"] * n_cells + ["span", "end"]
        assert all(e["component"] == "campaign" for e in events)
        elapsed = [e["elapsed"] for e in events]
        assert elapsed == sorted(elapsed) and elapsed[0] >= 0.0
        start = events[0]
        assert start["total"] == n_cells
        assert start["pending"] == n_cells
        assert start["logs"] == ["KTH-SP2"]
        cells = [e for e in events if e["kind"] == "cell"]
        assert [e["done"] for e in cells] == list(range(1, n_cells + 1))
        assert {e["total"] for e in cells} == {n_cells}
        assert {e["label"] for e in cells} == set(TRIPLES)
        assert all(e["seconds"] > 0 and e["avebsld"] >= 1.0 for e in cells)

    def test_format_progress_renders(self, warm_campaign):
        _, _, progress = warm_campaign
        text = format_events(load_events(str(progress)))
        assert "campaign: 8 cells (0 cached, 8 to simulate)" in text
        assert "  KTH-SP2: 8 cells" in text
        assert "simulated: 8/8" in text
        assert "finished in" in text

    def test_format_progress_live_snapshot(self, warm_campaign):
        """A truncated stream (live campaign) still renders, with an ETA."""
        _, _, progress = warm_campaign
        events = load_events(str(progress))
        snapshot = [e for e in events if e["kind"] not in ("span", "end")][:-2]
        snapshot[-1]["elapsed"] = snapshot[0]["elapsed"] + 3.0  # 6 cells in 3 s
        text = format_events(snapshot)
        assert "simulated: 6/8" in text
        assert "throughput: 2.00 simulations/s over 3s" in text
        assert "estimated remaining: 1s" in text
        assert "finished" not in text

    def test_events_without_the_registry(self, warm_campaign, tmp_path, monkeypatch):
        """``enabled=False`` + a sink is the progress-only spelling: the same
        lifecycle records, nothing counted, and no cell pays for engine
        metrics (what ``progress_path=`` alone cost)."""
        result, _, progress = warm_campaign
        asked = []
        real = run_mod.run_cell_report

        def spying(spec, with_telemetry=False):
            asked.append(with_telemetry)
            return real(spec, with_telemetry=with_telemetry)

        monkeypatch.setattr(run_mod, "run_cell_report", spying)
        path = tmp_path / "events.jsonl"
        telemetry = Telemetry("campaign", enabled=False, trace=JsonlTraceSink(str(path)))
        again = run_cells(CELLS, workers=1, telemetry=telemetry)
        telemetry.close()
        assert again.scores == result.scores
        assert asked == [False] * len(CELLS)
        assert telemetry.snapshot()["counters"] == {}
        assert telemetry.snapshot()["histograms"] == {}

        def shape(events):
            return [
                (e["kind"], e.get("label"), e.get("done"), e.get("total"))
                for e in events
                if e["kind"] != "span"  # timed by the registry, so off with it
            ]

        events = load_events(str(path))
        assert "span" not in [e["kind"] for e in events]
        assert shape(events) == shape(load_events(str(progress)))

    def test_two_runs_appended_to_one_file_render_the_second(
        self, warm_campaign, tmp_path
    ):
        """The sink appends: a file that several runs traced into holds them
        all, and the renderer shows the last (here the warm re-run)."""
        _, cache, progress = warm_campaign
        both = tmp_path / "progress.jsonl"
        both.write_bytes(progress.read_bytes())
        telemetry = Telemetry("campaign", trace=JsonlTraceSink(str(both)))
        run_cells(CELLS, cache_path=str(cache), workers=1, telemetry=telemetry)
        telemetry.close()
        kinds = [e["kind"] for e in load_events(str(both))]
        assert kinds.count("start") == 2 and kinds[-2:] == ["start", "end"]
        text = format_events(load_events(str(both)))
        assert "campaign: 8 cells (8 cached, 0 to simulate)" in text
        assert "simulated: 0/0" in text
        assert "KTH-SP2" not in text  # the first run's cells are not counted


class TestResultCache:
    def test_append_only_round_trip(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        cache = ResultCache(str(path))
        cache.put("a", 1.5)
        cache.put("b", 2.5)
        cache.close()
        again = ResultCache(str(path))
        assert again.get("a") == 1.5
        assert again.get("b") == 2.5
        assert len(again) == 2

    def test_later_entries_win(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        cache = ResultCache(str(path))
        cache.put("a", 1.0)
        cache.put("a", 2.0)
        cache.close()
        assert ResultCache(str(path)).get("a") == 2.0

    def test_a_nan_row_is_a_miss(self, tmp_path):
        path = tmp_path / "cells.jsonl"
        path.write_text('{"token": "a", "value": NaN}\n{"token": "b", "value": 1.5}\n')
        cache = ResultCache(str(path))
        assert cache.get("a") is None
        assert cache.get("b") == 1.5
        assert len(cache) == 1


class TestParseCacheRecord:
    @pytest.mark.parametrize(
        "line, expected",
        [
            ('{"token": "t", "value": 2.5}', ("t", 2.5)),
            ('{"token": "t", "value": 3}', ("t", 3.0)),
            ('{"token": "t", "value": -0.0}', ("t", -0.0)),
        ],
    )
    def test_a_finite_number_parses(self, line, expected):
        parsed = campaign_mod.parse_cache_record(line)
        assert parsed == expected
        assert type(parsed[1]) is float

    @pytest.mark.parametrize(
        "line",
        [
            '{"token": "t", "value": NaN}',
            '{"token": "t", "value": Infinity}',
            '{"token": "t", "value": -Infinity}',
            '{"token": "t", "value": 1e400}',  # overflows to inf
            pytest.param('{"token": "t", "value": 1' + "0" * 400 + "}", id="1e400-int"),
            '{"token": "t", "value": true}',
            '{"token": "t", "value": "2.5"}',
            '{"token": "t", "value": null}',
            '{"token": "t", "value": [1.0]}',
            '{"token": 7, "value": 1.0}',
            '{"token": null, "value": 1.0}',
            '{"token": "t"}',
            "[1.0, 2.0]",
            '{"token": "t", "val',
        ],
    )
    def test_anything_else_is_torn(self, line):
        assert campaign_mod.parse_cache_record(line) is None
