"""Campaign subsystem tests: cache warm-paths, parallelism, progress.

These pin the PR's campaign-throughput guarantees:

* a finished campaign re-runs with **zero** simulations (everything is
  served from the JSONL result cache);
* cache cells are invalidated by anything that changes the numbers
  (trace content, engine version) and survive torn writes;
* the parallel fan-out produces exactly the serial results;
* the JSONL progress stream is complete and renderable.
"""

import pytest

import repro.core.campaign as campaign_mod
import repro.core.run as run_mod
from repro.core import (
    ResultCache,
    format_progress,
    load_progress,
    run_cells,
)

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
    result = run_cells(
        CELLS, cache_path=str(cache), workers=1, progress_path=str(progress)
    )
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
        events = load_progress(str(progress))
        kinds = [e["event"] for e in events]
        n_cells = len(TRIPLES) * REPLICAS
        assert kinds[0] == "start"
        assert kinds[-1] == "end"
        assert kinds.count("cell") == n_cells
        start = events[0]
        assert start["total"] == n_cells
        assert start["pending"] == n_cells
        done = [e["done"] for e in events if e["event"] == "cell"]
        assert done == list(range(1, n_cells + 1))

    def test_format_progress_renders(self, warm_campaign):
        _, _, progress = warm_campaign
        text = format_progress(load_progress(str(progress)))
        assert "KTH-SP2" in text
        assert "8/8" in text
        assert "finished in" in text

    def test_format_progress_live_snapshot(self, warm_campaign):
        """A truncated stream (live campaign) still renders, with an ETA."""
        _, _, progress = warm_campaign
        events = load_progress(str(progress))
        snapshot = [e for e in events if e["event"] != "end"][:-2]
        text = format_progress(snapshot)
        assert "simulated:" in text
        assert "finished" not in text


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
