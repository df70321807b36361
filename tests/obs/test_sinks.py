"""Sinks: JSONL traces, Prometheus exposition, snapshot directories."""

from __future__ import annotations

import json
import os

from repro.obs import JsonlTraceSink, Telemetry, load_snapshots
from repro.obs.sinks import prom_text, snapshot_paths, write_snapshot


class TestJsonlTraceSink:
    def test_lazy_open_leaves_no_file_when_unused(self, tmp_path):
        path = tmp_path / "trace-x.jsonl"
        sink = JsonlTraceSink(str(path))
        sink.close()
        assert not path.exists()

    def test_appends_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "sub" / "trace-x.jsonl"
        sink = JsonlTraceSink(str(path))
        sink.write({"kind": "a", "n": 1})
        sink.write({"kind": "b"})
        sink.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [record["kind"] for record in records] == ["a", "b"]
        # stamped with the sink's own monotonic clock
        assert 0.0 <= records[0]["elapsed"] <= records[1]["elapsed"]
        assert records[0] == {"kind": "a", "n": 1, "elapsed": records[0]["elapsed"]}

    def test_telemetry_events_and_spans_reach_the_sink(self, tmp_path):
        path = tmp_path / "trace-t.jsonl"
        tele = Telemetry(component="t", trace=JsonlTraceSink(str(path)))
        tele.event("worker_start", worker="w1")
        with tele.span("shard", shard="g1-0"):
            pass
        tele.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["kind"] == "worker_start"
        assert records[0]["component"] == "t"
        assert records[1]["kind"] == "span"
        assert records[1]["name"] == "shard"
        assert records[1]["ok"] is True

    def test_disabled_registry_still_traces_events(self, tmp_path):
        """``enabled`` switches the registry, not the sink: events are
        written, counters and spans are not."""
        path = tmp_path / "trace-t.jsonl"
        tele = Telemetry(component="t", enabled=False, trace=JsonlTraceSink(str(path)))
        tele.inc("n")
        with tele.span("shard"):
            tele.event("claim", shard="g1-0")
        tele.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [(r["kind"], r["component"]) for r in records] == [("claim", "t")]
        assert tele.snapshot()["counters"] == {}

    def test_span_failure_is_recorded_as_not_ok(self, tmp_path):
        path = tmp_path / "trace-t.jsonl"
        tele = Telemetry(component="t", trace=JsonlTraceSink(str(path)))
        try:
            with tele.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        tele.close()
        record = json.loads(path.read_text().splitlines()[0])
        assert record["ok"] is False


class TestPromText:
    def test_counters_gauges_histograms(self):
        tele = Telemetry(component="c")
        tele.inc("engine.cells", 3)
        tele.observe("lat.seconds", 1.5)
        snap = tele.snapshot()
        assert set(snap) == {"component", "counters", "histograms"}
        # a snapshot file from before gauges were retired still renders
        text = prom_text({**snap, "gauges": {"queue.depth": 7.0}})
        assert text == prom_text(snap)
        assert '# TYPE repro_engine_cells_total counter' in text
        assert 'repro_engine_cells_total{component="c"} 3' in text
        # 1.5 lands in the (1, 2] bucket; cumulative + +Inf + sum + count
        assert 'repro_lat_seconds_bucket{component="c",le="2"} 1' in text
        assert 'repro_lat_seconds_bucket{component="c",le="+Inf"} 1' in text
        assert 'repro_lat_seconds_sum{component="c"} 1.5' in text
        assert 'repro_lat_seconds_count{component="c"} 1' in text

    def test_bucket_counts_are_cumulative(self):
        tele = Telemetry(component="c")
        for value in (0.5, 1.5, 1.6, 3.0):
            tele.observe("h", value)
        text = prom_text(tele.snapshot())
        assert 'le="0.5"} 1' in text
        assert 'le="2"} 3' in text
        assert 'le="4"} 4' in text

    def test_empty_snapshot_renders_empty(self):
        assert prom_text({"component": "x"}) == ""


class TestSnapshotDirectory:
    def test_write_then_load_roundtrip(self, tmp_path):
        tele = Telemetry(component="worker-1")
        tele.inc("worker.claims", 2)
        tele.observe("worker.cell.seconds", 0.25)
        json_path = tele.write(str(tmp_path))
        expected_json, expected_prom = snapshot_paths(str(tmp_path), "worker-1")
        assert json_path == expected_json
        assert os.path.exists(expected_prom)
        snaps = load_snapshots(str(tmp_path))
        assert len(snaps) == 1
        assert snaps[0]["component"] == "worker-1"
        assert snaps[0]["counters"]["worker.claims"] == 2

    def test_load_sorts_by_name_and_skips_corrupt(self, tmp_path):
        write_snapshot({"component": "b", "counters": {"x": 1}}, str(tmp_path))
        write_snapshot({"component": "a", "counters": {"y": 2}}, str(tmp_path))
        (tmp_path / "metrics-broken.json").write_text("{not json")
        (tmp_path / "metrics-list.json").write_text("[1, 2]")
        (tmp_path / "unrelated.json").write_text("{}")
        snaps = load_snapshots(str(tmp_path))
        assert [s["component"] for s in snaps] == ["a", "b"]

    def test_load_missing_directory_is_empty(self, tmp_path):
        assert load_snapshots(str(tmp_path / "nope")) == []

    def test_component_defaults_from_filename(self, tmp_path):
        (tmp_path / "metrics-bare.json").write_text('{"counters": {}}')
        snaps = load_snapshots(str(tmp_path))
        assert snaps[0]["component"] == "bare"
