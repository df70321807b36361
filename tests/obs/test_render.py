"""Rendering and diffing for ``repro metrics``."""

from __future__ import annotations

from repro.obs import Telemetry, diff_snapshots, format_snapshots


def _snap(component: str, cells: float, seconds: list[float]) -> dict:
    tele = Telemetry(component=component)
    tele.inc("engine.cells", cells)
    for value in seconds:
        tele.observe("cell.seconds", value)
    snap = tele.snapshot()
    snap["gauges"] = {"depth": 4.0}  # written by older runs; ignored since
    return snap


class TestFormat:
    def test_groups_per_component(self):
        text = format_snapshots([_snap("a", 1, [0.5]), _snap("b", 2, [])])
        assert "== a ==" in text
        assert "== b ==" in text
        assert "engine.cells" in text
        assert "counter" in text
        assert "histogram" in text and "count=1" in text
        assert "depth" not in text

    def test_empty_inputs(self):
        assert format_snapshots([]) == "no metrics snapshots found"
        assert "(empty)" in format_snapshots([{"component": "x"}])


class TestDiff:
    def test_counter_and_histogram_deltas(self):
        before = _snap("c", 2, [1.0])
        after = _snap("c", 5, [1.0, 3.0])
        text = diff_snapshots([before], [after])
        assert "== c (delta) ==" in text
        assert "engine.cells" in text and "+3" in text
        assert "cell.seconds:count" in text
        assert "depth" not in text

    def test_unchanged_component_reports_no_change(self):
        snap = _snap("c", 1, [])
        assert "(no change)" in diff_snapshots([snap], [snap])

    def test_component_only_on_one_side_still_diffs(self):
        text = diff_snapshots([], [_snap("new", 4, [])])
        assert "== new (delta) ==" in text
        assert "+4" in text
