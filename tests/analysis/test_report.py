"""The text report: one line per finding, then a summary."""

from __future__ import annotations

from repro.analysis import Finding, format_text

FINDINGS = [
    Finding("src/repro/sim/a.py", 3, 4, "DET001", "time.time() is a wall clock"),
    Finding("src/repro/sim/a.py", 9, 0, "DET001", "datetime.now() is a wall clock"),
    Finding("src/repro/dist/b.py", 1, 2, "DET002", "unsorted scan"),
]


class TestTextReport:
    def test_one_line_per_finding_plus_summary(self):
        text = format_text(FINDINGS, 12)
        lines = text.splitlines()
        assert lines[0] == "src/repro/sim/a.py:3:4: DET001 time.time() is a wall clock"
        assert "3 finding(s) in 12 file(s)" in lines[-1]
        assert "DET001:2" in lines[-1] and "DET002:1" in lines[-1]

    def test_clean_summary(self):
        text = format_text([], 12)
        assert text.startswith("ok: 12 file(s) clean under 10 rule(s)")
        assert "DET001" in text
