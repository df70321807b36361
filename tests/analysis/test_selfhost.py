"""Self-hosting: ``repro check`` must be clean on this repository, and
the CLI must speak the documented exit codes."""

from __future__ import annotations

from pathlib import Path

from repro.analysis import run_check
from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]
SRC = str(ROOT / "src")


class TestSelfHost:
    def test_src_is_clean_under_the_full_battery(self):
        findings, files = run_check([SRC], root=str(ROOT))
        assert findings == [], "\n".join(f.render() for f in findings)
        assert len(files) > 50  # the whole package was actually scanned

    def test_cli_exits_zero_and_reports_ok(self, capsys):
        assert main(["check", SRC]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok:")

    def test_cli_nonzero_on_findings(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text("[project]\n", encoding="utf-8")
        bad = tmp_path / "src" / "repro" / "sim" / "clocky.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nNOW = time.time()\n", encoding="utf-8")
        assert main(["check", str(tmp_path / "src")]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "clocky.py" in out
