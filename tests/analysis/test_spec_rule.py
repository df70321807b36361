"""SPEC001: every semantic engine knob must enter the CellSpec digest."""

from __future__ import annotations

import pytest

from .conftest import of_rule

_CELLSPEC = (
    "class CellSpec:\n"
    "    def to_obj(self):\n"
    "        return {\n"
    '            "workload": None,\n'
    '            "engine": {"min_prediction": 1.0, "tau": 2.0},\n'
    "        }\n"
)

_ENGINE_OK = (
    "def simulate(trace, scheduler, predictor, corrector=None,\n"
    "             min_prediction=60.0, telemetry=None):\n"
    "    pass\n"
)

_SESSION_OK = (
    "class SimSession:\n"
    "    def __init__(self, processors, scheduler, predictor, corrector=None,\n"
    "                 *, min_prediction=60.0, start_time=0.0, trace_name='',\n"
    "                 telemetry=None):\n"
    "        pass\n"
)


@pytest.fixture
def spec_repo(fixture_repo):
    fixture_repo.add("src/repro/spec/cellspec.py", _CELLSPEC)
    fixture_repo.add("src/repro/sim/engine.py", _ENGINE_OK)
    fixture_repo.add("src/repro/sim/session.py", _SESSION_OK)
    return fixture_repo


def _check(repo):
    findings, _ = repo.check()
    return of_rule(findings, "SPEC001")


class TestSpecIdentity:
    def test_clean_when_knobs_are_digested(self, spec_repo):
        assert _check(spec_repo) == []

    def test_new_engine_knob_escaping_digest_flagged(self, spec_repo):
        spec_repo.add(
            "src/repro/sim/engine.py",
            _ENGINE_OK.replace(
                "min_prediction=60.0, telemetry=None):\n    pass",
                "min_prediction=60.0, backfill_depth=4, telemetry=None):\n"
                "    pass",
            ),
        )
        findings = _check(spec_repo)
        assert len(findings) == 1
        assert "backfill_depth" in findings[0].message
        assert findings[0].path == "src/repro/sim/engine.py"

    def test_new_session_knob_flagged(self, spec_repo):
        spec_repo.add(
            "src/repro/sim/session.py",
            _SESSION_OK.replace("telemetry=None", "telemetry=None, drain_policy='x'"),
        )
        findings = _check(spec_repo)
        assert len(findings) == 1
        assert "drain_policy" in findings[0].message

    def test_structural_params_are_exempt(self, spec_repo):
        # trace/processors/telemetry/start_time never enter the digest
        # by design and must not fire
        assert _check(spec_repo) == []

    def test_missing_engine_block_is_loud(self, spec_repo):
        spec_repo.add("src/repro/spec/cellspec.py", "class CellSpec:\n    pass\n")
        findings = _check(spec_repo)
        assert len(findings) == 1
        assert "engine-knob set" in findings[0].message

    def test_real_repo_is_clean(self):
        from pathlib import Path

        from repro.analysis import run_check

        root = Path(__file__).resolve().parents[2]
        findings, _ = run_check([str(root / "src")], root=str(root))
        assert of_rule(findings, "SPEC001") == []
