"""FRZ001: the frozen-oracle / ENGINE_VERSION digest pact."""

from __future__ import annotations

import pytest

from repro.analysis.frozen import compute_frozen, load_frozen, write_frozen

from .conftest import of_rule

pytestmark = []


@pytest.fixture
def semantics_repo(fixture_repo):
    fixture_repo.add("src/repro/sim/engine.py", "ENGINE_VERSION = 1\n")
    fixture_repo.add("src/repro/sched/legacy.py", "LEGACY = True\n")
    fixture_repo.add("src/repro/sched/easy.py", "DEPTH = 1\n")
    write_frozen(str(fixture_repo.root))
    return fixture_repo


def _check(repo):
    findings, _ = repo.check()
    return of_rule(findings, "FRZ001")


class TestFrozenDigests:
    def test_clean_after_freeze(self, semantics_repo):
        assert _check(semantics_repo) == []

    def test_oracle_drift_always_flagged(self, semantics_repo):
        semantics_repo.add("src/repro/sched/legacy.py", "LEGACY = False\n")
        findings = _check(semantics_repo)
        assert len(findings) == 1
        assert findings[0].path == "src/repro/sched/legacy.py"
        assert "oracle" in findings[0].message

    def test_semantics_drift_without_bump_flagged(self, semantics_repo):
        semantics_repo.add("src/repro/sched/easy.py", "DEPTH = 2\n")
        findings = _check(semantics_repo)
        assert len(findings) == 1
        assert findings[0].path == "src/repro/sched/easy.py"
        assert "ENGINE_VERSION bump" in findings[0].message

    def test_version_bump_asks_for_regeneration(self, semantics_repo):
        semantics_repo.add("src/repro/sim/engine.py", "ENGINE_VERSION = 2\n")
        findings = _check(semantics_repo)
        assert len(findings) == 1
        assert findings[0].path == "src/repro/sim/engine.py"
        assert "--update-frozen" in findings[0].message

    def test_bump_plus_regenerate_is_clean(self, semantics_repo):
        semantics_repo.add(
            "src/repro/sim/engine.py", "ENGINE_VERSION = 2\nNEW_SEMANTICS = True\n"
        )
        write_frozen(str(semantics_repo.root))
        assert _check(semantics_repo) == []
        assert load_frozen(str(semantics_repo.root))["engine_version"] == 2

    def test_new_semantics_module_must_be_pinned(self, semantics_repo):
        semantics_repo.add("src/repro/sched/sjbf.py", "ORDER = 'sjbf'\n")
        findings = _check(semantics_repo)
        assert len(findings) == 1
        assert findings[0].path == "src/repro/sched/sjbf.py"
        assert "no recorded digest" in findings[0].message

    def test_deleted_module_flagged(self, semantics_repo):
        (semantics_repo.root / "src/repro/sched/easy.py").unlink()
        findings = _check(semantics_repo)
        assert len(findings) == 1
        assert "no longer exists" in findings[0].message

    def test_missing_data_file_flagged(self, fixture_repo):
        fixture_repo.add("src/repro/sim/engine.py", "ENGINE_VERSION = 1\n")
        findings = _check(fixture_repo)
        assert len(findings) == 1
        assert "--update-frozen" in findings[0].message

    def test_compute_matches_written(self, semantics_repo):
        root = str(semantics_repo.root)
        assert compute_frozen(root) == load_frozen(root)
        assert load_frozen(root)["engine_version"] == 1
        assert "src/repro/sched/legacy.py" in load_frozen(root)["oracle"]


class TestRealRepoDigests:
    def test_checked_in_digests_match_the_tree(self):
        # the real data file must stay true as code lands; this is the
        # in-suite twin of the CI `repro check` gate
        from pathlib import Path

        root = str(Path(__file__).resolve().parents[2])
        recorded = load_frozen(root)
        assert recorded is not None, "src/repro/analysis/data/frozen.json missing"
        assert recorded == compute_frozen(root)
