"""Per-rule contract over the fixture corpus: each file rule must catch
its known-bad snippet and stay silent on its known-good one."""

from __future__ import annotations

import pytest

from .conftest import FIXTURES

FILE_RULES = (
    "DET001",
    "DET002",
    "DET003",
    "DUR001",
    "ENC001",
    "OBS001",
    "OBS002",
    "IMP001",
)


def _corpus(rule_id: str, kind: str):
    return FIXTURES / rule_id.lower() / f"{kind}.py"


@pytest.mark.parametrize("rule_id", FILE_RULES)
class TestCorpus:
    def test_bad_fixture_caught(self, rule_id, fixture_repo):
        dest = fixture_repo.add_corpus(_corpus(rule_id, "bad"))
        findings, files = fixture_repo.check(select=(rule_id,))
        assert files == [dest]
        assert findings, f"{rule_id} missed its known-bad fixture"
        assert {f.rule for f in findings} == {rule_id}
        assert all(f.path == dest for f in findings)
        assert all(f.line > 0 for f in findings)

    def test_good_fixture_clean(self, rule_id, fixture_repo):
        fixture_repo.add_corpus(_corpus(rule_id, "good"))
        findings, _files = fixture_repo.check(select=(rule_id,))
        assert findings == [], f"{rule_id} false-positived on its good fixture"


class TestFindingDetails:
    def test_det001_names_every_source(self, fixture_repo):
        fixture_repo.add_corpus(_corpus("DET001", "bad"))
        findings, _ = fixture_repo.check(select=("DET001",))
        blob = " ".join(f.message for f in findings)
        for source in ("time.time", "random.random", "datetime.now"):
            assert source in blob
        assert len(findings) >= 3

    def test_det002_flags_both_scan_kinds(self, fixture_repo):
        fixture_repo.add_corpus(_corpus("DET002", "bad"))
        findings, _ = fixture_repo.check(select=("DET002",))
        assert len(findings) == 2  # os.listdir and glob.glob

    def test_enc001_unrelated_noqa_does_not_suppress(self, fixture_repo):
        # the bad ENC001 corpus carries a `# repro: noqa[DUR001]` on one
        # offending line; ENC001 must still fire there
        fixture_repo.add_corpus(_corpus("ENC001", "bad"))
        findings, _ = fixture_repo.check(select=("ENC001",))
        assert len(findings) == 2

    def test_obs001_tells_per_record_calls_from_unguarded_batches(self, fixture_repo):
        fixture_repo.add_corpus(_corpus("OBS001", "bad"))
        findings, _ = fixture_repo.check(select=("OBS001",))
        per_record = [f for f in findings if "session tally" in f.message]
        unguarded = [f for f in findings if "outside an `if" in f.message]
        # inc (bare), inc (guarded -- still a finding), observe; a bare add_batch
        assert len(per_record) == 3 and len(unguarded) == 1
        assert "add_batch" in unguarded[0].message
        assert len(findings) == 4

    def test_rules_out_of_scope_are_silent(self, fixture_repo):
        # a DET001-bad file placed outside the engine paths is none of
        # DET001's business
        corpus = (FIXTURES / "det001" / "bad.py").read_text(encoding="utf-8")
        fixture_repo.add("src/repro/core/fixture.py", corpus)
        findings, _ = fixture_repo.check(select=("DET001",))
        assert findings == []


class TestSuppressions:
    BAD_LINE = "import time\n\n\ndef f():\n    return time.time()%s\n"

    def _write(self, repo, comment: str):
        repo.add("src/repro/sim/fixture.py", self.BAD_LINE % comment)

    def test_unsuppressed_fires(self, fixture_repo):
        self._write(fixture_repo, "")
        findings, _ = fixture_repo.check(select=("DET001",))
        assert len(findings) == 1

    def test_line_noqa_with_rule_id(self, fixture_repo):
        self._write(fixture_repo, "  # repro: noqa[DET001]")
        findings, _ = fixture_repo.check(select=("DET001",))
        assert findings == []

    def test_line_noqa_bare_suppresses_all(self, fixture_repo):
        self._write(fixture_repo, "  # repro: noqa")
        findings, _ = fixture_repo.check(select=("DET001",))
        assert findings == []

    def test_line_noqa_other_rule_does_not_suppress(self, fixture_repo):
        self._write(fixture_repo, "  # repro: noqa[DET002]")
        findings, _ = fixture_repo.check(select=("DET001",))
        assert len(findings) == 1

    def test_file_level_noqa(self, fixture_repo):
        text = "# repro: noqa-file[DET001]\n" + self.BAD_LINE % ""
        fixture_repo.add("src/repro/sim/fixture.py", text)
        findings, _ = fixture_repo.check(select=("DET001",))
        assert findings == []

    def test_file_level_noqa_scoped_to_its_rule(self, fixture_repo):
        text = "# repro: noqa-file[DET002]\n" + self.BAD_LINE % ""
        fixture_repo.add("src/repro/sim/fixture.py", text)
        findings, _ = fixture_repo.check(select=("DET001",))
        assert len(findings) == 1

    def test_multiple_ids_in_one_noqa(self, fixture_repo):
        self._write(fixture_repo, "  # repro: noqa[DET002, DET001]")
        findings, _ = fixture_repo.check(select=("DET001",))
        assert findings == []


class TestRegistry:
    def test_battery_is_stable(self):
        from repro.analysis import all_rules

        ids = [rule.id for rule in all_rules()]
        assert ids == sorted(ids)
        assert set(FILE_RULES) <= set(ids)
        assert {"FRZ001", "SPEC001"} <= set(ids)
        assert len(ids) == len(set(ids))

    def test_unknown_rule_id_rejected(self):
        from repro.analysis import resolve_rules

        with pytest.raises(KeyError):
            resolve_rules(("NOPE999",))

    def test_every_rule_has_scope_and_title(self):
        from repro.analysis import all_rules

        for rule in all_rules():
            assert rule.paths, rule.id
            assert rule.title, rule.id

    def test_parse_error_is_a_finding_not_a_crash(self, fixture_repo):
        fixture_repo.add("src/repro/sim/broken.py", "def f(:\n")
        findings, _ = fixture_repo.check(select=("DET001",))
        assert len(findings) == 1
        assert findings[0].rule == "PARSE"
