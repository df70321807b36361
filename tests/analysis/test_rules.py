"""Per-rule contract over the fixture corpus: each file rule must catch
its known-bad snippet and stay silent on its known-good one."""

from __future__ import annotations

import pytest

from .conftest import FIXTURES, of_rule

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
        corpus = _corpus(rule_id, "bad")
        dest = fixture_repo.add_corpus(corpus)
        findings, files = fixture_repo.check()
        findings = of_rule(findings, rule_id)
        assert files == [dest]
        assert findings, f"{rule_id} missed its known-bad fixture"
        assert all(f.path == dest for f in findings)
        marked = {
            lineno
            for lineno, line in enumerate(
                corpus.read_text(encoding="utf-8").splitlines(), start=1
            )
            if line.endswith("# caught")
        }
        assert {f.line for f in findings} == marked

    def test_good_fixture_clean(self, rule_id, fixture_repo):
        fixture_repo.add_corpus(_corpus(rule_id, "good"))
        findings, _files = fixture_repo.check()
        assert of_rule(findings, rule_id) == [], (
            f"{rule_id} false-positived on its good fixture"
        )


class TestFindingDetails:
    def test_det001_names_every_source(self, fixture_repo):
        # each name reads as what it was imported as
        fixture_repo.add_corpus(_corpus("DET001", "bad"))
        findings, _ = fixture_repo.check()
        named = {f.message.split("()")[0] for f in of_rule(findings, "DET001")}
        assert named == {
            "random.seed",
            "random.random",
            "time.time",
            "time.time_ns",
            "datetime.datetime.now",
            "numpy.random.rand",
        }

    def test_det002_flags_both_scan_kinds(self, fixture_repo):
        fixture_repo.add_corpus(_corpus("DET002", "bad"))
        findings, _ = fixture_repo.check()
        assert len(of_rule(findings, "DET002")) == 2  # os.listdir and glob.glob

    def test_obs001_tells_per_record_calls_from_unguarded_batches(self, fixture_repo):
        fixture_repo.add_corpus(_corpus("OBS001", "bad"))
        findings, _ = fixture_repo.check()
        findings = of_rule(findings, "OBS001")
        writes = [f for f in findings if "writes the registry" in f.message]
        unguarded = [f for f in findings if "outside an `if" in f.message]
        # inc (bare), inc (guarded -- still a finding), observe; attach
        # under `if not ....enabled:` and in the else of the guard
        assert len(writes) == 3 and len(unguarded) == 2
        assert all("attach" in f.message for f in unguarded)
        assert len(findings) == 5

    @pytest.mark.parametrize("layer", ["sim", "sched", "predict", "serve"])
    def test_obs001_covers_every_hot_layer(self, layer, fixture_repo):
        corpus = (FIXTURES / "obs001" / "bad.py").read_text(encoding="utf-8")
        fixture_repo.add(f"src/repro/{layer}/fixture.py", corpus)
        findings, _ = fixture_repo.check()
        assert len(of_rule(findings, "OBS001")) == 5

    def test_rules_out_of_scope_are_silent(self, fixture_repo):
        # a DET001-bad file placed outside the engine paths is none of
        # DET001's business
        corpus = (FIXTURES / "det001" / "bad.py").read_text(encoding="utf-8")
        fixture_repo.add("src/repro/core/fixture.py", corpus)
        findings, _ = fixture_repo.check()
        assert of_rule(findings, "DET001") == []


class TestImportMap:
    """``dotted_name`` reads a name's head as what the file imported it as."""

    @pytest.mark.parametrize(
        ("imports", "expr", "expected"),
        [
            ("import numpy as np", "np.random.rand", "numpy.random.rand"),
            ("import numpy.random as npr", "npr.rand", "numpy.random.rand"),
            ("import os.path", "os.path.join", "os.path.join"),
            ("from time import perf_counter", "perf_counter", "time.perf_counter"),
            ("from datetime import datetime as dt", "dt.now", "datetime.datetime.now"),
            ("from . import engine", "engine.simulate", ".engine.simulate"),
            ("from ..sim import engine", "engine.simulate", "..sim.engine.simulate"),
            ("import time", "sorted", "sorted"),
        ],
    )
    def test_resolves_the_head(self, imports, expr, expected):
        from repro.analysis.core import FileContext

        ctx = FileContext("src/repro/sim/fixture.py", f"{imports}\n{expr}\n")
        assert ctx.dotted_name(ctx.tree.body[-1].value) == expected


class TestObs001Guards:
    """An attachment is guarded only inside the body of a test that is
    ``X.enabled`` or an ``and`` with it as a conjunct."""

    @pytest.mark.parametrize(
        ("snippet", "caught"),
        [
            ("while tele.enabled:\n        tele.attach(tally, owner)", False),
            ("_ = tele.attach(tally, owner) if tele.enabled else None", False),
            ("_ = None if tele.enabled else tele.attach(tally, owner)", True),
            ("if tele.enabled or flag:\n        tele.attach(tally, owner)", True),
            ("if tele.enabled:\n        pass\n    elif flag:\n        tele.attach(tally, owner)",
             True),
        ],
        ids=["while-body", "ternary-body", "ternary-else", "or-test", "elif-of-the-guard"],
    )
    def test_guard_shape(self, snippet, caught, fixture_repo):
        fixture_repo.add(
            "src/repro/sim/fixture.py",
            f"def attach(tele, tally, owner, flag) -> None:\n    {snippet}\n",
        )
        findings, _ = fixture_repo.check()
        assert bool(of_rule(findings, "OBS001")) is caught


class TestExemptions:
    """A rule's ``exclude`` paths are the one exemption; comments are
    just comments."""

    CLOCKY = "import time\n\n\ndef f():\n    return time.time(){}\n"

    @pytest.mark.parametrize(
        "text",
        [
            CLOCKY.format("  # repro: noqa[DET001]"),
            CLOCKY.format("  # repro: noqa"),
            "# repro: noqa-file[DET001]\n" + CLOCKY.format(""),
        ],
        ids=["line-with-id", "line-bare", "file"],
    )
    def test_a_comment_does_not_exempt(self, text, fixture_repo):
        fixture_repo.add("src/repro/sim/fixture.py", text)
        findings, _ = fixture_repo.check()
        assert len(of_rule(findings, "DET001")) == 1

    def test_an_excluded_path_is_exempt(self, fixture_repo):
        text = self.CLOCKY.format("")
        fixture_repo.add("src/repro/learn/checkpoint.py", text)  # DET001's exclude
        fixture_repo.add("src/repro/learn/fixture.py", text)
        findings, _ = fixture_repo.check()
        assert [f.path for f in of_rule(findings, "DET001")] == [
            "src/repro/learn/fixture.py"
        ]


class TestRegistry:
    def test_battery_is_stable(self):
        from repro.analysis import RULES

        assert [rule.id for rule in RULES] == [
            "DET001",
            "DET002",
            "DET003",
            "DUR001",
            "ENC001",
            "FRZ001",
            "IMP001",
            "OBS001",
            "OBS002",
            "SPEC001",
        ]

    def test_every_rule_has_a_scope(self):
        from repro.analysis import RULES

        for rule in RULES:
            assert rule.paths, rule.id

    def test_parse_error_is_a_finding_not_a_crash(self, fixture_repo):
        fixture_repo.add("src/repro/sim/broken.py", "def f(:\n")
        findings, _ = fixture_repo.check()
        assert [f.rule for f in findings if f.path.endswith("broken.py")] == ["PARSE"]
