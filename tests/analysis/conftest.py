"""Shared helpers for the analyzer tests.

The fixture corpus under ``fixtures/<rule>/{bad,good}.py`` drives the
per-rule contract: every rule must flag its bad snippet -- exactly the
lines that end in ``# caught`` -- and pass its good one.  Each corpus
file's first line declares where in a repository it pretends to live
(``# dest: src/repro/.../fixture.py``), because the rules are
path-scoped; ``fixture_repo`` materialises a throwaway repo with the
snippet at that path.  ``check`` runs the whole battery; a test
keeps the findings of the rule it is about with :func:`of_rule`.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"

_DEST = re.compile(r"#\s*dest:\s*(\S+)")


def fixture_dest(text: str) -> str:
    match = _DEST.search(text.splitlines()[0])
    assert match, "corpus file must open with `# dest: <repo-relative path>`"
    return match.group(1)


def of_rule(findings, rule_id: str) -> list:
    return [f for f in findings if f.rule == rule_id]


class FixtureRepo:
    """A throwaway repository rooted at ``root``."""

    def __init__(self, root: Path) -> None:
        self.root = root
        (root / "pyproject.toml").write_text("[project]\nname='x'\n", encoding="utf-8")

    def add(self, relpath: str, text: str) -> Path:
        path = self.root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return path

    def add_corpus(self, corpus: Path) -> str:
        text = corpus.read_text(encoding="utf-8")
        dest = fixture_dest(text)
        self.add(dest, text)
        return dest

    def check(self):
        from repro.analysis import run_check

        return run_check([os.fspath(self.root / "src")], root=os.fspath(self.root))


@pytest.fixture
def fixture_repo(tmp_path: Path) -> FixtureRepo:
    return FixtureRepo(tmp_path)
