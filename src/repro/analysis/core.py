"""The invariant-checker framework: findings, rules, suppressions, the checker.

``repro.analysis`` is a rule-based static analyzer over Python ASTs that
enforces the repo's *semantic* contracts -- determinism of the engine
paths, cache-identity completeness, durability of the distributed queue
-- at lint time, before any trace has to hit the violation dynamically.

The moving parts:

* :class:`Finding` -- one violation: rule id, file, position, message.
* :class:`Rule` -- base of :class:`FileRule` (runs per matching file
  against its AST) and :class:`ProjectRule` (runs once per check over
  the repository; digest and cross-file consistency checks).
* a registry -- rules are singletons registered by stable id via
  :func:`register`; ids never get reused, so suppression comments and
  CI configurations stay meaningful across versions.
* path scopes -- every rule declares the repo-relative ``fnmatch``
  patterns it polices, because the contracts are *regional*: wall-clock
  reads are fine in the coordinator but forbidden in the engine.
* suppressions -- ``# repro: noqa[RULE001]`` on the offending line (or
  bare ``# repro: noqa`` for all rules; ``# repro: noqa-file[RULE001]``
  anywhere in the file for the whole file).

Run everything with :func:`run_check`; render results with
:mod:`repro.analysis.report`.
"""

from __future__ import annotations

import ast
import fnmatch
import os
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

__all__ = [
    "Finding",
    "Rule",
    "FileRule",
    "ProjectRule",
    "FileContext",
    "ProjectContext",
    "CheckConfig",
    "register",
    "all_rules",
    "resolve_rules",
    "find_root",
    "collect_files",
    "run_check",
]

_NOQA_LINE = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Za-z0-9_,\s]+)\])?")
_NOQA_FILE = re.compile(r"#\s*repro:\s*noqa-file(?:\[([A-Za-z0-9_,\s]+)\])?")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one location."""

    path: str  # repo-relative, posix separators
    line: int
    col: int
    rule: str
    message: str

    def to_obj(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class _Suppressions:
    """Per-file ``# repro: noqa`` state, parsed once from the source."""

    def __init__(self, lines: list[str]) -> None:
        self.by_line: dict[int, set[str] | None] = {}  # None == all rules
        self.whole_file: set[str] | None | bool = False  # False == none
        for lineno, text in enumerate(lines, start=1):
            if "repro:" not in text:
                continue
            m = _NOQA_FILE.search(text)
            if m:
                ids = _parse_id_list(m.group(1))
                if ids is None:
                    self.whole_file = None
                elif self.whole_file is False:
                    self.whole_file = set(ids)
                elif isinstance(self.whole_file, set):
                    self.whole_file.update(ids)
                continue
            m = _NOQA_LINE.search(text)
            if m:
                ids = _parse_id_list(m.group(1))
                existing = self.by_line.get(lineno, set())
                if ids is None or existing is None:
                    self.by_line[lineno] = None
                else:
                    assert isinstance(existing, set)
                    self.by_line[lineno] = existing | set(ids)

    def suppressed(self, rule_id: str, line: int) -> bool:
        if self.whole_file is None:
            return True
        if isinstance(self.whole_file, set) and rule_id in self.whole_file:
            return True
        if line in self.by_line:
            ids = self.by_line[line]
            return ids is None or rule_id in ids
        return False


def _parse_id_list(raw: str | None) -> list[str] | None:
    """``"DET001, DET002"`` -> ids; ``None`` (bare noqa) stays ``None``."""
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


class FileContext:
    """Everything a :class:`FileRule` may inspect about one file."""

    def __init__(self, root: str, relpath: str, source: str) -> None:
        self.root = root
        self.relpath = relpath  # posix separators, repo-relative
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=relpath)
        self.suppressions = _Suppressions(self.lines)
        self._parents: dict[ast.AST, ast.AST] | None = None

    @property
    def parents(self) -> dict[ast.AST, ast.AST]:
        """child -> parent map over the whole tree (built lazily once)."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The node's ancestors, innermost first."""
        parents = self.parents
        current = parents.get(node)
        while current is not None:
            yield current
            current = parents.get(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None


class ProjectContext:
    """Repo-level context for :class:`ProjectRule`; parses on demand."""

    def __init__(self, root: str, files: list[str]) -> None:
        self.root = root
        self.files = files  # repo-relative posix paths in this check run
        self._trees: dict[str, ast.Module | None] = {}

    def read(self, relpath: str) -> str | None:
        path = os.path.join(self.root, *relpath.split("/"))
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return None

    def parse(self, relpath: str) -> ast.Module | None:
        if relpath not in self._trees:
            source = self.read(relpath)
            try:
                self._trees[relpath] = (
                    None if source is None else ast.parse(source, filename=relpath)
                )
            except SyntaxError:
                self._trees[relpath] = None
        return self._trees[relpath]


class Rule:
    """Base rule: stable id, one-line title, default path scope.

    ``paths`` are ``fnmatch`` patterns over repo-relative posix paths;
    ``exclude`` wins over ``paths``.  Subclass :class:`FileRule` or
    :class:`ProjectRule`, never this directly.
    """

    id: str = ""
    title: str = ""
    paths: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        if any(fnmatch.fnmatch(relpath, pattern) for pattern in self.exclude):
            return False
        return any(fnmatch.fnmatch(relpath, pattern) for pattern in self.paths)


class FileRule(Rule):
    """A rule that inspects one file's AST at a time."""

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule that inspects the repository as a whole.

    It runs when any scanned file matches its ``paths`` (its *anchors*),
    so ``repro check src`` runs digest checks but checking one stray
    script does not.
    """

    def check_project(self, ctx: ProjectContext) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register a rule by its id."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> list[Rule]:
    from . import rules as _rules  # noqa: F401  (import registers the battery)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def resolve_rules(select: Iterable[str] | None) -> list[Rule]:
    """The rule battery, optionally narrowed to explicit ids."""
    rules = all_rules()
    if select is None:
        return rules
    known = {rule.id for rule in rules}
    wanted = list(select)
    unknown = [rule_id for rule_id in wanted if rule_id not in known]
    if unknown:
        raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    wanted_set = set(wanted)
    return [rule for rule in rules if rule.id in wanted_set]


@dataclass
class CheckConfig:
    """Rule selection for one check run."""

    select: tuple[str, ...] | None = None


def find_root(start: str) -> str:
    """Ascend from ``start`` to the repo root (pyproject.toml / .git)."""
    path = os.path.abspath(start)
    if os.path.isfile(path):
        path = os.path.dirname(path)
    while True:
        if os.path.exists(os.path.join(path, "pyproject.toml")) or os.path.exists(
            os.path.join(path, ".git")
        ):
            return path
        parent = os.path.dirname(path)
        if parent == path:
            return os.path.abspath(start if os.path.isdir(start) else os.getcwd())
        path = parent


# NOTE: no "dist"/"build" here -- src/repro/dist is a real package (the
# same trap pytest's default norecursedirs documents in pyproject.toml)
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


def collect_files(paths: Iterable[str], root: str) -> list[str]:
    """Expand files/directories into sorted repo-relative .py paths."""
    found: set[str] = set()
    for path in paths:
        path = os.path.abspath(path)
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in _SKIP_DIRS and not d.startswith(".")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        found.add(os.path.join(dirpath, name))
        elif path.endswith(".py"):
            found.add(path)
    rels = {os.path.relpath(p, root).replace(os.sep, "/") for p in found}
    return sorted(rels)


def run_check(
    paths: Iterable[str],
    root: str | None = None,
    config: CheckConfig | None = None,
) -> tuple[list[Finding], list[str]]:
    """Run the battery over ``paths``.

    Returns ``(findings, files_checked)``; findings are sorted by
    position then rule.  Unparseable files produce a ``PARSE`` finding
    rather than aborting the run (ruff owns syntax; we still refuse to
    silently skip).
    """
    paths = list(paths)
    if root is None:
        root = find_root(paths[0] if paths else os.getcwd())
    config = config or CheckConfig()
    rules = resolve_rules(config.select)
    files = collect_files(paths, root)

    findings: list[Finding] = []
    file_rules = [r for r in rules if isinstance(r, FileRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]

    contexts: dict[str, FileContext] = {}
    for relpath in files:
        applicable = [r for r in file_rules if r.applies_to(relpath)]
        if not applicable:
            continue
        abspath = os.path.join(root, *relpath.split("/"))
        try:
            with open(abspath, encoding="utf-8") as fh:
                source = fh.read()
            ctx = FileContext(root, relpath, source)
        except (OSError, SyntaxError, ValueError) as exc:
            findings.append(
                Finding(relpath, 1, 0, "PARSE", f"could not analyze: {exc}")
            )
            continue
        contexts[relpath] = ctx
        for rule in applicable:
            for finding in rule.check_file(ctx):
                if not ctx.suppressions.suppressed(finding.rule, finding.line):
                    findings.append(finding)

    if project_rules:
        project_ctx = ProjectContext(root, files)
        for rule in project_rules:
            if not any(rule.applies_to(relpath) for relpath in files):
                continue
            for finding in rule.check_project(project_ctx):
                ctx = contexts.get(finding.path)
                if ctx is not None and ctx.suppressions.suppressed(
                    finding.rule, finding.line
                ):
                    continue
                findings.append(finding)

    findings.sort()
    return findings, files
