"""The invariant-checker framework: findings, rules, the checker, its report.

``repro.analysis`` is a rule-based static analyzer over Python ASTs that
enforces the repo's *semantic* contracts -- determinism of the engine
paths, cache-identity completeness, durability of the distributed queue
-- at lint time, before any trace has to hit the violation dynamically.

The moving parts:

* :class:`Finding` -- one violation: rule id, file, position, message.
* :class:`Rule` -- base of :class:`FileRule` (runs per matching file
  against its AST) and :class:`ProjectRule` (runs once per check over
  the repository; digest and cross-file consistency checks).  Rule ids
  never get reused, so they stay meaningful across versions.
* path scopes -- every rule declares the repo-relative ``fnmatch``
  patterns it polices, because the contracts are *regional*: wall-clock
  reads are fine in the coordinator but forbidden in the engine.  A
  rule's ``exclude`` patterns are the one way to exempt a file.

:func:`run_check` runs the battery (``rules.RULES``) over some paths;
:func:`format_text` renders the result.
"""

from __future__ import annotations

import ast
import fnmatch
import os
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

__all__ = [
    "Finding",
    "Rule",
    "FileRule",
    "ProjectRule",
    "FileContext",
    "ProjectContext",
    "find_root",
    "collect_files",
    "run_check",
    "format_text",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one location."""

    path: str  # repo-relative, posix separators
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _import_map(tree: ast.Module) -> dict[str, str]:
    """Each name the file's imports bind -> the dotted name it stands for."""
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:  # a bare `import a.b` binds `a`: itself
                    imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (f"{node.module}." if node.module else "")
            for alias in node.names:
                imports[alias.asname or alias.name] = module + alias.name
    return imports


class FileContext:
    """Everything a :class:`FileRule` may inspect about one file."""

    def __init__(self, relpath: str, source: str) -> None:
        self.relpath = relpath  # posix separators, repo-relative
        self.tree = ast.parse(source, filename=relpath)
        self._imports = _import_map(self.tree)
        self._parents: dict[ast.AST, ast.AST] | None = None

    def dotted_name(self, node: ast.AST) -> str | None:
        """``a.b.c`` for Name/Attribute chains, else ``None``.  The first
        name reads as what it was imported as: after ``import numpy as
        np``, ``np.random.rand`` is ``numpy.random.rand``; after ``from
        time import time``, ``time`` is ``time.time``."""
        if isinstance(node, ast.Name):
            return self._imports.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self.dotted_name(node.value)
            return f"{base}.{node.attr}" if base else None
        return None

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

    def __init__(self, root: str) -> None:
        self.root = root
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
    """Base rule: stable id and path scope.

    ``paths`` are ``fnmatch`` patterns over repo-relative posix paths;
    ``exclude`` wins over ``paths``.  Subclass :class:`FileRule` or
    :class:`ProjectRule`, never this directly.
    """

    id: str = ""
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
    paths: Iterable[str], root: str | None = None
) -> tuple[list[Finding], list[str]]:
    """Run the battery over ``paths``.

    Returns ``(findings, files_checked)``; findings are sorted by
    position then rule.  Unparseable files produce a ``PARSE`` finding
    rather than aborting the run (ruff owns syntax; we still refuse to
    silently skip).
    """
    from .rules import RULES  # the battery builds on this module

    paths = list(paths)
    if root is None:
        root = find_root(paths[0] if paths else os.getcwd())
    files = collect_files(paths, root)
    file_rules = [r for r in RULES if isinstance(r, FileRule)]
    project_rules = [r for r in RULES if isinstance(r, ProjectRule)]

    findings: list[Finding] = []
    for relpath in files:
        applicable = [r for r in file_rules if r.applies_to(relpath)]
        if not applicable:
            continue
        abspath = os.path.join(root, *relpath.split("/"))
        try:
            with open(abspath, encoding="utf-8") as fh:
                ctx = FileContext(relpath, fh.read())
        except (OSError, SyntaxError, ValueError) as exc:
            findings.append(
                Finding(relpath, 1, 0, "PARSE", f"could not analyze: {exc}")
            )
            continue
        for rule in applicable:
            findings.extend(rule.check_file(ctx))

    project_ctx = ProjectContext(root)
    for rule in project_rules:
        if any(rule.applies_to(relpath) for relpath in files):
            findings.extend(rule.check_project(project_ctx))

    findings.sort()
    return findings, files


def format_text(findings: Sequence[Finding], files_checked: int) -> str:
    """Human-facing report: one line per finding plus a summary line."""
    from .rules import RULES

    lines = [finding.render() for finding in findings]
    if findings:
        counts = Counter(finding.rule for finding in findings)
        by_rule = ", ".join(f"{rule}:{n}" for rule, n in sorted(counts.items()))
        lines.append("")
        lines.append(
            f"{len(findings)} finding(s) in {files_checked} file(s) ({by_rule})"
        )
    else:
        lines.append(
            f"ok: {files_checked} file(s) clean under {len(RULES)} rule(s) "
            f"({', '.join(rule.id for rule in RULES)})"
        )
    return "\n".join(lines)
