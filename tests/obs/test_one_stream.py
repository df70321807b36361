"""One event stream, statically: every campaign / dispatch / worker
lifecycle kind is emitted by one ``.event(`` call with a literal kind,
and nothing of the retired second stream (``ProgressLog``, its ``emit``
callback, the dict-with-an-``"event"``-key vocabulary) is left in ``src/``."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: module -> the kinds it emits, each from exactly one call site
SITES = {
    "core/campaign.py": {"start", "cell", "end"},
    "dist/broker.py": {"enqueue", "requeue", "shard_failed", "dist_done"},
    "dist/worker.py": {
        "worker_start", "claim", "cell", "shard_done", "shard_abandoned",
        "worker_exit",
    },
}
#: keyword / parameter names of the retired plumbing, looked for in the
#: modules that carried it (the keys of ``SITES``) and nowhere else
RETIRED = {"emit", "progress_path", "echo"}


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text("utf-8"))


def _event_calls(tree: ast.AST) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "event"
    ]


def test_each_lifecycle_kind_has_one_emitting_call_per_module():
    kinds = set().union(*SITES.values())
    assert len(kinds) == 12
    found: dict[str, list[str]] = {}
    for module, tree in _trees():
        if module.startswith("obs/"):
            continue  # the writer itself (spans go through event() too)
        for call in _event_calls(tree):
            kind = call.args[0]
            # a computed kind would hide a site from this count
            assert isinstance(kind, ast.Constant) and isinstance(kind.value, str), (
                f"{module}:{call.lineno}: event kind is not a string literal"
            )
            if kind.value in kinds:
                found.setdefault(module, []).append(kind.value)
    assert {m: sorted(k) for m, k in found.items()} == {
        m: sorted(k) for m, k in SITES.items()
    }
    assert sum(len(k) for k in found.values()) == 13


def test_nothing_of_the_second_stream_is_left():
    for module, tree in _trees():
        for node in ast.walk(tree):
            where = f"{module}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Dict):
                keys = [k.value for k in node.keys if isinstance(k, ast.Constant)]
                assert "event" not in keys, f"{where}: a dict-built event record"
            elif isinstance(node, (ast.Name, ast.ClassDef, ast.Attribute)):
                name = getattr(node, "id", None) or getattr(node, "name", None) or node.attr
                assert name != "ProgressLog", where
            elif module not in SITES:
                continue
            elif isinstance(node, ast.Call):
                passed = {kw.arg for kw in node.keywords}
                assert not passed & RETIRED, f"{where}: passes {passed & RETIRED}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                assert not names & RETIRED, f"{where}: takes {names & RETIRED}"


def test_plumbing_signatures():
    import inspect

    from repro.core import run_cells
    from repro.dist import Broker, run_worker

    assert list(inspect.signature(Broker.dispatch).parameters) == [
        "self", "cells", "on_result", "telemetry",
    ]
    assert not {"progress", "progress_path"} & set(inspect.signature(run_cells).parameters)
    assert "echo" not in inspect.signature(run_worker).parameters


def test_one_jsonl_writer_class():
    """Classes that open a file to append to it (or in a mode they compute):
    the cache (its own record format, torn-tail repair) and the one sink."""
    writers = []
    for module, tree in _trees():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            modes = [
                call.args[1]
                for call in ast.walk(cls)
                if isinstance(call, ast.Call)
                and getattr(call.func, "id", "") == "open"
                and len(call.args) > 1
            ]
            if any(not isinstance(m, ast.Constant) or "a" in str(m.value) for m in modes):
                writers.append(f"{module}:{cls.name}")
    assert writers == ["core/campaign.py:ResultCache", "obs/sinks.py:JsonlTraceSink"]
