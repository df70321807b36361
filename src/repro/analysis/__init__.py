"""``repro.analysis`` -- the AST-based invariant checker behind
``repro check``.

A small rule framework (:mod:`repro.analysis.core`) plus a battery of
repo-specific rules (:mod:`repro.analysis.rules`) that statically
enforce the contracts the reproduction rests on: engine-path
determinism (DET*), crash-durable queue writes (DUR*), encoding
discipline (ENC*), NOOP-guarded telemetry and stdout hygiene (OBS*),
obs dependency-freedom (IMP*), the byte-frozen oracle / ENGINE_VERSION
pact (FRZ001, :mod:`repro.analysis.frozen`), and cache-identity
completeness of engine knobs (SPEC001).

Typical use::

    from repro.analysis import run_check, all_rules
    findings, files = run_check(["src"])

Suppress a deliberate violation on its line with ``# repro: noqa[ID]``.
"""

from .core import (
    CheckConfig,
    FileContext,
    FileRule,
    Finding,
    ProjectContext,
    ProjectRule,
    Rule,
    all_rules,
    collect_files,
    find_root,
    resolve_rules,
    run_check,
)
from .frozen import compute_frozen, load_frozen, write_frozen
from .report import format_json, format_text, to_json_obj

__all__ = [
    "CheckConfig",
    "FileContext",
    "FileRule",
    "Finding",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "collect_files",
    "find_root",
    "resolve_rules",
    "run_check",
    "compute_frozen",
    "load_frozen",
    "write_frozen",
    "format_json",
    "format_text",
    "to_json_obj",
]
