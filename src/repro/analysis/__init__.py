"""``repro.analysis`` -- the AST-based invariant checker behind
``repro check``.

A small rule framework (:mod:`repro.analysis.core`) plus the battery of
repo-specific rules (:data:`repro.analysis.rules.RULES`) that statically
enforce the contracts the reproduction rests on: engine-path
determinism (DET*), crash-durable queue writes (DUR*), encoding
discipline (ENC*), NOOP-guarded telemetry and stdout hygiene (OBS*),
obs dependency-freedom (IMP*), the byte-frozen oracle / ENGINE_VERSION
pact (FRZ001, :mod:`repro.analysis.frozen`), and cache-identity
completeness of engine knobs (SPEC001).

Typical use::

    from repro.analysis import format_text, run_check
    findings, files = run_check(["src"])
    print(format_text(findings, len(files)))

There are no suppression comments: a file a rule must not police goes
into that rule's ``exclude`` patterns.
"""

from .core import Finding, find_root, format_text, run_check
from .frozen import compute_frozen, load_frozen, write_frozen
from .rules import RULES

__all__ = [
    "RULES",
    "Finding",
    "find_root",
    "format_text",
    "run_check",
    "compute_frozen",
    "load_frozen",
    "write_frozen",
]
