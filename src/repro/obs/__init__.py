"""Unified telemetry: tracing spans, counters/histograms, introspection.

The package has four parts:

* :mod:`repro.obs.telemetry` -- the instrumentation core.  A
  :class:`Telemetry` registry records counters, power-of-two bucketed
  histograms and timed spans; the module-level :data:`NOOP`
  singleton makes the disabled path cost one attribute check, which is
  what every hot loop in the engine holds by default.
* :mod:`repro.obs.sinks` -- where recordings go: an append-only JSONL
  trace sink for spans/events, Prometheus text exposition, and the
  snapshot-directory layout (``metrics-<component>.json``/``.prom``)
  that ``repro metrics`` renders and diffs.
* :mod:`repro.obs.render` -- what ``repro metrics`` prints: snapshot
  tables and diffs, and the campaign / worker lifecycle events read
  back from the trace streams.
* :mod:`repro.obs.log` -- the shared stdlib-logging setup
  (``REPRO_LOG`` / ``--verbose``) every long-running component adopts.

Nothing here imports the rest of ``repro``, so any layer can depend on
it without cycles.
"""

from .log import get_logger, resolve_level, setup_logging
from .render import diff_snapshots, format_events, format_snapshots, load_events
from .sinks import JsonlTraceSink, load_snapshots, prom_text, write_snapshot
from .telemetry import NOOP, Histogram, Telemetry

__all__ = [
    "Telemetry",
    "Histogram",
    "NOOP",
    "JsonlTraceSink",
    "prom_text",
    "write_snapshot",
    "load_snapshots",
    "format_snapshots",
    "diff_snapshots",
    "load_events",
    "format_events",
    "get_logger",
    "setup_logging",
    "resolve_level",
]
