"""Telemetry sinks: JSONL traces, Prometheus text, snapshot directories.

A telemetry *directory* (the ``--telemetry DIR`` target) holds, per
component, up to three files:

``metrics-<component>.json``
    the registry snapshot (:meth:`repro.obs.telemetry.Telemetry.snapshot`),
    the machine-readable form ``repro metrics`` loads and diffs;
``metrics-<component>.prom``
    the same state in Prometheus text exposition, scrape-ready;
``trace-<component>.jsonl``
    an append-only stream of span/event records written live (a worker's
    is ``QUEUE/progress/<worker>.jsonl`` instead: same writer, same
    records, on the queue's filesystem where every host can read it).

Components never share files, so concurrent writers (a coordinator and
several workers on one shared directory) cannot corrupt each other.
"""

from __future__ import annotations

import json
import os
import re
import time
from typing import IO

from .telemetry import bucket_bound

__all__ = [
    "JsonlTraceSink",
    "prom_text",
    "write_snapshot",
    "load_snapshots",
    "snapshot_paths",
]

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")


class JsonlTraceSink:
    """Append-only JSONL trace file; one JSON object per line.

    Opened lazily on the first write so constructing a sink for a run
    that emits nothing leaves no file behind.  Each line is flushed:
    trace records are rare (spans, lifecycle events -- not per-event
    counters), and a crash must not swallow the records explaining it.
    Every record is stamped ``elapsed``: monotonic seconds since the
    sink was built, the clock throughput and ETA are read from.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh: IO[str] | None = None
        self._t0 = time.monotonic()

    def write(self, record: dict) -> None:
        record = {**record, "elapsed": round(time.monotonic() - self._t0, 3)}
        if self._fh is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _prom_name(name: str) -> str:
    return "repro_" + _PROM_BAD.sub("_", name)


def prom_text(snapshot: dict) -> str:
    """Render one registry snapshot as Prometheus text exposition.

    Counters become ``repro_<name>_total`` and histograms cumulative
    ``_bucket{le=...}`` series plus ``_sum`` and ``_count`` -- the
    standard histogram triplet, with bucket edges at the registry's
    power-of-two bounds.
    """
    component = snapshot.get("component", "repro")
    label = f'{{component="{component}"}}'
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _prom_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{label} {value:g}")
    for name, obj in sorted(snapshot.get("histograms", {}).items()):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for key in sorted(obj.get("buckets", {}), key=int):
            cumulative += obj["buckets"][key]
            bound = bucket_bound(int(key))
            lines.append(
                f'{metric}_bucket{{component="{component}",le="{bound:g}"}} '
                f"{cumulative}"
            )
        lines.append(
            f'{metric}_bucket{{component="{component}",le="+Inf"}} '
            f"{obj.get('count', 0)}"
        )
        lines.append(f"{metric}_sum{label} {obj.get('sum', 0.0):g}")
        lines.append(f"{metric}_count{label} {obj.get('count', 0)}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_paths(directory: str, component: str) -> tuple[str, str]:
    """(json path, prom path) for one component under ``directory``."""
    return (
        os.path.join(directory, f"metrics-{component}.json"),
        os.path.join(directory, f"metrics-{component}.prom"),
    )


def write_snapshot(snapshot: dict, directory: str) -> str:
    """Write a snapshot's .json + .prom files; returns the json path."""
    os.makedirs(directory, exist_ok=True)
    json_path, prom_path = snapshot_paths(
        directory, snapshot.get("component", "repro")
    )
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(prom_path, "w", encoding="utf-8") as fh:
        fh.write(prom_text(snapshot))
    return json_path


def load_snapshots(directory: str) -> list[dict]:
    """Load every ``metrics-*.json`` snapshot under ``directory``.

    Sorted by component name; unreadable or non-object files are
    skipped (a crashed writer must not take the renderer down).
    """
    snapshots: list[dict] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return snapshots
    for name in names:
        if not (name.startswith("metrics-") and name.endswith(".json")):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path, encoding="utf-8") as fh:
                snap = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(snap, dict):
            snap.setdefault("component", name[len("metrics-") : -len(".json")])
            snapshots.append(snap)
    return snapshots
