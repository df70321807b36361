"""Human-readable rendering for ``repro metrics``: snapshots, diffs and
the campaign / dispatch / worker event streams."""

from __future__ import annotations

import json
import os
from collections import defaultdict
from collections.abc import Iterable

from .log import get_logger

__all__ = ["format_snapshots", "diff_snapshots", "load_events", "format_events"]

_log = get_logger("obs.render")

_DISPATCH_KINDS = ("enqueue", "requeue", "shard_failed", "dist_done")
#: ``worker_cell`` is the renderer's name for a ``cell`` record that
#: names its shard: the coordinator reports a ``cell`` per result too
_WORKER_KINDS = (
    "worker_start", "claim", "worker_cell", "shard_done", "shard_abandoned",
    "worker_exit",
)


def _fmt(value: float) -> str:
    if value != value:  # NaN guard for torn snapshots
        return "nan"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _rows(snapshot: dict) -> list[tuple[str, str, str]]:
    rows: list[tuple[str, str, str]] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        rows.append((name, "counter", _fmt(value)))
    for name, obj in sorted(snapshot.get("histograms", {}).items()):
        count = obj.get("count", 0)
        total = obj.get("sum", 0.0)
        mean = total / count if count else 0.0
        detail = (
            f"count={count} mean={mean:.6g} "
            f"min={_fmt(obj.get('min') or 0)} max={_fmt(obj.get('max') or 0)}"
        )
        rows.append((name, "histogram", detail))
    return rows


def format_snapshots(snapshots: list[dict]) -> str:
    """Render loaded snapshots, grouped per component."""
    if not snapshots:
        return "no metrics snapshots found"
    blocks: list[str] = []
    for snap in snapshots:
        rows = _rows(snap)
        lines = [f"== {snap.get('component', 'repro')} =="]
        if not rows:
            lines.append("  (empty)")
        else:
            width = max(len(name) for name, _kind, _detail in rows)
            for name, kind, detail in rows:
                lines.append(f"  {name:<{width}}  {kind:<9}  {detail}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def _scalar_map(snapshot: dict) -> dict[str, float]:
    """Counters plus histogram count/sum flattened to diffable scalars."""
    flat: dict[str, float] = dict(snapshot.get("counters", {}))
    for name, obj in snapshot.get("histograms", {}).items():
        flat[f"{name}:count"] = obj.get("count", 0)
        flat[f"{name}:sum"] = obj.get("sum", 0.0)
    return flat


def diff_snapshots(baseline: list[dict], current: list[dict]) -> str:
    """Per-component deltas of every cumulative metric (current - baseline).

    Counters and histogram count/sum are cumulative, so the delta is
    the activity between the two snapshots.
    """
    base = {s.get("component", "repro"): _scalar_map(s) for s in baseline}
    cur = {s.get("component", "repro"): _scalar_map(s) for s in current}
    components = sorted(set(base) | set(cur))
    blocks: list[str] = []
    for component in components:
        before = base.get(component, {})
        after = cur.get(component, {})
        deltas = [
            (name, after.get(name, 0.0) - before.get(name, 0.0))
            for name in sorted(set(before) | set(after))
        ]
        deltas = [(name, delta) for name, delta in deltas if delta != 0.0]
        lines = [f"== {component} (delta) =="]
        if not deltas:
            lines.append("  (no change)")
        else:
            width = max(len(name) for name, _delta in deltas)
            for name, delta in deltas:
                sign = "+" if delta > 0 else ""
                lines.append(f"  {name:<{width}}  {sign}{_fmt(delta)}")
        blocks.append("\n".join(lines))
    if not blocks:
        return "no metrics snapshots found"
    return "\n\n".join(blocks)


def load_events(path: str) -> list[dict]:
    """The trace records under ``path``: one JSONL stream, or every
    ``*.jsonl`` of a directory in name order (a ``--telemetry`` directory,
    a queue's ``progress/``).

    A line that does not parse (a live writer's torn tail) or parses to
    something other than an object, and a stream that vanished between
    listing and opening, are skipped with a warning, never fatal.  File
    order, then line order, is kept: ``elapsed`` is each writer's own
    clock and must not be compared across streams.  A record without a
    ``component`` gets its file's stem.
    """
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".jsonl"))
        paths = [os.path.join(path, name) for name in names]
    else:
        paths = [path]
    events: list[dict] = []
    for stream in paths:
        try:
            with open(stream, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            _log.warning("could not read event stream %s: %s", stream, exc)
            continue
        stem = os.path.splitext(os.path.basename(stream))[0]
        skipped = 0
        for line in filter(str.strip, lines):
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                event = None
            if isinstance(event, dict):
                event.setdefault("component", stem)
                events.append(event)
            else:
                skipped += 1
        if skipped:
            _log.warning("skipped %d unparseable line(s) in %s", skipped, stream)
    return events


def _seconds(later: dict, earlier: dict) -> float:
    return float(later.get("elapsed", 0.0)) - float(earlier.get("elapsed", 0.0))


def _campaign_lines(component: str, by_kind: dict[str, list[dict]]) -> list[str]:
    start, cells = by_kind["start"][0], by_kind["cell"]
    total = int(start.get("total", 0))
    cached = int(start.get("cached", 0))
    pending = int(start.get("pending", max(total - cached, 0)))
    lines = [
        f"{component}: {total} cells ({cached} cached, {pending} to simulate)",
        f"simulated: {len(cells)}/{pending}",
    ]
    if cells:
        per_log: defaultdict[str, int] = defaultdict(int)
        for cell in cells:
            per_log[str(cell.get("log", "?"))] += 1
        for log in start.get("logs", sorted(per_log)):
            if log in per_log:
                lines.append(f"  {log}: {per_log[log]} cells")
        elapsed = _seconds(cells[-1], start)
        if elapsed > 0:
            rate = len(cells) / elapsed
            lines.append(f"throughput: {rate:.2f} simulations/s over {elapsed:.0f}s")
            if not by_kind["end"] and len(cells) < pending:
                remaining = (pending - len(cells)) / rate
                lines.append(f"estimated remaining: {remaining:.0f}s")
    if by_kind["end"]:
        lines.append(f"finished in {_seconds(by_kind['end'][0], start):.0f}s")
    return lines


def _dispatch_lines(by_kind: dict[str, list[dict]]) -> list[str]:
    lines: list[str] = []
    if by_kind["enqueue"]:
        enqueue = by_kind["enqueue"][0]
        lines.append(
            f"distributed campaign: {enqueue.get('shards', '?')} shard(s), "
            f"{enqueue.get('cells', '?')} cell(s) enqueued "
            f"(generation {enqueue.get('generation', '?')})"
        )
    for kind, what in (
        ("requeue", "lease expiries re-queued"),
        ("shard_failed", "shards FAILED (attempts exhausted)"),
    ):
        if by_kind[kind]:
            shards = ", ".join(sorted({str(e.get("shard")) for e in by_kind[kind]}))
            lines.append(f"{what}: {len(by_kind[kind])} ({shards})")
    if by_kind["dist_done"]:
        done = by_kind["dist_done"][0]
        merge = f"; {done['merge']}" if done.get("merge") else ""
        lines.append(f"finished: {done.get('shards', '?')} shard(s){merge}")
    return lines


def _worker_line(component: str, by_kind: dict[str, list[dict]], last: dict) -> str:
    exits = by_kind["worker_exit"]
    state = f"exited ({exits[-1].get('reason', '')})" if exits else "running"
    abandoned = len(by_kind["shard_abandoned"])
    return (
        f"  {component}: {len(by_kind['worker_cell'])} cell(s), "
        f"{len(by_kind['shard_done'])}/{len(by_kind['claim'])} shard(s) done"
        + (f", {abandoned} abandoned" if abandoned else "")
        + f", {state}, {float(last.get('elapsed', 0.0)):.0f}s"
    )


def format_events(events: Iterable[dict]) -> str:
    """Render the lifecycle records of :func:`load_events`, a finished run
    or a snapshot of a live one; ``""`` when there are none.

    Per coordinator: cells cached / simulated, per-log counts, throughput
    and -- while it runs -- the estimated remainder; what was enqueued,
    lease expiries re-queued, failed shards, the merge.  Per worker:
    cells, shards done / claimed, abandoned, state and exit reason.  Any
    subset renders.  A stream is appended to by every run of its
    component (``start`` / ``worker_start`` opens one): the last is shown.
    """
    runs: dict[str, list[dict]] = {}
    for event in events:
        run = runs.setdefault(str(event.get("component", "?")), [])
        if event.get("kind") in ("start", "worker_start"):
            run.clear()
        run.append(event)
    lines: list[str] = []
    workers: list[str] = []
    worker_cells = 0
    for component, run in runs.items():
        by_kind: defaultdict[str, list[dict]] = defaultdict(list)
        for event in run:
            kind = str(event.get("kind"))
            if kind == "cell" and "shard" in event:
                kind = "worker_cell"
            by_kind[kind].append(event)
        if by_kind["start"]:
            lines += _campaign_lines(component, by_kind)
        if any(by_kind[kind] for kind in _DISPATCH_KINDS):
            lines += _dispatch_lines(by_kind)
        if any(by_kind[kind] for kind in _WORKER_KINDS):
            workers.append(_worker_line(component, by_kind, run[-1]))
            worker_cells += len(by_kind["worker_cell"])
    if workers:
        lines += sorted(workers)
        lines.append(f"cells simulated across workers: {worker_cells}")
    return "\n".join(lines)
