"""Human-readable rendering for ``repro metrics``: snapshots and diffs."""

from __future__ import annotations

__all__ = ["format_snapshots", "diff_snapshots"]


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
