"""Plain-text rendering of the paper's tables and campaign leaderboards.

Everything renders to strings (not stdout); ``repro table`` and ``repro
campaign`` print them.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = [
    "format_table",
    "format_leaderboard",
    "format_percent",
]

#: scheduler family marking a leaderboard row as learned (trained
#: checkpoint behind the registry) rather than heuristic.
LEARNED_FAMILIES = ("rl-backfill",)


def format_leaderboard(
    rows: Sequence,
    title: str = "Scenario leaderboard",
    baseline: str | None = None,
) -> str:
    """Render :meth:`SpecCampaignResult.leaderboard` rows, best first.

    Each row is tagged ``learned`` or ``heuristic`` (learned = the
    scheduler is a trained-checkpoint family), so ranked comparisons of
    trained policies against the paper's triples read at a glance.
    ``baseline`` (a row label) adds a per-row percentage column relative
    to that row's mean score -- negative means better than the baseline.
    """
    base_score = None
    if baseline is not None:
        base_score = next(
            (row.mean_score for row in rows if row.label == baseline), None
        )
    table_rows = []
    for row in rows:
        kind = (
            "learned"
            if any(family in row.label for family in LEARNED_FAMILIES)
            else "heuristic"
        )
        cells = [
            row.label,
            kind,
            f"{row.mean_score:.2f}",
            str(row.n_cells),
            "cached" if row.mean_seconds is None else f"{row.mean_seconds:.2f}",
        ]
        if base_score:
            delta = (row.mean_score - base_score) / base_score * 100.0
            cells.append(f"{delta:+.0f}%")
        table_rows.append(tuple(cells))
    headers = ["Components", "kind", "mean AVEbsld", "cells", "mean s/cell"]
    if base_score:
        headers.append(f"vs {baseline}")
    return format_table(headers, table_rows, title=title)


def format_percent(value: float) -> str:
    """Render a reduction percentage the way the paper does: (28%)."""
    return f"({value:.0f}%)"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width text table with right-aligned numeric columns."""
    rendered: list[list[str]] = []
    for row in rows:
        rendered.append(
            [f"{c:.1f}" if isinstance(c, float) else str(c) for c in row]
        )
    widths = [len(h) for h in headers]
    for row in rendered:
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        out = []
        for idx, cell in enumerate(cells):
            if idx == 0:
                out.append(cell.ljust(widths[idx]))
            else:
                out.append(cell.rjust(widths[idx]))
        return "  ".join(out)

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in rendered)
    return "\n".join(lines)
