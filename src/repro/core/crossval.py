"""Leave-one-out triple selection (paper Section 6.3.3, Table 7).

For each workload log, the best heuristic triple is chosen on the *other*
five logs (the one minimising their summed AVEbsld) and evaluated on the
held-out log.  The paper finds the same triple selected in (almost) every
fold -- the E-Loss / Incremental / EASY-SJBF combination -- and reports
its AVEbsld against EASY and EASY++.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .campaign import SpecCampaignResult
from .triples import EASY_TRIPLE, EASYPP_TRIPLE

__all__ = ["CrossValidationRow", "leave_one_out", "selection_consensus"]


@dataclass(frozen=True)
class CrossValidationRow:
    """One fold of the leave-one-out evaluation."""

    log: str
    selected: str  # label of the triple chosen on the other logs
    cv_score: float  # AVEbsld of the selected triple on the held-out log
    easy_score: float
    easypp_score: float

    @property
    def reduction_vs_easy(self) -> float:
        """Percent AVEbsld reduction vs EASY (paper's parenthesised value)."""
        return (self.easy_score - self.cv_score) / self.easy_score * 100.0

    @property
    def reduction_vs_easypp(self) -> float:
        return (self.easypp_score - self.cv_score) / self.easypp_score * 100.0


def leave_one_out(result: SpecCampaignResult) -> list[CrossValidationRow]:
    """Table 7: per-log cross-validated triple and its scores."""
    logs = result.logs()
    if len(logs) < 2:
        raise ValueError("leave-one-out needs at least two logs")
    rows: list[CrossValidationRow] = []
    for held_out in logs:
        training = [log for log in logs if log != held_out]
        selected = result.best_label(logs=training)
        rows.append(
            CrossValidationRow(
                log=held_out,
                selected=selected,
                cv_score=result.mean(held_out, selected),
                easy_score=result.mean(held_out, EASY_TRIPLE),
                easypp_score=result.mean(held_out, EASYPP_TRIPLE),
            )
        )
    return rows


def selection_consensus(rows: list[CrossValidationRow]) -> tuple[str, int]:
    """The modal selected triple (label) and how many folds chose it.

    The paper reports the same triple selected in every fold but one.
    """
    if not rows:
        raise ValueError("no cross-validation rows")
    counts: dict[str, int] = {}
    for row in rows:
        counts[row.selected] = counts.get(row.selected, 0) + 1
    best = max(counts, key=lambda label: counts[label])
    return best, counts[best]


def average_reductions(rows: list[CrossValidationRow]) -> tuple[float, float]:
    """(mean % reduction vs EASY, mean % reduction vs EASY++).

    The paper's headline numbers are 28% and 11%.
    """
    if not rows:
        raise ValueError("no cross-validation rows")
    vs_easy = float(np.mean([r.reduction_vs_easy for r in rows]))
    vs_easypp = float(np.mean([r.reduction_vs_easypp for r in rows]))
    return vs_easy, vs_easypp
