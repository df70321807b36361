"""Unit tests for leave-one-out triple selection (synthetic scores)."""

import pytest

from repro.core import (
    EASY_TRIPLE,
    EASYPP_TRIPLE,
    SpecCampaignResult,
    average_reductions,
    leave_one_out,
    paper_cells,
    selection_consensus,
)

LOGS = ("KTH-SP2", "CTC-SP2", "SDSC-SP2")


def fabricated_result(winner_key: str, logs=LOGS) -> SpecCampaignResult:
    """Hand-built campaign scores where ``winner_key`` dominates everywhere."""
    cells = paper_cells(logs=logs, n_jobs=10, replicas=1)
    order = list(dict.fromkeys(cell.label for cell in cells))
    scores = {}
    for cell in cells:
        base = 50.0 + 3.0 * order.index(cell.label) + 10.0 * logs.index(cell.workload.log)
        if cell.label == winner_key:
            base = 5.0
        if cell.label == EASY_TRIPLE:
            base = 100.0
        if cell.label == EASYPP_TRIPLE:
            base = 60.0
        scores[cell.digest()] = base
    return SpecCampaignResult(cells=cells, scores=scores)


class TestLeaveOneOut:
    def test_selects_dominant_triple_in_every_fold(self):
        winner = "ml:sq-lin-large-area|incremental|easy-sjbf"
        rows = leave_one_out(fabricated_result(winner))
        assert len(rows) == 3
        assert all(row.selected == winner for row in rows)

    def test_scores_reported_on_held_out_log(self):
        winner = "ml:sq-lin-large-area|incremental|easy-sjbf"
        rows = leave_one_out(fabricated_result(winner))
        assert [row.log for row in rows] == list(LOGS)
        for row in rows:
            assert row.cv_score == 5.0
            assert row.easy_score == 100.0
            assert row.easypp_score == 60.0

    def test_reductions(self):
        winner = "ml:sq-lin-large-area|incremental|easy-sjbf"
        rows = leave_one_out(fabricated_result(winner))
        assert rows[0].reduction_vs_easy == pytest.approx(95.0)
        assert rows[0].reduction_vs_easypp == pytest.approx(55.0 / 60.0 * 100.0)
        vs_easy, vs_easypp = average_reductions(rows)
        assert vs_easy == pytest.approx(95.0)

    def test_consensus(self):
        winner = "ml:lin-lin-constant|doubling|easy"
        rows = leave_one_out(fabricated_result(winner))
        triple, folds = selection_consensus(rows)
        assert triple == winner
        assert folds == 3

    def test_clairvoyant_never_selected(self):
        """The references are upper bounds, not deployable triples."""
        result = fabricated_result("nonexistent-key")
        for cell in result.cells:  # make the references unbeatable
            if cell.predictor.name == "clairvoyant":
                result.scores[cell.digest()] = 1.0
        rows = leave_one_out(result)
        assert all(not row.selected.startswith("clairvoyant") for row in rows)

    def test_single_log_rejected(self):
        result = fabricated_result("x", logs=("KTH-SP2",))
        with pytest.raises(ValueError):
            leave_one_out(result)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            selection_consensus([])
        with pytest.raises(ValueError):
            average_reductions([])
