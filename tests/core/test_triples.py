"""Unit tests for the paper's triple matrix (the built-in grid)."""

import pytest

from repro.core import (
    CLAIRVOYANT_EASY,
    CLAIRVOYANT_SJBF,
    EASY_TRIPLE,
    EASYPP_TRIPLE,
    ELOSS_TRIPLE,
    TRIPLE_NAMES,
    paper_cells,
)
from repro.correct import IncrementalCorrector
from repro.predict import MLPredictor, RequestedTimePredictor
from repro.sched import EasyScheduler
from repro.spec import CellSpec, SpecFileError


@pytest.fixture(scope="module")
def cells():
    """The expanded grid on one log, one replica: one cell per triple."""
    return paper_cells(logs=("KTH-SP2",), n_jobs=10, replicas=1)


def campaign(cells):
    return [c for c in cells if c.predictor.name != "clairvoyant"]


class TestEnumeration:
    def test_exactly_128_triples(self, cells):
        """The paper: 'the experimental campaign runs 128 simulations'."""
        triples = campaign(cells)
        assert len(triples) == 128
        assert len({c.label for c in triples}) == 128

    def test_composition(self, cells):
        triples = campaign(cells)
        requested = [c for c in triples if c.predictor.name == "requested"]
        ave2 = [c for c in triples if c.label.startswith("ave2|")]
        learning = [c for c in triples if c.predictor.name == "ml"]
        assert len(requested) == 2  # 2 schedulers, no correction needed
        assert len(ave2) == 6  # 3 correctors x 2 schedulers
        assert len(learning) == 120  # 20 losses x 3 correctors x 2 schedulers

    def test_report_order(self, cells):
        """2 requested, 6 AVE2, 120 learned, then the references."""
        labels = [c.label for c in cells]
        assert labels[:2] == [EASY_TRIPLE, "requested|none|easy-sjbf"]
        assert all(label.startswith("ave2|") for label in labels[2:8])
        assert all(label.startswith("ml:") for label in labels[8:128])
        assert labels[8:10] == [
            "ml:sq-sq-constant|requested|easy",
            "ml:sq-sq-constant|requested|easy-sjbf",
        ]
        assert labels[128:] == [CLAIRVOYANT_EASY, CLAIRVOYANT_SJBF]

    def test_no_clairvoyant_in_campaign(self, cells):
        assert not any(c.label.startswith("clairvoyant") for c in campaign(cells))

    def test_references(self, cells):
        refs = [c for c in cells if c.predictor.name == "clairvoyant"]
        assert [c.label for c in refs] == [CLAIRVOYANT_EASY, CLAIRVOYANT_SJBF]
        assert all(c.corrector is None for c in refs)

    def test_named_triples_in_campaign(self, cells):
        keys = {c.label for c in campaign(cells)}
        assert EASY_TRIPLE in keys
        assert EASYPP_TRIPLE in keys
        assert ELOSS_TRIPLE in keys

    def test_replicas_and_logs_multiply(self):
        cells = paper_cells(logs=("KTH-SP2", "Curie"), n_jobs=10, replicas=2)
        assert len(cells) == 130 * 2 * 2
        assert len({c.digest() for c in cells}) == len(cells)

    def test_bad_campaign_block_rejected(self):
        with pytest.raises(SpecFileError, match="replicas"):
            paper_cells(replicas=0)
        with pytest.raises(SpecFileError, match="unknown log"):
            paper_cells(logs=("Nope",))


class TestTripleMechanics:
    def test_key_round_trip(self, cells):
        for cell in cells[:10]:
            again = CellSpec.from_triple(
                "KTH-SP2", cell.label, n_jobs=10, seed=cell.workload.seed
            )
            assert again == cell
            assert again.digest() == cell.digest()

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError):
            CellSpec.from_triple("KTH-SP2", "a|b")

    @pytest.mark.parametrize(
        "key", ["|none|easy", "requested||easy", "requested|none|", "||"]
    )
    def test_empty_component_rejected(self, key):
        with pytest.raises(ValueError, match="non-empty"):
            CellSpec.from_triple("KTH-SP2", key)

    def test_lowering_to_cell_components(self):
        eloss = CellSpec.from_triple("KTH-SP2", ELOSS_TRIPLE)
        assert eloss.predictor.name == "ml"
        assert eloss.predictor.param_dict["weight"] == "large-area"
        assert eloss.corrector.name == "incremental"
        assert eloss.scheduler.param_dict["order"] == "sjbf"
        assert CellSpec.from_triple("KTH-SP2", EASY_TRIPLE).corrector is None

    def test_build_easy(self):
        spec = CellSpec.from_triple("KTH-SP2", EASY_TRIPLE)
        scheduler, predictor, corrector = spec.build_components()
        assert isinstance(scheduler, EasyScheduler)
        assert scheduler.backfill_order == "fcfs"
        assert isinstance(predictor, RequestedTimePredictor)
        assert corrector is None

    def test_build_eloss_winner(self):
        spec = CellSpec.from_triple("KTH-SP2", ELOSS_TRIPLE)
        scheduler, predictor, corrector = spec.build_components()
        assert isinstance(scheduler, EasyScheduler)
        assert scheduler.backfill_order == "sjbf"
        assert isinstance(predictor, MLPredictor)
        assert predictor.loss.key == "sq-lin-large-area"
        assert isinstance(corrector, IncrementalCorrector)

    def test_build_returns_fresh_state(self):
        spec = CellSpec.from_triple("KTH-SP2", EASYPP_TRIPLE)
        s1, p1, c1 = spec.build_components()
        s2, p2, c2 = spec.build_components()
        assert s1 is not s2
        assert p1 is not p2

    def test_describe_special_names(self):
        assert "EASY" in TRIPLE_NAMES[EASY_TRIPLE]
        assert "EASY++" in TRIPLE_NAMES[EASYPP_TRIPLE]
        assert "winner" in TRIPLE_NAMES[ELOSS_TRIPLE]
