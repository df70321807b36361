"""Tables 1, 4, 6, 7 and 8 of the paper, as shapes.

Table 4 needs no campaign and stays in tier-1.  The others read the
shared campaign or the Curie prediction replay (marker ``paper``; sizes
in ``conftest.py``) through the same ``table*_rows`` / ``leave_one_out``
functions that ``repro table 1|6|7|8`` renders.
"""

import numpy as np
import pytest

from repro.core import average_reductions, leave_one_out, selection_consensus, table8_rows
from repro.workload import ARCHIVE, get_trace

from tests.paper.reference import (
    PAPER_TABLE6,
    PAPER_TABLE7,
    PAPER_TABLE7_REDUCTIONS,
    PAPER_TABLE8,
)

#: Jobs per synthetic log in the Table 4 fidelity check.
TABLE4_JOBS = 1500


@pytest.mark.parametrize("name", list(ARCHIVE))
def test_table4_synthetic_log_meets_its_calibration(name):
    """Table 4 lists the six production logs (the published metadata is
    pinned in ``tests/workload/test_archive.py``).  Each synthetic
    stand-in must realise its calibration: the exact job count, several
    users, a loaded machine and requested times far above the runtimes.

    At 1500 jobs: 22-31 users, offered load 0.71-0.86, mean requested /
    actual runtime 86x-687x.
    """
    stats = get_trace(name, n_jobs=TABLE4_JOBS).stats()
    assert stats.n_jobs == TABLE4_JOBS
    assert stats.n_users >= 5
    assert stats.offered_load > 0.45
    assert stats.mean_overestimation > 2.0


@pytest.mark.paper
class TestTable1:
    """Table 1: replacing user estimates with actual running times in
    plain EASY lowers AVEbsld on every log (paper: 16-65 %, mean 27 %).

    Over seven campaign sizes (see Fig 3) the mean reduction was 5.9-52.9 %
    and it was positive on 5 or 6 logs; 51.5 % on 6 logs at 1000x1.
    """

    #: the paper's reduction per log, % (Table 1 is Table 6's EASY and
    #: Clairvoyant FCFS columns)
    PAPER = {log: (row[2] - row[0]) / row[2] * 100.0 for log, row in PAPER_TABLE6.items()}

    def test_clairvoyance_helps_on_average(self, campaign):
        ours = np.mean([row[3] for row in campaign.table1_rows()])
        paper = np.mean(list(self.PAPER.values()))
        assert ours > 0.0, f"mean reduction {ours:.1f} %, paper {paper:.1f} %"

    def test_clairvoyance_helps_on_five_logs_of_six(self, campaign):
        ours = {log: round(reduction) for log, _easy, _clair, reduction in campaign.table1_rows()}
        paper = {log: round(reduction) for log, reduction in self.PAPER.items()}
        helped = [log for log, reduction in ours.items() if reduction > 0]
        assert len(helped) >= 5, f"reduction % per log: ours {ours}, paper {paper}"


def clairvoyant_sjbf_is_best_in_class(clair_fcfs, clair_sjbf, easy, easypp, _f, _s):
    return clair_sjbf <= min(clair_fcfs, easy) and clair_sjbf <= easypp * 1.25


def best_learning_triple_beats_easy(_cf, _cs, easy, _pp, _f, sjbf):
    return sjbf[0] < easy


def best_learning_triple_matches_easypp(_cf, _cs, _e, easypp, _f, sjbf):
    return sjbf[0] <= easypp * 1.05


def learning_range_is_wide(_cf, _cs, _e, _pp, _f, sjbf):
    return sjbf[1] >= 1.5 * sjbf[0]


#: Table 6's shapes: a predicate on a row (the columns of ``PAPER_TABLE6``)
#: and the least number of the six logs it must hold on.
TABLE6_SHAPES = {
    clairvoyant_sjbf_is_best_in_class: 4,
    best_learning_triple_beats_easy: 6,
    best_learning_triple_matches_easypp: 4,
    learning_range_is_wide: 4,
}


def logs_where(rows, shape) -> list[str]:
    """The logs of ``(log, *row)`` tuples whose row has ``shape``."""
    return [log for log, *row in rows if shape(*row)]


@pytest.mark.parametrize("shape", list(TABLE6_SHAPES), ids=lambda shape: shape.__name__)
def test_table6_band_holds_on_the_papers_numbers(shape):
    """Every Table 6 band is one the paper's own rows meet.  The learning
    ranges are wide on four logs of six (not KTH-SP2 or MetaCentrum);
    the other shapes hold on all six."""
    logs = logs_where(((log, *row) for log, row in PAPER_TABLE6.items()), shape)
    assert len(logs) >= TABLE6_SHAPES[shape], logs


@pytest.mark.paper
class TestTable6:
    """Table 6, per log: the clairvoyant references (FCFS and SJBF backfill
    order), EASY, EASY++ and the best-worst range of the 60 learning
    triples of each order.  Clairvoyant EASY-SJBF (nearly) always wins,
    the best learning triple uses SJBF and beats EASY, and the learning
    ranges are wide -- which is why Table 7 *selects* a triple.

    Over the seven campaign sizes: clairvoyant SJBF best-in-class on 5-6
    logs, best learning / EASY 0.03-0.82, best learning within 5 % of
    EASY++ on 5-6 logs, worst learning >= 1.5x best on all 6.  Each
    message names the logs where the shape holds for us and in the paper.
    """

    @staticmethod
    def assert_holds(campaign, shape):
        ours = logs_where(campaign.table6_rows(), shape)
        paper = logs_where(((log, *row) for log, row in PAPER_TABLE6.items()), shape)
        assert len(ours) >= TABLE6_SHAPES[shape], f"holds on {ours}; in the paper on {paper}"

    def test_clairvoyant_sjbf_is_best_in_class(self, campaign):
        self.assert_holds(campaign, clairvoyant_sjbf_is_best_in_class)

    def test_best_learning_triple_beats_easy_everywhere(self, campaign):
        self.assert_holds(campaign, best_learning_triple_beats_easy)

    def test_best_learning_triple_matches_easypp(self, campaign):
        """Section 6.3.1: the best approach is always a predictive-corrective one."""
        self.assert_holds(campaign, best_learning_triple_matches_easypp)

    def test_learning_ranges_are_wide(self, campaign):
        self.assert_holds(campaign, learning_range_is_wide)

    def test_the_campaign_has_128_competing_triples(self, campaign):
        """'The experimental campaign runs 128 simulations' per log."""
        labels = campaign.competing_labels()
        assert len(labels) == 128
        for log in campaign.logs():
            scores = campaign.score_vector(log, labels)
            assert scores.shape == (128,), log
            assert np.isfinite(scores).all(), log
            assert (scores >= 1.0).all(), log


@pytest.mark.paper
class TestTable7:
    """Table 7: for each log, the triple with the lowest summed AVEbsld on
    the other five, scored on the held-out one.  It beats EASY on every
    log (paper: 5-86 %, mean 28 %) and EASY++ on average (11 %); the same
    E-Loss / Incremental / EASY-SJBF triple wins in every fold but one.

    Against EASY++ our selection lands near parity, not at +11 %: on
    these synthetic draws AVE2-family and requested-time-corrected
    triples are competitive with learning, though the best *per-log*
    learning triple does match EASY++ (Table 6).  The band only guards
    against a clearly worse selection.  Our consensus is a learned SJBF
    triple too, but with a symmetric loss (``lin-lin`` or ``sq-sq``) and
    mostly the requested-time correction, not E-Loss / Incremental.

    Over the seven campaign sizes: beats EASY on 4-6 logs (4 at 800x2),
    mean reduction 13.4-74.1 % against EASY and 0.5-45.1 % against
    EASY++, consensus in 4-6 folds; 6 logs, 74.1 % / 41.4 %, 5 folds at
    1000x1.
    """

    def test_cross_validated_triple_beats_easy(self, campaign):
        rows = leave_one_out(campaign)
        ours = {row.log: round(row.reduction_vs_easy) for row in rows}
        paper = {log: reduction for log, (_cv, reduction) in PAPER_TABLE7.items()}
        assert sum(row.reduction_vs_easy > 0 for row in rows) >= 5, (
            f"reduction vs EASY % per log: ours {ours}, paper {paper}"
        )

    def test_average_reductions(self, campaign):
        vs_easy, vs_easypp = average_reductions(leave_one_out(campaign))
        ours = f"ours {vs_easy:.0f} % / {vs_easypp:.0f} %"
        paper = "paper {:.0f} % / {:.0f} %".format(*PAPER_TABLE7_REDUCTIONS)
        assert vs_easy > 10.0, f"reduction vs EASY / EASY++: {ours}, {paper}"
        assert vs_easypp > -15.0, f"reduction vs EASY / EASY++: {ours}, {paper}"

    def test_selection_is_a_predictive_sjbf_consensus(self, campaign):
        rows = leave_one_out(campaign)
        consensus, folds = selection_consensus(rows)
        assert consensus.endswith("|easy-sjbf"), consensus
        assert not consensus.startswith("requested|"), consensus
        assert folds >= 3, f"{consensus} selected in {folds}/6 folds; paper: 5/6"
        picked = [row.selected for row in rows]
        assert not any(label.startswith("requested|") for label in picked), picked


@pytest.mark.paper
class TestTable8:
    """Table 8 on Curie: AVE2 is competitive on plain MAE (paper: 5217 s
    against 6762 s) yet loses to the E-Loss model by orders of magnitude
    on the scheduling-aware mean E-Loss (10.2e8 against 2.35e5).
    Accuracy and usefulness for backfilling are different things.

    Over Curie sizes 1000-5000 x three seeds, AVE2 / E-Loss mean E-Loss
    ranged 2.6x-34 000x, below 10x on three draws (6.5x and 2.6x at
    1000 jobs, 6.0x at 2000 jobs on another seed); 39x at the fixture's
    2000 jobs.  The E-Loss model beat AVE2 on MAE too (1.0x-4.5x) -- on
    these draws the asymmetric loss does not cost accuracy.
    """

    @staticmethod
    def scores(curie) -> dict[str, tuple[float, float]]:
        analysis, _, processors = curie
        return {name: (mae, eloss) for name, mae, eloss in table8_rows(analysis, processors)}

    def test_eloss_model_wins_mean_eloss_by_an_order_of_magnitude(self, curie):
        scores = self.scores(curie)
        ave2, ml = scores["AVE2"][1], scores["E-Loss Regression"][1]
        paper = PAPER_TABLE8["AVE2"][1] / PAPER_TABLE8["E-Loss Regression"][1]
        assert ml < ave2 / 10.0, f"AVE2 / E-Loss mean E-Loss {ave2 / ml:.1f}x, paper {paper:.0f}x"

    def test_mae_stays_within_one_order_of_magnitude(self, curie):
        """The E-Loss model must not dominate both metrics by far."""
        scores = self.scores(curie)
        ave2, ml = scores["AVE2"][0], scores["E-Loss Regression"][0]
        paper = "paper AVE2 {:.0f} s, E-Loss {:.0f} s".format(
            PAPER_TABLE8["AVE2"][0], PAPER_TABLE8["E-Loss Regression"][0]
        )
        assert ml < 10.0 * ave2, f"MAE AVE2 {ave2:.0f} s, E-Loss {ml:.0f} s; {paper}"
        assert ave2 < 10.0 * ml, f"MAE AVE2 {ave2:.0f} s, E-Loss {ml:.0f} s; {paper}"
