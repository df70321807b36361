"""Ablations of the winning triple, read off the shared campaign.

Not paper artefacts but decompositions of its gain: the backfill order
at a fixed prediction technique, the correction mechanism at a fixed
predictor, the loss asymmetry at a fixed context.  Each number is a
triple's AVEbsld averaged over the six logs.
"""

import numpy as np
import pytest

from repro.core import CLAIRVOYANT_EASY, CLAIRVOYANT_SJBF, EASY_TRIPLE, ELOSS_TRIPLE

from tests.paper.reference import PAPER_TABLE6

pytestmark = pytest.mark.paper

#: ``ELOSS_TRIPLE`` with the symmetric squared loss instead of E-Loss.
SYMMETRIC_TRIPLE = "ml:sq-sq-constant|incremental|easy-sjbf"


def mean_over_logs(campaign, label: str) -> float:
    return float(np.mean([campaign.mean(log, label) for log in campaign.logs()]))


def test_sjbf_beats_fcfs_order_under_clairvoyance(campaign):
    """With exact predictions, shortest-first backfilling wins.

    Clairvoyant FCFS / SJBF order over the seven campaign sizes (see Fig
    3): 1.25x-1.93x; 29.5 against 15.3 at 1000x1.
    """
    fcfs = mean_over_logs(campaign, CLAIRVOYANT_EASY)
    sjbf = mean_over_logs(campaign, CLAIRVOYANT_SJBF)
    paper_fcfs, paper_sjbf = np.mean([row[:2] for row in PAPER_TABLE6.values()], axis=0)
    assert sjbf < fcfs, (
        f"clairvoyant SJBF / FCFS: ours {sjbf:.1f} / {fcfs:.1f}, "
        f"paper {paper_sjbf:.1f} / {paper_fcfs:.1f}"
    )


@pytest.mark.parametrize("predictor", ["ave2", ELOSS_TRIPLE.split("|")[0]])
def test_every_correction_gives_a_valid_schedule(campaign, predictor):
    for corrector in ("requested", "incremental", "doubling"):
        score = mean_over_logs(campaign, f"{predictor}|{corrector}|easy-sjbf")
        assert np.isfinite(score) and score >= 1.0, corrector


def test_the_correction_mechanism_matters_for_ave2(campaign):
    """AVE2 under-predicts, so how its expired predictions are corrected
    moves AVEbsld: the three correctors' means spread by 6 %-49 % over the
    seven sizes, 7 % at 1000x1.  The E-Loss model's spread stays under
    5 %, so it is not asserted.
    """
    scores = [
        mean_over_logs(campaign, f"ave2|{corrector}|easy-sjbf")
        for corrector in ("requested", "incremental", "doubling")
    ]
    assert max(scores) > 1.02 * min(scores), f"requested / incremental / doubling: {scores}"


def test_both_losses_beat_easy(campaign):
    """The loss asymmetry, E-Loss against the symmetric squared loss.

    On the paper's production logs the asymmetric E-Loss wins.  On these
    synthetic draws which loss wins depends on the draw -- exactly Fig 3's
    finding that a triple's rank does not transfer -- so the direction is
    recorded, not asserted: squared / E-Loss 0.80-1.53 over the seven
    sizes, 23.1 against 15.1 at 1000x1.  Both must beat EASY on average.
    """
    easy = mean_over_logs(campaign, EASY_TRIPLE)
    for label in (ELOSS_TRIPLE, SYMMETRIC_TRIPLE):
        score = mean_over_logs(campaign, label)
        assert score < easy, f"{label}: {score:.1f}, EASY {easy:.1f}"
