"""The paper's numbers in ``reference.py`` agree with one another.

They are typed in from the paper, and a failing shape prints them beside
ours, so a typo would mislead whoever reads the failure.  The tables
overlap: Table 1 and Table 7 repeat columns of Table 6, and the paper's
text summarises Table 1.  No campaign is needed; these stay in tier-1.
"""

import numpy as np
import pytest

from repro.workload import ARCHIVE

from tests.paper.reference import PAPER_FIG3_CORRELATION, PAPER_TABLE6, PAPER_TABLE7


def test_the_tables_name_our_six_logs():
    """The campaign's log names key both tables, so a message can set a
    log's row beside ours."""
    assert list(PAPER_TABLE6) == list(ARCHIVE)
    assert list(PAPER_TABLE7) == list(ARCHIVE)


@pytest.mark.parametrize("log", list(PAPER_TABLE7))
def test_table7_reduction_follows_from_table6(log):
    """Table 7's reduction is its AVEbsld against Table 6's EASY column,
    in whole percent."""
    cross_validated, reduction = PAPER_TABLE7[log]
    easy = PAPER_TABLE6[log][2]
    assert round((easy - cross_validated) / easy * 100.0) == reduction


@pytest.mark.parametrize("log", list(PAPER_TABLE6))
def test_table6_row_is_ordered(log):
    """Each learning range runs best to worst, and the clairvoyant SJBF
    order beats the clairvoyant FCFS order on every log."""
    clair_fcfs, clair_sjbf, _easy, _easypp, fcfs, sjbf = PAPER_TABLE6[log]
    assert fcfs[0] <= fcfs[1]
    assert sjbf[0] <= sjbf[1]
    assert clair_sjbf < clair_fcfs


def test_table1_reductions_span_what_the_paper_states():
    """Table 1 is Table 6's EASY and Clairvoyant FCFS columns; the paper
    sums its reductions up as 16-65 %, mean 27 % (27.5 from the rows)."""
    reductions = [(easy - clair) / easy * 100.0 for clair, _, easy, *_ in PAPER_TABLE6.values()]
    assert round(min(reductions)) == 16
    assert round(max(reductions)) == 65
    assert abs(np.mean(reductions) - 27.0) < 1.0


def test_figure3_summary_is_ordered():
    mean, low, high = PAPER_FIG3_CORRELATION
    assert -1.0 <= low <= mean <= high <= 1.0
