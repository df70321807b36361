"""The two expensive inputs of the paper tests, each computed once per session.

``campaign`` is the paper's grid (:func:`repro.core.paper_cells`: 128
triples plus the two clairvoyant references) on the six logs; ``curie``
is Section 6.4's prediction replay on the Curie-class log.  Their sizes
are the constants below, chosen so that ``python -m pytest -m paper -q
tests/paper`` passes cold, with no cache file, in under a minute on two
cores.  Each test's docstring records how its numbers moved across other
sizes.
"""

import os

import pytest

from repro.core import analyze_predictions, paper_cells, run_cells

#: Jobs per synthetic log and trace replicas per log of the campaign:
#: 6 logs x 130 triples = 780 cells, 22 s on two cores.
CAMPAIGN_JOBS = 1000
CAMPAIGN_REPLICAS = 1

#: Jobs in the one Curie-class trace the prediction analysis replays
#: under each technique (0.4 s).
CURIE_JOBS = 2000


@pytest.fixture(scope="session")
def campaign():
    # every core simulates (run_cells' default leaves one to the caller,
    # which here only waits); four covers CI's runners
    workers = min(os.cpu_count() or 1, 4)
    return run_cells(
        paper_cells(n_jobs=CAMPAIGN_JOBS, replicas=CAMPAIGN_REPLICAS), workers=workers
    )


@pytest.fixture(scope="session")
def curie():
    """``(analysis, last technique's result, per-job widths)``."""
    return analyze_predictions(log="Curie", n_jobs=CURIE_JOBS)
