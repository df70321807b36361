"""Unit tests for the sensitivity sweeps."""

import numpy as np
import pytest

from repro.core import CLAIRVOYANT_SJBF, EASY_TRIPLE
from repro.core.sensitivity import (
    SweepPoint,
    sweep_estimate_quality,
    sweep_offered_load,
)


@pytest.fixture(scope="module")
def load_sweep():
    return sweep_offered_load(
        [EASY_TRIPLE, CLAIRVOYANT_SJBF],
        loads=(0.65, 0.9),
        n_jobs=500,
        replicas=2,
    )


class TestLoadSweep:
    def test_all_points_present(self, load_sweep):
        assert len(load_sweep) == 4  # 2 loads x 2 triples
        assert all(isinstance(p, SweepPoint) for p in load_sweep)

    def test_clairvoyant_sjbf_dominates_at_every_load(self, load_sweep):
        """The prediction-quality gap persists across the load range.

        (Small sweeps are noisy samples of a queueing process, so the
        robust invariant is the *ordering* of approaches, not bsld
        monotonicity in the load knob.)
        """
        by = {(p.value, p.triple_key): p.avebsld for p in load_sweep}
        for load in (0.65, 0.9):
            assert by[(load, CLAIRVOYANT_SJBF)] < by[(load, EASY_TRIPLE)]

    def test_scores_valid(self, load_sweep):
        assert all(p.avebsld >= 1.0 and np.isfinite(p.avebsld) for p in load_sweep)


class TestEstimateQualitySweep:
    def test_clairvoyant_insensitive_to_estimates(self):
        """Clairvoyant EASY ignores requested times entirely, so its score
        must move far less than standard EASY's when estimates degrade."""
        points = sweep_estimate_quality(
            [CLAIRVOYANT_SJBF],
            margin_scales=(1.0, 4.0),
            n_jobs=500,
            replicas=2,
        )
        by = {p.value: p.avebsld for p in points}
        # the workload itself shifts slightly (requests cap runtimes), so
        # allow drift but not blow-up
        assert by[4.0] < by[1.0] * 3.0

    def test_knob_recorded(self):
        points = sweep_estimate_quality(
            [EASY_TRIPLE], margin_scales=(2.0,), n_jobs=300, replicas=1
        )
        assert all(p.knob == "margin_scale" and p.value == 2.0 for p in points)
