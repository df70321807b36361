"""Unit tests for the prediction analysis (Table 8 / Figures 4-5 data)."""

import numpy as np
import pytest

from repro.core import analyze_predictions
from repro.core.prediction_analysis import DEFAULT_TECHNIQUES, table8_rows


@pytest.fixture(scope="module")
def analysis():
    return analyze_predictions(log="Curie", n_jobs=500)


class TestAnalysis:
    def test_all_techniques_present(self, analysis):
        assert set(analysis.predictions) == set(DEFAULT_TECHNIQUES)

    def test_common_trace(self, analysis):
        lengths = {len(v) for v in analysis.predictions.values()}
        assert lengths == {500}
        assert len(analysis.runtimes) == 500

    def test_requested_time_never_underpredicts(self, analysis):
        errors = analysis.errors("Requested Time")
        assert (errors >= -1e-9).all()

    def test_eloss_underpredicts_more_than_squared(self, analysis):
        """Figure 4's headline: the E-Loss error ECDF sits left of the
        squared-loss one (more under-prediction)."""
        under_eloss = float(np.mean(analysis.errors("E-Loss Regression") < 0))
        under_sq = float(np.mean(analysis.errors("Squared Loss Regression") < 0))
        assert under_eloss > under_sq

    def test_table8_shape(self, analysis):
        """AVE2 must beat E-Loss learning on MAE but lose on mean E-Loss
        (by a wide margin) -- the paper's Table 8."""
        rows = {name: (mae, eloss) for name, mae, eloss in table8_rows(analysis)}
        ave2_mae, ave2_eloss = rows["AVE2"]
        ml_mae, ml_eloss = rows["E-Loss Regression"]
        assert ml_eloss < ave2_eloss

    def test_mae_accessor(self, analysis):
        for name in analysis.predictions:
            assert analysis.mae(name) >= 0.0
