"""Running-time prediction: baselines, features, losses, NAG, ML predictor."""

from .base import Predictor, UserHistoryTracker, UserState
from .baselines import (
    ClairvoyantPredictor,
    RecentAveragePredictor,
    RequestedTimePredictor,
)
from .basis import PolynomialBasis
from .features import FEATURE_NAMES, N_FEATURES, extract_features
from .loss import (
    BRANCHES,
    E_LOSS,
    SQUARED_LOSS,
    WEIGHTS,
    LossSpec,
    all_loss_specs,
    weight_factor,
)
from .ml import MLPredictor
from .nag import NagOptimizer

__all__ = [
    "Predictor",
    "UserHistoryTracker",
    "UserState",
    "ClairvoyantPredictor",
    "RecentAveragePredictor",
    "RequestedTimePredictor",
    "PolynomialBasis",
    "FEATURE_NAMES",
    "N_FEATURES",
    "extract_features",
    "BRANCHES",
    "E_LOSS",
    "SQUARED_LOSS",
    "WEIGHTS",
    "LossSpec",
    "all_loss_specs",
    "weight_factor",
    "MLPredictor",
    "NagOptimizer",
    "make_predictor",
]


def make_predictor(spec) -> Predictor:
    """Construct a predictor from the unified component registry.

    Accepts a legacy string (``clairvoyant``, ``requested``, ``ave2`` /
    ``ave<k>``, ``ml:<over>-<under>-<weight>`` with
    over/under in {sq, lin} and weight a Table 3 scheme, e.g.
    ``ml:sq-lin-large-area`` -- the E-Loss), a parameterized spec dict
    like ``{"name": "ml", "params": {"over": "sq", "under": "lin",
    "weight": "large-area", "eta": 0.3}}``, or a ready
    :class:`repro.spec.ComponentSpec`.
    """
    from ..spec.components import predictor_registry

    return predictor_registry().build(spec)
