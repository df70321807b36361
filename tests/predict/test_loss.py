"""Unit + property tests for the asymmetric loss family."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.predict.loss import (
    BRANCHES,
    E_LOSS,
    SQUARED_LOSS,
    LossSpec,
    all_loss_specs,
    weight_factor,
)


class TestWeights:
    def test_constant(self):
        assert weight_factor("constant", 1000.0, 16.0) == 1.0

    def test_short_wide(self):
        assert weight_factor("short-wide", 100.0, 100.0) == pytest.approx(5.0)

    def test_long_narrow(self):
        assert weight_factor("long-narrow", 100.0, 100.0) == pytest.approx(5.0)

    def test_small_area(self):
        # 11 + log(1/(q p)) with q p = e^11 -> exactly the floor of the log
        qp = math.exp(11.0)
        assert weight_factor("small-area", qp, 1.0) == pytest.approx(0.01, abs=1e-9)

    def test_large_area(self):
        assert weight_factor("large-area", math.e, 1.0) == pytest.approx(1.0)

    def test_floor_guards_positivity(self):
        # tiny jobs would give a negative log weight; the floor applies
        assert weight_factor("large-area", 1.0, 1.0) == pytest.approx(0.01)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            weight_factor("constant", 0.0, 4.0)

    def test_unknown_scheme(self):
        with pytest.raises(KeyError):
            weight_factor("bogus", 1.0, 1.0)


class TestLossSpec:
    def test_twenty_specs(self):
        specs = list(all_loss_specs())
        assert len(specs) == 20
        assert len({s.key for s in specs}) == 20

    def test_eloss_is_eq3(self):
        """Eq. (3): squared branch when f >= p, linear when f < p,
        large-area weighting."""
        assert E_LOSS.over == "squared"
        assert E_LOSS.under == "linear"
        assert E_LOSS.weight == "large-area"
        assert E_LOSS in list(all_loss_specs())

    def test_eloss_values(self):
        p, q = 1000.0, 16.0
        gamma = math.log(p * q)
        assert E_LOSS.value(1100.0, p, q) == pytest.approx(gamma * 100.0**2)
        assert E_LOSS.value(900.0, p, q) == pytest.approx(gamma * 100.0)

    def test_squared_loss_symmetric(self):
        assert SQUARED_LOSS.value(1100.0, 1000.0, 4.0) == pytest.approx(
            SQUARED_LOSS.value(900.0, 1000.0, 4.0)
        )

    def test_gradient_signs(self):
        p, q = 1000.0, 4.0
        assert E_LOSS.gradient(1100.0, p, q) > 0  # over-predicting: push down
        assert E_LOSS.gradient(900.0, p, q) < 0  # under-predicting: push up

    def test_invalid_branch_rejected(self):
        with pytest.raises(KeyError):
            LossSpec(over="cubic", under="linear", weight="constant")

    def test_invalid_weight_rejected(self):
        with pytest.raises(KeyError):
            LossSpec(over="squared", under="linear", weight="bogus")

    def test_key_round_trip(self):
        assert E_LOSS.key == "sq-lin-large-area"


@given(
    spec=st.sampled_from(list(all_loss_specs())),
    f=st.floats(min_value=0.0, max_value=1e6),
    p=st.floats(min_value=10.0, max_value=1e6),
    q=st.floats(min_value=1.0, max_value=10_000.0),
)
def test_loss_nonnegative_zero_at_truth_convex_sides(spec, f, p, q):
    """Properties from the paper: the loss is non-negative, exactly zero at
    a perfect prediction, and increases away from the truth on each side."""
    value = spec.value(f, p, q)
    assert value >= 0.0
    assert spec.value(p, p, q) == 0.0
    further = spec.value(f + (100.0 if f >= p else -min(100.0, f)), p, q)
    assert further >= value - 1e-9


@pytest.mark.parametrize("spec", list(all_loss_specs()), ids=lambda spec: spec.key)
@pytest.mark.parametrize(
    "f, p",
    [(5000.0, 3600.0), (1200.5, 3600.0), (3600.0, 3600.0), (0.0, 0.7), (3.3, 1e-3)],
    ids=["over", "under", "at-truth", "zero-prediction", "tiny-runtime"],
)
def test_value_and_gradient_is_the_pair_from_one_weight(spec, f, p):
    """One call, one weight evaluation, the same two floats: against
    ``value()``/``gradient()`` and against the definition spelled out."""
    q = 48.0
    pair = spec.value_and_gradient(f, p, q)
    assert pair == (spec.value(f, p, q), spec.gradient(f, p, q))
    gamma = weight_factor(spec.weight, p, q)
    if f >= p:
        base, deriv = BRANCHES[spec.over]
        assert pair == (gamma * base(f - p), gamma * deriv(f - p))
    else:
        base, deriv = BRANCHES[spec.under]
        assert pair == (gamma * base(p - f), -gamma * deriv(p - f))


def test_value_and_gradient_keeps_the_weight_checks():
    with pytest.raises(ValueError):
        E_LOSS.value_and_gradient(10.0, 0.0, 4.0)
    with pytest.raises(ValueError):
        E_LOSS.value_and_gradient(10.0, 5.0, 0.0)
