"""Asymmetric, job-weighted loss functions (paper Section 4.2).

The loss of predicting ``f`` when the actual running time is ``p`` is

    L(x_j, f, p) = gamma_j * B_over(f - p)   if f >= p   (over-prediction)
                 = gamma_j * B_under(p - f)  if f <  p   (under-prediction)

with branch bases ``B`` in {squared, linear} and the per-job weight
``gamma_j`` one of the five Table 3 schemes.  That yields the paper's
2 x 2 x 5 = 20 loss configurations.

Naming note: the paper's equation labels the ``f >= p`` branch ``L_u``
("underprediction basis") although it fires on *over*-prediction; its
Eq. (3) and Section 6.4 make the semantics unambiguous (E-Loss is
"squared branch for over-prediction, linear for under-prediction"), so
this module names branches by the direction they fire on.

The E-Loss weight: Eq. (3) prints ``log(r_j . p_j)``, but Table 3 has no
such scheme and Section 6.4 states the E-Loss "uses a weighting factor
that increases with the size of jobs in terms of p and q" -- i.e. the
Table 3 ``log(q_j . p_j)`` (large-area) scheme.  We treat the ``r_j`` as
a typo for ``q_j`` and document the substitution (see DESIGN.md).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

__all__ = [
    "BRANCHES",
    "WEIGHTS",
    "LossSpec",
    "E_LOSS",
    "SQUARED_LOSS",
    "all_loss_specs",
    "weight_factor",
]

# -- branch bases --------------------------------------------------------------


def _squared(z: float) -> float:
    return z * z


def _squared_grad(z: float) -> float:
    return 2.0 * z


def _linear(z: float) -> float:
    return z


def _linear_grad(z: float) -> float:
    return 1.0


#: branch name -> (value, derivative), both defined for z >= 0.
BRANCHES: dict[str, tuple[Callable[[float], float], Callable[[float], float]]] = {
    "squared": (_squared, _squared_grad),
    "linear": (_linear, _linear_grad),
}

# -- Table 3 weighting schemes ---------------------------------------------------

_WEIGHT_FLOOR = 1e-2


def _w_constant(p: float, q: float) -> float:
    return 1.0


def _w_short_wide(p: float, q: float) -> float:
    """5 + log(q/p): short jobs with large requests should be well-predicted."""
    return 5.0 + math.log(q / p)


def _w_long_narrow(p: float, q: float) -> float:
    """5 + log(p/q): long jobs with small requests should be well-predicted."""
    return 5.0 + math.log(p / q)


def _w_small_area(p: float, q: float) -> float:
    """11 + log(1/(q*p)): jobs of small area should be well-predicted."""
    return 11.0 + math.log(1.0 / (q * p))


def _w_large_area(p: float, q: float) -> float:
    """log(q*p): jobs of large area should be well-predicted (E-Loss weight)."""
    return math.log(q * p)


#: weight name -> gamma(p, q).  Constants per the paper "ensure positivity
#: with typical running times"; a floor guards the atypical ones.
WEIGHTS: dict[str, Callable[[float, float], float]] = {
    "constant": _w_constant,
    "short-wide": _w_short_wide,
    "long-narrow": _w_long_narrow,
    "small-area": _w_small_area,
    "large-area": _w_large_area,
}


def weight_factor(scheme: str, p: float, q: float) -> float:
    """Evaluate a Table 3 weight, floored to stay positive."""
    if p <= 0 or q <= 0:
        raise ValueError(f"weights need p > 0 and q > 0, got p={p}, q={q}")
    try:
        fn = WEIGHTS[scheme]
    except KeyError:
        raise KeyError(
            f"unknown weight scheme {scheme!r}; known: {', '.join(WEIGHTS)}"
        ) from None
    return max(fn(p, q), _WEIGHT_FLOOR)


@dataclass(frozen=True)
class LossSpec:
    """One of the paper's 20 loss configurations."""

    over: str  # branch basis applied when f >= p
    under: str  # branch basis applied when f < p
    weight: str  # Table 3 weighting scheme

    def __post_init__(self) -> None:
        if self.over not in BRANCHES:
            raise KeyError(f"unknown branch {self.over!r}; known: {', '.join(BRANCHES)}")
        if self.under not in BRANCHES:
            raise KeyError(f"unknown branch {self.under!r}; known: {', '.join(BRANCHES)}")
        if self.weight not in WEIGHTS:
            raise KeyError(
                f"unknown weight scheme {self.weight!r}; known: {', '.join(WEIGHTS)}"
            )

    @property
    def key(self) -> str:
        """Stable identifier, e.g. ``sq-lin-large-area`` (the E-Loss)."""
        short = {"squared": "sq", "linear": "lin"}
        return f"{short[self.over]}-{short[self.under]}-{self.weight}"

    def value_and_gradient(self, f: float, p: float, q: float) -> tuple[float, float]:
        """``(value(f, p, q), gradient(f, p, q))`` from one weight evaluation."""
        gamma = weight_factor(self.weight, p, q)
        if f >= p:
            base, deriv = BRANCHES[self.over]
            return gamma * base(f - p), gamma * deriv(f - p)
        base, deriv = BRANCHES[self.under]
        return gamma * base(p - f), -gamma * deriv(p - f)

    def value(self, f: float, p: float, q: float) -> float:
        """Loss of predicting ``f`` for a job with actual (p, q)."""
        return self.value_and_gradient(f, p, q)[0]

    def gradient(self, f: float, p: float, q: float) -> float:
        """dL/df at prediction ``f`` (subgradient 0 conventions at f == p)."""
        return self.value_and_gradient(f, p, q)[1]


#: The paper's winning E-Loss: squared over-prediction branch, linear
#: under-prediction branch, large-area weighting (Eq. 3).
E_LOSS = LossSpec(over="squared", under="linear", weight="large-area")

#: Plain symmetric squared loss with unit weights (standard regression).
SQUARED_LOSS = LossSpec(over="squared", under="squared", weight="constant")


def all_loss_specs() -> Iterator[LossSpec]:
    """The 20 loss configurations of the campaign (Table 5), fixed order."""
    for over in ("squared", "linear"):
        for under in ("squared", "linear"):
            for weight in ("constant", "short-wide", "long-narrow", "small-area", "large-area"):
                yield LossSpec(over=over, under=under, weight=weight)
