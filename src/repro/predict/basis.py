"""Degree-2 polynomial basis expansion (paper Eq. 1).

Phi(x) = (1, x_1..x_n, x_1^2..x_n^2, x_i x_j for i<j), giving
``1 + 2n + n(n-1)/2`` terms -- the dimensionality the paper states for
its weight vector.  Cross terms let the linear learner capture pairwise
feature interactions (e.g. requested time x history average).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["PolynomialBasis"]


class PolynomialBasis:
    """Expands length-``n`` feature vectors into the degree-2 basis."""

    def __init__(self, n_features: int) -> None:
        if n_features <= 0:
            raise ValueError("n_features must be positive")
        self.n_features = int(n_features)
        iu, ju = np.triu_indices(n_features, k=1)
        self.dim = 1 + 2 * n_features + n_features * (n_features - 1) // 2
        # Every term is a product of two entries of (1, x): 1*1, x_i*1,
        # x_i*x_i, x_i*x_j -- so the whole row is one gather-and-multiply.
        ones = np.arange(1, n_features + 1)
        self._left = np.concatenate(([0], ones, ones, iu + 1))
        self._right = np.concatenate(([0], np.zeros_like(ones), ones, ju + 1))
        self._one_x = np.ones(n_features + 1)  # scratch: (1, x)

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Phi(x), a fresh row; raises on a wrong length or non-finite values."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_features,):
            raise ValueError(
                f"expected shape ({self.n_features},), got {x.shape}"
            )
        # one dot product tests the row; a scan clears a row whose squares overflow
        if not math.isfinite(x.dot(x)) and not np.isfinite(x).all():
            raise ValueError("features must be finite")
        one_x = self._one_x
        one_x[1:] = x
        return one_x[self._left] * one_x[self._right]
