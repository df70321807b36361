"""Normalized Adaptive Gradient (NAG) online optimiser.

Implements the NAG algorithm of Ross, Mineiro & Langford, *Normalized
Online Learning* (UAI 2013), which the paper uses to fit its regression
model: a per-coordinate scale-normalised variant of AdaGrad that is
robust to adversarially scaled features.  This matters here because
several Table 2 features are unbounded and unnormalisable online (e.g.
Break Time).

Update for example ``x`` with scalar loss derivative ``dL/df`` at
``f = w . x``:

1. for coordinates where ``|x_i|`` exceeds the largest scale ``s_i`` seen
   so far: squash the weight ``w_i <- w_i * s_i^2 / x_i^2`` and raise
   ``s_i <- |x_i|`` (keeps accumulated decisions consistent under the
   new scale);
2. accumulate the normalised example norm ``N <- N + sum_i x_i^2/s_i^2``;
3. per-coordinate gradient ``g_i = dL/df * x_i (+ l2 ridge term)``,
   accumulate ``G_i <- G_i + g_i^2``;
4. step ``w_i <- w_i - eta * sqrt(t/N) * g_i / (s_i * sqrt(G_i))``.

An ``l2`` ridge penalty (the paper's ``lambda ||w||^2``) enters through
the gradient.

The step runs as in-place ufuncs over scratch rows the optimiser owns,
in the operation order above per coordinate, so a step on a *dense*
model -- every coordinate has a scale and a squared gradient -- allocates
no array.  Density latches: ``s_i`` only grows, and so does ``G_i`` when
``forgetting == 1`` (with ``forgetting < 1`` a long-idle ``G_i`` can
decay to zero, so it is re-checked every step).  Until then steps 2 and
4 run over the ``s_i > 0`` / ``G_i > 0`` masks; the first is kept as
indices, found again only when a scale grows.  The masked reduction of
step 2 cannot be replaced by a full-row sum with zeros in the unseen
slots: numpy sums pairwise, and a compressed array and the full row
split into different pairs, so the two round differently.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["NagOptimizer"]


class NagOptimizer:
    """Scale-invariant online gradient descent (NAG)."""

    def __init__(
        self,
        dim: int,
        eta: float = 0.5,
        l2: float = 0.0,
        forgetting: float = 1.0,
    ) -> None:
        if dim <= 0:
            raise ValueError("dim must be positive")
        if eta <= 0:
            raise ValueError("eta must be positive")
        if l2 < 0:
            raise ValueError("l2 must be non-negative")
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting must be in (0, 1]")
        self.dim = int(dim)
        self.eta = float(eta)
        self.l2 = float(l2)
        #: decay applied to the accumulated gradient statistics before each
        #: update; < 1 makes the model favour recent jobs (the paper's
        #: footnote-2 variant: "weigh differently the jobs to favor recent
        #: ones").
        self.forgetting = float(forgetting)
        self.w = np.zeros(dim)
        self._scale = np.zeros(dim)  # s_i: largest |x_i| seen
        self._grad_sq = np.zeros(dim)  # G_i: accumulated squared gradients
        self._norm = 0.0  # N: accumulated normalised example norms
        self.t = 0  # examples processed
        self._seen = np.empty(0, dtype=np.intp)  # the i with s_i > 0, ascending
        self._seen_all = False  # every s_i > 0 (latches)
        self._dense = False  # ... and every G_i > 0 (latches iff forgetting == 1)
        self._grad = np.empty(dim)  # scratch rows of update()
        self._tmp = np.empty(dim)
        self._mask = np.empty(dim, dtype=bool)

    def predict(self, x: np.ndarray) -> float:
        """Model output ``w . x``."""
        return float(self.w.dot(x))

    def update(self, x: np.ndarray, dloss_df: float) -> None:
        """One online step given the derivative of the loss at ``w . x``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {x.shape}")
        if not math.isfinite(dloss_df):
            raise ValueError(f"loss derivative must be finite, got {dloss_df}")
        self.t += 1
        w, scale, grad_sq = self.w, self._scale, self._grad_sq
        grad, tmp, mask = self._grad, self._tmp, self._mask

        # 1. Rescale weights whose coordinate just revealed a larger range
        # (a scale that grows from zero marks its coordinate seen).
        np.abs(x, tmp)
        if np.count_nonzero(np.greater(tmp, scale, mask)):
            grown = mask.nonzero()  # index arrays: cheaper than the mask four times
            new = tmp[grown]
            ratio = scale[grown] / new
            w[grown] *= ratio * ratio
            scale[grown] = new
            if not self._seen_all:
                self._seen = np.flatnonzero(scale)
                self._seen_all = len(self._seen) == self.dim

        # 2. Normalised example norm (coordinates never seen stay out).
        if self._seen_all:
            np.divide(x, scale, tmp)
            np.multiply(tmp, tmp, tmp)
            self._norm += float(tmp.sum())
        else:
            ratio = x.take(self._seen)
            ratio /= scale.take(self._seen)
            self._norm += float(np.multiply(ratio, ratio, ratio).sum())

        # 3. Gradient with ridge term (after optional forgetting decay,
        # which shortens the adaptive memory and favours recent examples).
        if self.forgetting < 1.0:
            grad_sq *= self.forgetting
        np.multiply(x, dloss_df, grad)
        if self.l2 > 0:
            grad += np.multiply(w, 2.0 * self.l2, tmp)
        grad_sq += np.multiply(grad, grad, tmp)

        # 4. Adaptive, normalised step over the active coordinates.
        if self._norm <= 0:
            return
        active = None
        if not self._dense:
            # G_i > 0 implies s_i > 0: an unseen x_i and w_i are still 0
            active = np.greater(grad_sq, 0.0, mask)
            if np.count_nonzero(active) == self.dim:
                self._dense = self.forgetting == 1.0
                active = None
        np.sqrt(grad_sq, tmp)
        tmp *= scale
        grad *= self.eta * math.sqrt(self.t / self._norm)
        if active is None:
            np.divide(grad, tmp, grad)
            np.subtract(w, grad, w)
        else:
            np.divide(grad, tmp, grad, where=active)
            np.subtract(w, grad, w, where=active)
