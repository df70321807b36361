"""Unit + property tests for the NAG optimiser.

The key property, and the reason the paper picked NAG: robustness to
feature scaling.  Rescaling any input coordinate by a constant must leave
the model's *predictions* unchanged (it absorbs into the weights).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predict.nag import NagOptimizer


def squared_grad(pred: float, target: float) -> float:
    return 2.0 * (pred - target)


class TestBasics:
    def test_initial_prediction_zero(self):
        opt = NagOptimizer(3)
        assert opt.predict(np.ones(3)) == 0.0

    def test_learns_linear_function(self, rng):
        """Online regression on y = 2 x1 - 3 x2 + 1 converges."""
        opt = NagOptimizer(3, eta=0.5)
        w_true = np.array([1.0, 2.0, -3.0])
        for _ in range(3000):
            x = np.array([1.0, rng.uniform(-1, 1), rng.uniform(-1, 1)])
            y = float(w_true @ x)
            opt.update(x, squared_grad(opt.predict(x), y))
        errors = []
        for _ in range(200):
            x = np.array([1.0, rng.uniform(-1, 1), rng.uniform(-1, 1)])
            errors.append(abs(opt.predict(x) - float(w_true @ x)))
        assert np.mean(errors) < 0.15

    def test_handles_unscaled_features(self, rng):
        """Same convergence when one feature lives at 1e6 scale."""
        opt = NagOptimizer(3, eta=0.5)
        for _ in range(3000):
            x = np.array([1.0, rng.uniform(-1, 1) * 1e6, rng.uniform(-1, 1)])
            y = 2e-6 * x[1] - 3.0 * x[2]
            opt.update(x, squared_grad(opt.predict(x), y))
        errors = []
        for _ in range(200):
            x = np.array([1.0, rng.uniform(-1, 1) * 1e6, rng.uniform(-1, 1)])
            errors.append(abs(opt.predict(x) - (2e-6 * x[1] - 3.0 * x[2])))
        assert np.mean(errors) < 0.2

    def test_validates_dimension(self):
        opt = NagOptimizer(3)
        with pytest.raises(ValueError):
            opt.update(np.ones(4), 1.0)

    def test_validates_params(self):
        with pytest.raises(ValueError):
            NagOptimizer(0)
        with pytest.raises(ValueError):
            NagOptimizer(3, eta=0.0)
        with pytest.raises(ValueError):
            NagOptimizer(3, l2=-1.0)

    def test_l2_shrinks_weights(self, rng):
        """Stronger ridge -> smaller weight norm on the same data."""
        def train(l2):
            opt = NagOptimizer(2, eta=0.5, l2=l2)
            gen = np.random.default_rng(0)
            for _ in range(800):
                x = np.array([1.0, gen.uniform(-1, 1)])
                y = 5.0 * x[1]
                opt.update(x, squared_grad(opt.predict(x), y))
            return float(np.linalg.norm(opt.w))

        assert train(1.0) < train(0.0)


class TestScaleInvariance:
    @settings(max_examples=25, deadline=None)
    @given(
        scale=st.floats(min_value=1e-4, max_value=1e4),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_predictions_invariant_to_feature_scaling(self, scale, seed):
        """NAG's defining property (Ross et al. 2013): pre-scaling a
        coordinate by any constant leaves all predictions unchanged."""
        gen = np.random.default_rng(seed)
        xs = gen.uniform(-2.0, 2.0, size=(60, 3))
        ys = xs @ np.array([1.5, -2.0, 0.5]) + gen.normal(0, 0.1, size=60)

        opt_a = NagOptimizer(3, eta=0.3)
        opt_b = NagOptimizer(3, eta=0.3)
        scaling = np.array([1.0, scale, 1.0])
        preds_a, preds_b = [], []
        for x, y in zip(xs, ys, strict=True):
            pa = opt_a.predict(x)
            pb = opt_b.predict(x * scaling)
            preds_a.append(pa)
            preds_b.append(pb)
            opt_a.update(x, squared_grad(pa, float(y)))
            opt_b.update(x * scaling, squared_grad(pb, float(y)))
        assert np.allclose(preds_a, preds_b, rtol=1e-7, atol=1e-9)


class ReferenceNag:
    """``NagOptimizer`` as it stood before the in-place step: the masked
    formulation, kept verbatim as the bit-for-bit reference."""

    def __init__(self, dim, eta=0.5, l2=0.0, forgetting=1.0):
        self.dim = int(dim)
        self.eta = float(eta)
        self.l2 = float(l2)
        self.forgetting = float(forgetting)
        self.w = np.zeros(dim)
        self._scale = np.zeros(dim)
        self._grad_sq = np.zeros(dim)
        self._norm = 0.0
        self.t = 0

    def predict(self, x):
        return float(self.w @ x)

    def update(self, x, dloss_df):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected shape ({self.dim},), got {x.shape}")
        self.t += 1
        ax = np.abs(x)

        grew = ax > self._scale
        if np.any(grew):
            old = self._scale[grew]
            new = ax[grew]
            ratio = np.where(new > 0, old / new, 0.0)
            self.w[grew] *= ratio * ratio
            self._scale[grew] = new

        seen = self._scale > 0
        if np.any(seen):
            self._norm += float(np.sum((x[seen] / self._scale[seen]) ** 2))

        if self.forgetting < 1.0:
            self._grad_sq *= self.forgetting
        grad = dloss_df * x
        if self.l2 > 0:
            grad = grad + 2.0 * self.l2 * self.w
        self._grad_sq += grad * grad

        if self._norm <= 0:
            return
        active = seen & (self._grad_sq > 0)
        if not np.any(active):
            return
        rate = self.eta * np.sqrt(self.t / self._norm)
        self.w[active] -= (
            rate * grad[active] / (self._scale[active] * np.sqrt(self._grad_sq[active]))
        )


#: derivatives a stream mixes in: zero, g*g underflowing to zero, g*g
#: overflowing to inf, and ordinary magnitudes of both signs.
_DERIVATIVES = (0.0, 1e-200, -1e-200, 1e160, -1e160, 1.0, -0.37, 2500.0)


def random_stream(seed: int, dim: int, steps: int):
    """Rows with dead, late-waking and sparse columns, a scale that keeps
    growing in bursts after every column has woken, and mixed derivatives."""
    gen = np.random.default_rng(seed)
    kind = gen.integers(0, 4, size=dim)  # 0 dead, 1 late, 2 sparse, 3 plain
    wake = gen.integers(1, steps, size=dim)
    magnitude = 10.0 ** gen.uniform(-3, 4, size=dim)
    for step in range(steps):
        x = gen.normal(size=dim) * magnitude
        if gen.random() < 0.1:
            x *= 10.0 ** gen.uniform(0, 3)  # scale growth, also once dense
        x[kind == 0] = 0.0
        x[(kind == 1) & (step < wake)] = 0.0
        x[(kind == 2) & (gen.random(dim) < 0.7)] = 0.0
        if gen.random() < 0.5:
            derivative = float(gen.normal() * 10.0 ** gen.uniform(-2, 3))
        else:
            derivative = float(gen.choice(_DERIVATIVES))
        yield x, derivative


def assert_same_state(new: NagOptimizer, ref: ReferenceNag) -> None:
    assert new.t == ref.t
    assert np.array_equal(new.w, ref.w, equal_nan=True)
    assert np.array_equal(new._scale, ref._scale)
    assert np.array_equal(new._grad_sq, ref._grad_sq, equal_nan=True)
    assert new._norm == ref._norm


class TestInPlaceStep:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        dim=st.sampled_from([1, 3, 9, 40, 231]),
        l2=st.sampled_from([0.0, 1e-6, 0.1]),
        forgetting=st.sampled_from([1.0, 0.9, 0.5]),
    )
    def test_bit_identical_to_masked_formulation(self, seed, dim, l2, forgetting):
        new = NagOptimizer(dim, eta=0.5, l2=l2, forgetting=forgetting)
        ref = ReferenceNag(dim, eta=0.5, l2=l2, forgetting=forgetting)
        with np.errstate(all="ignore"):
            for x, derivative in random_stream(seed, dim, steps=60):
                assert new.predict(x) == ref.predict(x)
                new.update(x, derivative)
                ref.update(x, derivative)
                assert_same_state(new, ref)

    @pytest.mark.parametrize("forgetting", [1.0, 0.9])
    def test_bit_identical_once_dense(self, forgetting):
        """No dead column: the model turns dense early, then the scale
        keeps growing -- the weight squash after the latch."""
        dim = 231
        new = NagOptimizer(dim, eta=0.5, l2=1e-6, forgetting=forgetting)
        ref = ReferenceNag(dim, eta=0.5, l2=1e-6, forgetting=forgetting)
        gen = np.random.default_rng(7)
        for step in range(300):
            x = gen.normal(size=dim) * (1.0 + step // 50)
            derivative = float(gen.normal())
            assert new.predict(x) == ref.predict(x)
            new.update(x, derivative)
            ref.update(x, derivative)
            assert_same_state(new, ref)
        assert new._seen_all
        assert new._dense == (forgetting == 1.0)

    def test_forgetting_lets_a_squared_gradient_decay_back_to_zero(self):
        """With forgetting < 1 density must not latch: an idle coordinate's
        G_i underflows to zero and drops out of the step again."""
        new = NagOptimizer(2, eta=0.5, forgetting=0.5)
        ref = ReferenceNag(2, eta=0.5, forgetting=0.5)
        rows = [np.array([1.0, 1e-150])] + [np.array([1.0, 0.0])] * 1200
        for x in rows:
            new.update(x, 1.0)
            ref.update(x, 1.0)
            assert_same_state(new, ref)
        assert new._grad_sq[1] == 0.0
        assert not new._dense

    def test_dense_step_allocates_no_row(self):
        import tracemalloc

        dim = 231
        opt = NagOptimizer(dim, eta=0.5, l2=1e-6)
        gen = np.random.default_rng(3)
        opt.update(np.full(dim, 10.0), 1.0)  # every scale set, above what follows
        assert opt._dense
        rows = [gen.uniform(-1.0, 1.0, size=dim) for _ in range(50)]
        state = (opt.w, opt._scale, opt._grad_sq, opt._grad, opt._tmp, opt._mask)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            for x in rows:
                opt.update(x, 0.25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float64 row is dim * 8 bytes; nothing that size may appear
        assert peak - start < dim * 8
        now = (opt.w, opt._scale, opt._grad_sq, opt._grad, opt._tmp, opt._mask)
        assert all(a is b for a, b in zip(state, now, strict=True))


class TestNonFiniteDerivative:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejected_before_any_state_is_touched(self, bad):
        opt = NagOptimizer(3, eta=0.5, l2=1e-6)
        opt.update(np.array([1.0, 2.0, 0.0]), 0.5)
        before = (opt.t, opt.w.copy(), opt._scale.copy(), opt._grad_sq.copy(), opt._norm)
        with pytest.raises(ValueError, match="derivative"):
            opt.update(np.array([1.0, 5.0, 1.0]), bad)
        assert opt.t == before[0]
        assert np.array_equal(opt.w, before[1])
        assert np.array_equal(opt._scale, before[2])
        assert np.array_equal(opt._grad_sq, before[3])
        assert opt._norm == before[4]


# -- frozen oracle ---------------------------------------------------------------


class FrozenNag:
    """``NagOptimizer`` as it stood when the in-place step recomputed the
    ``s_i > 0`` mask on every young step: kept verbatim, the byte-for-byte
    oracle of every later rewrite of the step."""

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

        # 1. Rescale weights whose coordinate just revealed a larger range.
        np.abs(x, out=tmp)
        if np.count_nonzero(np.greater(tmp, scale, out=mask)):
            new = tmp[mask]
            ratio = scale[mask] / new
            w[mask] *= ratio * ratio
            scale[mask] = new

        # 2. Normalised example norm (coordinates never seen stay out).
        if not self._seen_all:
            seen = scale > 0
            self._seen_all = np.count_nonzero(seen) == self.dim
        if self._seen_all:
            np.divide(x, scale, out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            self._norm += float(tmp.sum())
        else:
            ratio = x[seen] / scale[seen]
            self._norm += float((ratio * ratio).sum())

        # 3. Gradient with ridge term (after optional forgetting decay,
        # which shortens the adaptive memory and favours recent examples).
        if self.forgetting < 1.0:
            grad_sq *= self.forgetting
        np.multiply(x, dloss_df, out=grad)
        if self.l2 > 0:
            grad += np.multiply(w, 2.0 * self.l2, out=tmp)
        grad_sq += np.multiply(grad, grad, out=tmp)

        # 4. Adaptive, normalised step over the active coordinates.
        if self._norm <= 0:
            return
        where: np.ndarray | bool = True
        if not self._dense:
            active = np.greater(grad_sq, 0.0, out=mask)
            if not self._seen_all:
                active &= seen
            if np.count_nonzero(active) == self.dim:
                self._dense = self.forgetting == 1.0
            else:
                where = active
        np.sqrt(grad_sq, out=tmp)
        tmp *= scale
        grad *= self.eta * math.sqrt(self.t / self._norm)
        np.divide(grad, tmp, out=grad, where=where)
        np.subtract(w, grad, out=w, where=where)


@st.composite
def young_streams(draw):
    """Rows of a young model: columns that wake late or never (unseen),
    exact zeros, scales that keep growing in bursts, mixed derivatives."""
    dim = draw(st.sampled_from([1, 2, 7, 20, 231]))
    steps = draw(st.integers(min_value=1, max_value=60))
    gen = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    never = gen.random(dim) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    wake = gen.integers(0, steps + 1, size=dim)
    zeros = draw(st.sampled_from([0.0, 0.3, 0.8]))
    growth = draw(st.sampled_from([1.0, 10.0, 1e4]))
    stream = []
    for step in range(steps):
        x = gen.normal(size=dim) * 10.0 ** gen.uniform(-3, 3, size=dim)
        if gen.random() < 0.2:
            x *= growth * (1 + step)
        x[never | (step < wake) | (gen.random(dim) < zeros)] = 0.0
        derivative = draw(st.sampled_from(_DERIVATIVES) | st.floats(-1e3, 1e3))
        stream.append((x, derivative))
    return stream


def assert_bytes_equal(new: NagOptimizer, frozen: FrozenNag) -> None:
    assert new.t == frozen.t
    assert new.w.tobytes() == frozen.w.tobytes()
    assert new._scale.tobytes() == frozen._scale.tobytes()
    assert new._grad_sq.tobytes() == frozen._grad_sq.tobytes()
    assert new._norm.hex() == frozen._norm.hex()


class TestFrozenOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        stream=young_streams(),
        forgetting=st.sampled_from([1.0, 0.9]),
        l2=st.sampled_from([0.0, 1e-6]),
    )
    def test_every_step_is_byte_equal_to_the_frozen_step(self, stream, forgetting, l2):
        new = NagOptimizer(len(stream[0][0]), eta=0.5, l2=l2, forgetting=forgetting)
        frozen = FrozenNag(len(stream[0][0]), eta=0.5, l2=l2, forgetting=forgetting)
        with np.errstate(all="ignore"):
            for x, derivative in stream:
                new.update(x, derivative)
                frozen.update(x, derivative)
                assert_bytes_equal(new, frozen)
                assert (new._seen_all, new._dense) == (frozen._seen_all, frozen._dense)
