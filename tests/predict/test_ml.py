"""Unit tests for the online ML predictor."""

import numpy as np
import pytest

from repro.correct import IncrementalCorrector
from repro.predict import E_LOSS, SQUARED_LOSS, MLPredictor
from repro.sched import EasyScheduler
from repro.sim import simulate

from tests.helpers import make_record


def feed_user_stream(pred, runtimes, requested=36000.0, user=1, start_id=1):
    """Simulate submit->start->finish cycles for a stream of jobs."""
    predictions = []
    now = 0.0
    for i, runtime in enumerate(runtimes):
        rec = make_record(
            job_id=start_id + i, submit_time=now, runtime=runtime,
            requested_time=requested, user=user,
        )
        predictions.append(pred.predict(rec, now))
        pred.on_start(rec, now)
        pred.on_finish(rec, now + runtime)
        now += runtime + 60.0
    return predictions


class TestLearning:
    def test_cold_start_prediction_is_clamped(self):
        pred = MLPredictor(SQUARED_LOSS)
        rec = make_record(requested_time=500.0)
        value = pred.predict(rec, 0.0)
        assert 0.0 <= value <= 500.0

    def test_learns_repetitive_user(self):
        """A user always running ~2h jobs must be predicted near 2h after
        enough observations."""
        pred = MLPredictor(SQUARED_LOSS, eta=0.5)
        rng = np.random.default_rng(0)
        runtimes = list(rng.normal(7200.0, 200.0, size=300).clip(600))
        predictions = feed_user_stream(pred, runtimes)
        late = np.array(predictions[-50:])
        assert abs(np.median(late) - 7200.0) < 2000.0

    def test_eloss_biases_towards_underprediction(self):
        """Under E-Loss, over-prediction costs quadratically but
        under-prediction only linearly, so the late predictions sit at or
        below the symmetric-loss ones (paper Fig. 4/5)."""
        rng_runtimes = list(np.random.default_rng(1).normal(7200.0, 800.0, 400).clip(600))
        sq = MLPredictor(SQUARED_LOSS, eta=0.5)
        el = MLPredictor(E_LOSS, eta=0.5)
        p_sq = np.array(feed_user_stream(sq, list(rng_runtimes)))
        p_el = np.array(feed_user_stream(el, list(rng_runtimes)))
        assert np.median(p_el[-100:]) <= np.median(p_sq[-100:]) + 200.0

    def test_updates_counted(self):
        pred = MLPredictor(SQUARED_LOSS)
        feed_user_stream(pred, [100.0, 200.0, 300.0])
        assert pred.n_updates == 3

    def test_unknown_finish_ignored(self):
        """A completion the predictor never saw submitted must not crash
        (warm-started simulations)."""
        pred = MLPredictor(SQUARED_LOSS)
        rec = make_record()
        pred.on_finish(rec, 100.0)  # no pending features
        assert pred.n_updates == 0

    def test_target_scale_validation(self):
        with pytest.raises(ValueError):
            MLPredictor(SQUARED_LOSS, target_scale=0.0)

    def test_name_embeds_loss_key(self):
        assert MLPredictor(E_LOSS).name == "ml:sq-lin-large-area"

    def test_weights_accessible(self):
        pred = MLPredictor(SQUARED_LOSS)
        feed_user_stream(pred, [100.0] * 5)
        w = pred.weights
        assert w.shape[0] == pred._basis.dim
        assert np.any(w != 0.0)


class TestInSimulation:
    def test_full_simulation_with_ml(self, kth_trace):
        result = simulate(
            kth_trace, EasyScheduler("sjbf"), MLPredictor(E_LOSS),
            IncrementalCorrector(),
        )
        assert len(result) == len(kth_trace)
        # predictions were bounded by requested times
        assert (
            result.initial_predictions <= result.array("requested_time") + 1e-9
        ).all()

    def test_ml_beats_requested_time_mae_eventually(self, kth_trace):
        """On a history-rich synthetic log, the learning predictor's MAE
        should beat the raw requested times (which over-estimate wildly)."""
        from repro.metrics import mean_absolute_error
        from repro.predict import RequestedTimePredictor

        ml = simulate(kth_trace, EasyScheduler("sjbf"), MLPredictor(SQUARED_LOSS),
                      IncrementalCorrector())
        req = simulate(kth_trace, EasyScheduler("sjbf"), RequestedTimePredictor())
        assert mean_absolute_error(ml) < mean_absolute_error(req)


def pin_model_output(pred: MLPredictor, value: float) -> None:
    """Make the raw model output ``value`` seconds for any job."""
    pred._optimizer.predict = lambda phi: value / pred.target_scale


class TestScalarClamp:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            (-250.0, 0.0),       # below the floor
            (120.0, 120.0),      # inside: untouched
            (500.0, 500.0),      # exactly the request
            (9000.0, 500.0),     # above the request
            (float("inf"), 500.0),
            (float("-inf"), 0.0),
        ],
    )
    def test_clamped_to_zero_and_requested(self, raw, expected):
        pred = MLPredictor(SQUARED_LOSS, target_scale=1.0)
        pin_model_output(pred, raw)
        rec = make_record(requested_time=500.0)
        assert pred.estimate(rec, 0.0) == expected
        value = pred.predict(rec, 0.0)
        assert value == expected
        assert isinstance(value, float)

    def test_negative_zero_is_kept_like_np_clip_kept_it(self):
        pred = MLPredictor(SQUARED_LOSS, target_scale=1.0)
        pin_model_output(pred, -0.0)
        value = pred.predict(make_record(requested_time=500.0), 0.0)
        assert value == 0.0
        assert np.signbit(value) == np.signbit(np.clip(-0.0, 0.0, 500.0))

    def test_nan_passes_through_to_the_engine_check(self, tiny_trace):
        pred = MLPredictor(SQUARED_LOSS, target_scale=1.0)
        pin_model_output(pred, float("nan"))
        rec = make_record(requested_time=500.0)
        assert np.isnan(pred.predict(rec, 0.0))
        assert np.isnan(pred.estimate(rec, 0.0))
        with pytest.raises(ValueError, match="non-finite"):
            simulate(tiny_trace, EasyScheduler(), pred)


class TestEstimateIsPure:
    def test_touches_nothing_and_equals_the_next_predict(self):
        pred = MLPredictor(E_LOSS)
        feed_user_stream(pred, [900.0, 1800.0, 600.0, 2400.0] * 5)
        running = make_record(job_id=500, submit_time=30000.0, runtime=50.0)
        pred.predict(running, 30000.0)
        pred.on_start(running, 30000.0)

        probe = make_record(
            job_id=501, submit_time=30010.0, runtime=700.0, requested_time=4000.0
        )
        weights = pred.weights
        pending = set(pred._pending)
        state = pred._tracker.state(1)
        before = (
            state.n_submitted, state.sum_processors, state.n_completed,
            list(state.recent_runtimes), dict(state.running),
        )
        estimates = [pred.estimate(probe, 30010.0) for _ in range(3)]
        assert estimates[0] == estimates[1] == estimates[2]
        assert np.array_equal(pred.weights, weights)
        assert set(pred._pending) == pending
        assert before == (
            state.n_submitted, state.sum_processors, state.n_completed,
            list(state.recent_runtimes), dict(state.running),
        )
        assert pred._optimizer.t == pred.n_updates == 20
        assert pred.predict(probe, 30010.0) == estimates[0]
        assert 501 in pred._pending


class TestNonFiniteDerivative:
    def test_on_finish_names_the_job_and_leaves_the_model_alone(self):
        pred = MLPredictor(SQUARED_LOSS)
        feed_user_stream(pred, [100.0, 200.0, 300.0])
        rec = make_record(job_id=42, submit_time=1000.0, runtime=250.0)
        pred.predict(rec, 1000.0)
        pred.on_start(rec, 1000.0)
        pred._optimizer.w[0] = float("inf")  # model output (and dL/df) -> inf
        weights = pred.weights
        with pytest.raises(ValueError, match=r"job 42: .*derivative"):
            pred.on_finish(rec, 1250.0)
        assert np.array_equal(pred.weights, weights)
        assert pred._optimizer.t == pred.n_updates == 3


class TestForgettingVariant:
    def test_forgetting_validation(self):
        with pytest.raises(ValueError):
            MLPredictor(SQUARED_LOSS, forgetting=0.0)
        with pytest.raises(ValueError):
            MLPredictor(SQUARED_LOSS, forgetting=1.5)

    def test_forgetting_adapts_faster_to_regime_change(self):
        """After a user's runtime scale jumps 10x, the forgetting variant
        must track the new scale at least as fast as the long-memory one."""
        runtimes = [600.0] * 150 + [6000.0] * 150

        def final_error(forgetting):
            pred = MLPredictor(SQUARED_LOSS, forgetting=forgetting)
            predictions = feed_user_stream(pred, list(runtimes), requested=1e6)
            return abs(np.median(predictions[-30:]) - 6000.0)

        assert final_error(0.98) <= final_error(1.0) * 1.2
