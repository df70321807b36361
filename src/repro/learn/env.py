"""Episodic RL environment over the streaming simulation engine.

One *episode* = one full simulation of a seeded synthetic trace under a
policy-driven :class:`~repro.learn.policy.RLBackfillScheduler`; the
return is ``-AVEbsld`` (maximizing return minimizes the paper's bounded
slowdown).  Observations ride the structures the engine already
maintains -- queue depth, the release table, the head's shadow/extra
reservation, per-job width/requested/wait -- so the environment adds no
bookkeeping to the hot loop.

The environment is deliberately *not* a step-API gym: the engine drives
time and asks the policy for decisions (the scheduler callback IS the
policy query), so a rollout is a single batch ``simulate()`` with a
recorder attached.  The per-decision score-function terms are
accumulated incrementally into one episode gradient
(``sum_t  e(a_t) - sum_i pi_i e(i)`` in augmented F+1 space), which is
all REINFORCE needs -- no trajectory buffer, O(params) memory per
episode regardless of trace length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..metrics.slowdown import average_bounded_slowdown
from ..sim.engine import simulate
from ..spec import corrector_registry, predictor_registry
from ..workload.archive import get_trace
from ..workload.trace import Trace
from .policy import FEATURE_NAMES, LinearSoftmaxPolicy, RLBackfillScheduler

__all__ = ["EnvConfig", "Episode", "BackfillEnv"]


@dataclass(frozen=True)
class EnvConfig:
    """What one episode simulates (everything but the seed and policy).

    ``predictor``/``corrector`` accept the same spellings as CellSpec
    axes (legacy strings or ``{"name":..., "params":...}`` dicts);
    ``corrector=None`` disables corrections.  Plain data end to end so
    the config pickles to rollout workers unchanged.
    """

    log: str
    n_jobs: int = 500
    predictor: Any = "ave2"
    corrector: Any = "incremental"
    min_prediction: float = 60.0
    tau: float = 10.0

    def to_obj(self) -> dict:
        return {
            "log": self.log,
            "n_jobs": self.n_jobs,
            "predictor": self.predictor,
            "corrector": self.corrector,
            "min_prediction": self.min_prediction,
            "tau": self.tau,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> EnvConfig:
        return cls(**obj)


@dataclass
class Episode:
    """Outcome of one rollout."""

    seed: int
    avebsld: float
    #: episode return (``-avebsld``); what REINFORCE maximizes.
    return_: float
    #: accumulated score-function gradient, shape (F+1,): d log pi / d theta
    #: summed over every decision (zeros for greedy/no-recorder rollouts).
    grad: np.ndarray = field(
        default_factory=lambda: np.zeros(len(FEATURE_NAMES) + 1)
    )
    #: mean per-decision action entropy (nats); 0.0 when no decisions fired.
    entropy: float = 0.0
    #: number of policy decisions (including stops).
    decisions: int = 0
    #: how many of those decisions were explicit stops.
    stops: int = 0

    def to_obj(self) -> dict:
        """Picklable/JSON-able form for cross-process rollout returns."""
        return {
            "seed": self.seed,
            "avebsld": self.avebsld,
            "return_": self.return_,
            "grad": [float(g) for g in self.grad],
            "entropy": self.entropy,
            "decisions": self.decisions,
            "stops": self.stops,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> Episode:
        return cls(
            seed=int(obj["seed"]),
            avebsld=float(obj["avebsld"]),
            return_=float(obj["return_"]),
            grad=np.array(obj["grad"], dtype=np.float64),
            entropy=float(obj["entropy"]),
            decisions=int(obj["decisions"]),
            stops=int(obj["stops"]),
        )


class _GradRecorder:
    """Accumulates the episode score-function gradient decision by decision."""

    def __init__(self) -> None:
        self.grad = np.zeros(len(FEATURE_NAMES) + 1)
        self.entropy_sum = 0.0
        self.decisions = 0
        self.stops = 0

    def __call__(self, aug: np.ndarray, action: int, probs: np.ndarray) -> None:
        # d log pi(a) / d theta = e(a) - E_pi[e]  for linear softmax
        self.grad += aug[action] - probs @ aug
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.where(probs > 0, np.log(probs), 0.0)
        self.entropy_sum += float(-(probs * logp).sum())
        self.decisions += 1
        if action == len(probs) - 1:
            self.stops += 1


class BackfillEnv:
    """Rollout harness for one (workload, predictor, corrector) setup.

    Traces are memoised per seed, so an epoch of rollouts over the same
    seeds regenerates nothing.
    """

    def __init__(self, config: EnvConfig) -> None:
        self.config = config
        self._traces: dict[int, Trace] = {}

    def trace(self, seed: int) -> Trace:
        trace = self._traces.get(seed)
        if trace is None:
            trace = get_trace(self.config.log, n_jobs=self.config.n_jobs, seed=seed)
            self._traces[seed] = trace
        return trace

    def rollout(
        self,
        policy: LinearSoftmaxPolicy,
        seed: int,
        sample: bool = False,
        temperature: float = 1.0,
        record_grad: bool = True,
        rng_seed: int | None = None,
    ) -> Episode:
        """One full episode; deterministic in (policy, seeds, flags).

        ``seed`` picks the synthetic trace; ``rng_seed`` (default: the
        trace seed) seeds the action sampler separately, so a training
        epoch can re-roll the same trace under fresh action noise.
        ``sample=True`` draws actions from the softmax (training);
        ``sample=False`` runs the greedy deployment policy (evaluation).
        The gradient recorder is only attached when both sampling and
        ``record_grad`` are on -- greedy evaluation pays no recording
        overhead.
        """
        cfg = self.config
        rng = (
            np.random.default_rng(seed if rng_seed is None else rng_seed)
            if sample
            else None
        )
        recorder = _GradRecorder() if (sample and record_grad) else None
        scheduler = RLBackfillScheduler(
            policy,
            rng=rng,
            temperature=temperature,
            recorder=recorder,
        )
        predictor = predictor_registry().build(cfg.predictor)
        corrector = (
            corrector_registry().build(cfg.corrector)
            if cfg.corrector not in (None, "none")
            else None
        )
        result = simulate(
            self.trace(seed), scheduler, predictor, corrector, min_prediction=cfg.min_prediction
        )
        avebsld = average_bounded_slowdown(result, cfg.tau)
        episode = Episode(seed=seed, avebsld=avebsld, return_=-avebsld)
        if recorder is not None:
            episode.grad = recorder.grad
            episode.decisions = recorder.decisions
            episode.stops = recorder.stops
            if recorder.decisions:
                episode.entropy = recorder.entropy_sum / recorder.decisions
        return episode
