"""Seeded REINFORCE training for the backfill policy.

Plain episodic policy gradient with a mean baseline: per epoch, roll
``episodes`` sampled episodes over the training seeds (each with its own
deterministically-derived action-noise seed), form

    grad = mean_i  (R_i - mean(R)) * g_i

where ``g_i`` is episode *i*'s accumulated score-function gradient, clip
it, and ascend.  After every update the *greedy* policy is scored on the
training seeds; the returned checkpoint is the best greedy policy seen
across all epochs **including the SJBF-equivalent init** -- so a short
or unlucky run can never ship something worse than the heuristic it
started from (this is what lets CI enforce "matches or beats EASY" with
a tiny budget).

Everything is derived from ``TrainConfig.seed``: same config in, byte
identical checkpoint digest out, regardless of worker count (rollout
order is seed-indexed, never completion-ordered).

Telemetry (when a registry is passed): per-episode return/entropy
histograms (``learn.return``, ``learn.entropy``), per-epoch grad-norm
and score counters, and one ``epoch`` event per epoch -- all through the
standard :mod:`repro.obs` channel, so ``repro metrics`` renders training
curves like any other run.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..obs.telemetry import NOOP, Telemetry
from ..spec import WorkloadSpec, corrector_registry, predictor_registry
from ..workload.archive import stable_seed
from .checkpoint import PolicyCheckpoint
from .env import EnvConfig, Episode
from .policy import LinearSoftmaxPolicy
from .rollout import collect_episodes

__all__ = ["TrainConfig", "TrainResult", "train", "evaluate_policy"]


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines a training run (and its digest)."""

    log: str
    n_jobs: int = 500
    #: number of training trace seeds (stable_seed(log) + 0..replicas-1)
    #: unless ``train_seeds`` pins them explicitly.
    replicas: int = 2
    train_seeds: tuple[int, ...] | None = None
    epochs: int = 4
    #: sampled episodes per epoch (cycled over the training seeds).
    episodes: int = 8
    lr: float = 0.05
    temperature: float = 1.0
    grad_clip: float = 5.0
    #: master seed for action noise (trace seeds are the train seeds).
    seed: int = 0
    predictor: str = "ave2"
    corrector: str = "incremental"
    min_prediction: float = 60.0
    tau: float = 10.0

    def __post_init__(self) -> None:
        # a bad size, seed count or component name is refused here, before any rollout
        if not self.resolved_train_seeds():
            raise ValueError("training needs at least one train seed")
        WorkloadSpec.make(self.log, n_jobs=self.n_jobs)
        predictor_registry().normalize(self.predictor)
        if self.corrector not in (None, "none"):
            corrector_registry().normalize(self.corrector)

    def resolved_train_seeds(self) -> tuple[int, ...]:
        if self.train_seeds is not None:
            return tuple(int(s) for s in self.train_seeds)
        base = stable_seed(self.log)
        return tuple(base + r for r in range(self.replicas))

    def env_config(self) -> EnvConfig:
        return EnvConfig(
            log=self.log,
            n_jobs=self.n_jobs,
            predictor=self.predictor,
            corrector=self.corrector,
            min_prediction=self.min_prediction,
            tau=self.tau,
        )


@dataclass
class TrainResult:
    """A finished run: the best checkpoint plus the training history."""

    checkpoint: PolicyCheckpoint
    #: greedy mean AVEbsld of the shipped policy on the train seeds.
    train_avebsld: float
    #: same metric for the SJBF-equivalent init (the heuristic floor).
    init_avebsld: float
    #: epoch index the shipped policy came from (-1 = the init).
    best_epoch: int
    #: one dict per epoch: returns, entropy, grad_norm, greedy_avebsld.
    history: list[dict] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return self.checkpoint.digest()


def _episode_seed(master: int, epoch: int, index: int) -> int:
    """Deterministic, collision-resistant action-noise seed."""
    return (master * 1_000_003 + epoch * 10_007 + index * 101 + 1) % (2**31 - 1)


def _greedy_score(
    broker, env: EnvConfig, policy: LinearSoftmaxPolicy, seeds: Sequence[int]
) -> float:
    episodes = collect_episodes(broker, env, policy, seeds, sample=False)
    return float(np.mean([ep.avebsld for ep in episodes]))


def train(
    config: TrainConfig,
    broker=None,
    telemetry: Telemetry | None = None,
) -> TrainResult:
    """Run the full REINFORCE loop; deterministic in ``config``.

    ``broker`` fans episodes out (default: a serial
    :class:`~repro.dist.broker.LocalBroker` with one worker -- pass one
    with more workers to parallelize; results are identical either way).
    """
    from ..dist.broker import LocalBroker

    if broker is None:
        broker = LocalBroker(workers=1)
    tele = telemetry if telemetry is not None else NOOP
    env = config.env_config()
    train_seeds = config.resolved_train_seeds()

    policy = LinearSoftmaxPolicy.sjbf_init()
    init_score = _greedy_score(broker, env, policy, train_seeds)
    tele.inc("learn.evals")
    # (score, epoch, policy); ties keep the earliest -- and the init wins
    # an exact tie against any epoch, so "no improvement" ships the
    # heuristic-equivalent weights unchanged.
    best: tuple[float, int, LinearSoftmaxPolicy] = (init_score, -1, policy)
    history: list[dict] = []

    for epoch in range(config.epochs):
        trace_seeds = [
            train_seeds[i % len(train_seeds)] for i in range(config.episodes)
        ]
        rng_seeds = [
            _episode_seed(config.seed, epoch, i) for i in range(config.episodes)
        ]
        episodes: list[Episode] = collect_episodes(
            broker,
            env,
            policy,
            trace_seeds,
            sample=True,
            temperature=config.temperature,
            rng_seeds=rng_seeds,
        )
        returns = np.array([ep.return_ for ep in episodes])
        baseline = float(returns.mean())
        advantages = returns - baseline
        grad = np.zeros(len(policy.theta))
        for episode, advantage in zip(episodes, advantages, strict=True):
            grad += advantage * episode.grad
        grad /= max(len(episodes), 1)
        norm = float(np.linalg.norm(grad))
        if norm > config.grad_clip > 0:
            grad *= config.grad_clip / norm
        policy = policy.step(config.lr * grad)

        greedy = _greedy_score(broker, env, policy, train_seeds)
        if greedy < best[0]:
            best = (greedy, epoch, policy)
        entropy = float(np.mean([ep.entropy for ep in episodes]))
        history.append(
            {
                "epoch": epoch,
                "mean_return": baseline,
                "best_return": float(returns.max()),
                "entropy": entropy,
                "grad_norm": norm,
                "greedy_avebsld": greedy,
            }
        )
        if tele.enabled:
            for episode in episodes:
                tele.observe("learn.return", episode.return_)
                tele.observe("learn.entropy", episode.entropy)
            tele.observe("learn.grad_norm", norm)
            tele.inc("learn.epochs")
            tele.inc("learn.episodes", len(episodes))
            tele.inc("learn.decisions", sum(ep.decisions for ep in episodes))
            tele.event(
                "epoch",
                epoch=epoch,
                mean_return=round(baseline, 4),
                entropy=round(entropy, 4),
                grad_norm=round(norm, 4),
                greedy_avebsld=round(greedy, 4),
            )

    score, best_epoch, best_policy = best
    checkpoint = best_policy.checkpoint(
        meta={
            "trained_on": {
                "log": config.log,
                "n_jobs": config.n_jobs,
                "train_seeds": list(train_seeds),
                "predictor": config.predictor,
                "corrector": config.corrector,
                "min_prediction": config.min_prediction,
                "tau": config.tau,
            },
            "trainer": {
                "algo": "reinforce",
                "epochs": config.epochs,
                "episodes": config.episodes,
                "lr": config.lr,
                "temperature": config.temperature,
                "grad_clip": config.grad_clip,
                "seed": config.seed,
            },
            "best_epoch": best_epoch,
            "train_avebsld": score,
            "init_avebsld": init_score,
        }
    )
    tele.event(
        "trained",
        digest=checkpoint.digest(),
        best_epoch=best_epoch,
        train_avebsld=round(score, 4),
        init_avebsld=round(init_score, 4),
    )
    return TrainResult(
        checkpoint=checkpoint,
        train_avebsld=score,
        init_avebsld=init_score,
        best_epoch=best_epoch,
        history=history,
    )


def evaluate_policy(
    digest: str,
    log: str,
    seeds: Sequence[int],
    n_jobs: int = 500,
    predictor: str = "ave2",
    corrector: str = "incremental",
    min_prediction: float = 60.0,
    tau: float = 10.0,
    baselines: Sequence[str] = ("easy", "easy-sjbf"),
    cache_path: str | None = None,
    workers: int | None = None,
    telemetry: Telemetry | None = None,
):
    """Score a trained policy against heuristic baselines as a campaign.

    Builds one cell per (scheduler, seed) -- the learned
    ``rl-backfill(policy=digest)`` plus each baseline scheduler, sharing
    predictor/corrector/workload -- and runs them through
    :func:`repro.core.campaign.run_cells`, so results cache under spec
    digests (the learned cells' digests embed the checkpoint digest).
    The checkpoint itself is resolved from ``$REPRO_CHECKPOINT_DIR`` at
    build time: the store *location* stays out of the cache key.

    Returns the :class:`~repro.core.campaign.SpecCampaignResult`; rank
    with ``.leaderboard()``.  A bad size, seed list or component name is
    a :class:`~repro.spec.SpecFileError`, raised before any cell runs.
    """
    from ..core.campaign import run_cells
    from ..spec import expand_spec_obj

    cells = expand_spec_obj(
        {
            "campaign": {
                "logs": [log],
                "n_jobs": n_jobs,
                "seeds": list(seeds),
                "min_prediction": min_prediction,
                "tau": tau,
            },
            "grid": {
                "predictor": [predictor],
                "corrector": [corrector],
                "scheduler": [{"name": "rl-backfill", "params": {"policy": digest}}, *baselines],
            },
        },
        source="policy evaluation",
    )
    return run_cells(cells, cache_path=cache_path, workers=workers, telemetry=telemetry)
