"""Linear softmax backfill policy + the ``rl-backfill`` scheduler.

The policy scores each *eligible* backfill candidate with a linear
function of hand-rolled features and a softmax turns the scores (plus a
constant-score synthetic **stop** action) into an action distribution.
Greedy argmax is the deployment mode; sampled actions drive the
REINFORCE trainer (:mod:`repro.learn.train`).

The scheduler rides :class:`repro.sched.easy.EasyScheduler` wholesale --
head starts, shadow/extra reservation, release-table and queue upkeep
are untouched -- and only replaces the phase-3 backfill pick
(:meth:`EasyScheduler._backfill`: the hook returns its picks in start
order and ``select_jobs`` takes them off the queue).  Every action the
policy can take respects EASY's reservation invariant (candidates are
filtered for eligibility *before* scoring), so a learned policy can
reorder backfilling but can never delay the head's reservation: the
worst a bad policy can do is backfill too little.

Initialization matters: :meth:`LinearSoftmaxPolicy.sjbf_init` weights
only the predicted-runtime feature (negatively) with the stop score far
below any reachable candidate score, which makes the greedy policy
reproduce EASY-SJBF's backfill choice exactly -- training starts from
the paper's best heuristic instead of noise.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..sched.easy import EasyScheduler
from ..sim.machine import Machine
from ..sim.results import JobRecord
from .checkpoint import CheckpointError, PolicyCheckpoint

__all__ = [
    "FEATURE_NAMES",
    "POLICY_FAMILY",
    "LinearSoftmaxPolicy",
    "RLBackfillScheduler",
    "candidate_features",
]

POLICY_FAMILY = "linear-softmax"

#: Observation columns, in order.  Appending a feature is a
#: CHECKPOINT_VERSION bump (old weight vectors would silently misalign).
FEATURE_NAMES: tuple[str, ...] = (
    "log_predicted",       # log1p(predicted runtime)
    "log_requested",       # log1p(requested time)
    "log_width",           # log1p(processors)
    "log_wait",            # log1p(now - submit)
    "fits_before_shadow",  # 1.0 if predicted end <= shadow
    "frac_free",           # width / free processors
    "log_shadow_gap",      # log1p(shadow - now)
    "log_extra",           # log1p(extra processors)
    "log_n_waiting",       # log1p(queue length)
    "log_releases",        # log1p(release-table length)
)

#: Stop score of the SJBF-equivalent init: far below -log1p of any
#: realistic predicted runtime (weeks ~ -14.3), so greedy never stops
#: while an eligible candidate remains -- exactly the heuristic scan.
_SJBF_STOP_BIAS = -40.0


def candidate_features(
    record: JobRecord,
    now: float,
    free: int,
    shadow: float,
    extra: int,
    n_waiting: int,
    n_releases: int,
) -> np.ndarray:
    """Feature vector of one eligible candidate (order = FEATURE_NAMES)."""
    return np.array(
        [
            np.log1p(max(record.predicted_runtime, 0.0)),
            np.log1p(max(record.requested_time, 0.0)),
            np.log1p(float(record.processors)),
            np.log1p(max(now - record.submit_time, 0.0)),
            1.0 if now + record.predicted_runtime <= shadow else 0.0,
            float(record.processors) / float(max(free, 1)),
            np.log1p(max(shadow - now, 0.0)),
            np.log1p(float(max(extra, 0))),
            np.log1p(float(n_waiting)),
            np.log1p(float(n_releases)),
        ],
        dtype=np.float64,
    )


class LinearSoftmaxPolicy:
    """Numpy-only linear softmax over candidates + a stop action.

    ``weights`` has one entry per :data:`FEATURE_NAMES` column;
    ``stop_bias`` is the stop action's constant score.  The *parameter
    vector* the trainer updates is the concatenation ``[weights,
    stop_bias]`` (dimension F+1).
    """

    def __init__(self, weights: np.ndarray, stop_bias: float) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(FEATURE_NAMES),):
            raise ValueError(
                f"policy needs {len(FEATURE_NAMES)} weights, got shape "
                f"{weights.shape}"
            )
        self.weights = weights
        self.stop_bias = float(stop_bias)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def sjbf_init(cls) -> LinearSoftmaxPolicy:
        """The EASY-SJBF-equivalent starting point (see module docstring)."""
        weights = np.zeros(len(FEATURE_NAMES))
        weights[FEATURE_NAMES.index("log_predicted")] = -1.0
        return cls(weights, _SJBF_STOP_BIAS)

    @classmethod
    def from_checkpoint(cls, ckpt: PolicyCheckpoint) -> LinearSoftmaxPolicy:
        if ckpt.family != POLICY_FAMILY:
            raise CheckpointError(
                f"checkpoint family {ckpt.family!r} is not {POLICY_FAMILY!r}"
            )
        if ckpt.features != FEATURE_NAMES:
            raise CheckpointError(
                f"checkpoint features {list(ckpt.features)} do not match this "
                f"build's {list(FEATURE_NAMES)} (stale CHECKPOINT_VERSION?)"
            )
        return cls(np.array(ckpt.weights), ckpt.stop_bias)

    def checkpoint(self, meta: dict | None = None) -> PolicyCheckpoint:
        return PolicyCheckpoint(
            family=POLICY_FAMILY,
            features=FEATURE_NAMES,
            weights=tuple(float(w) for w in self.weights),
            stop_bias=self.stop_bias,
            meta=dict(meta or {}),
        )

    # -- the parameter vector view (trainer-facing) ---------------------------
    @property
    def theta(self) -> np.ndarray:
        """Flat parameter vector ``[weights..., stop_bias]`` (a copy)."""
        return np.append(self.weights, self.stop_bias)

    def step(self, delta: np.ndarray) -> LinearSoftmaxPolicy:
        """A new policy moved by ``delta`` in parameter space."""
        theta = self.theta + np.asarray(delta, dtype=np.float64)
        return LinearSoftmaxPolicy(theta[:-1], float(theta[-1]))

    # -- action selection ------------------------------------------------------
    def action_scores(self, features: np.ndarray) -> np.ndarray:
        """Scores of [candidate 0..n-1, stop] for an (n, F) feature matrix."""
        return np.append(features @ self.weights, self.stop_bias)

    def distribution(self, features: np.ndarray, temperature: float = 1.0) -> np.ndarray:
        """Softmax action probabilities (last entry = stop)."""
        scores = self.action_scores(features) / max(temperature, 1e-9)
        scores -= scores.max()  # shift-invariant, overflow-safe
        exp = np.exp(scores)
        return exp / exp.sum()

    def act_greedy(self, features: np.ndarray) -> int:
        """Argmax action; ties break on the first (queue-order) index."""
        return int(np.argmax(self.action_scores(features)))

    def act_sample(
        self, features: np.ndarray, rng: np.random.Generator, temperature: float = 1.0
    ) -> tuple[int, np.ndarray]:
        """Sample an action; returns ``(action, probabilities)``."""
        probs = self.distribution(features, temperature)
        action = int(rng.choice(len(probs), p=probs))
        return action, probs


class RLBackfillScheduler(EasyScheduler):
    """EASY backfilling whose phase-3 pick is a learned policy.

    Deployment instances (built by the component registry) run greedy
    and deterministic.  The trainer passes ``rng``/``temperature`` to
    sample actions and a ``recorder`` to stream per-decision
    ``(aug_features, action, probs)`` tuples out for the REINFORCE
    gradient -- recording never changes which action was taken.

    Candidate order within a decision is queue (FCFS) order, which makes
    greedy ties deterministic and, with the SJBF init, byte-identical to
    EASY-SJBF's ``(predicted, submit, job_id)`` tie-breaking.
    """

    def __init__(
        self,
        policy: LinearSoftmaxPolicy,
        rng: np.random.Generator | None = None,
        temperature: float = 1.0,
        recorder: Callable[[np.ndarray, int, np.ndarray], None] | None = None,
    ) -> None:
        super().__init__(backfill_order="fcfs")
        self.name = "rl-backfill"
        self.policy = policy
        self.rng = rng
        self.temperature = temperature
        self.recorder = recorder
        self._n_releases = 0  # the machine's release-table length, noted per pass

    def select_jobs(self, now: float, machine: Machine) -> list[JobRecord]:
        self._n_releases = len(machine.releases)
        return super().select_jobs(now, machine)

    def _backfill(
        self, now: float, free: int, shadow: float, extra: int, candidates: list[JobRecord]
    ) -> list[JobRecord]:
        # a stop may leave eligible jobs: ignore ``candidates``, scan the queue
        picked: dict[int, JobRecord] = {}  # by job id, in start order
        while True:
            eligible: list[JobRecord] = []
            feats: list[np.ndarray] = []
            n_waiting = len(self._queue) - len(picked)
            for record in self._queue[1:]:
                if record.job_id in picked or record.processors > free:
                    continue
                finishes_before_shadow = now + record.predicted_runtime <= shadow
                if not finishes_before_shadow and record.processors > extra:
                    continue
                eligible.append(record)
                feats.append(
                    candidate_features(
                        record, now, free, shadow, extra, n_waiting, self._n_releases
                    )
                )
            if not eligible:
                break
            features = np.vstack(feats)
            if self.rng is not None:
                action, probs = self.policy.act_sample(
                    features, self.rng, self.temperature
                )
            else:
                action = self.policy.act_greedy(features)
                probs = None
            if self.recorder is not None:
                if probs is None:
                    probs = self.policy.distribution(features, self.temperature)
                # augment with the stop one-hot so the gradient vector is
                # the full parameter dimension F+1
                aug = np.zeros((len(eligible) + 1, len(FEATURE_NAMES) + 1))
                aug[:-1, :-1] = features
                aug[-1, -1] = 1.0
                self.recorder(aug, action, probs)
            if action == len(eligible):  # stop
                break
            record = eligible[action]
            free -= record.processors
            if now + record.predicted_runtime > shadow:
                extra -= record.processors
            picked[record.job_id] = record
        return list(picked.values())
