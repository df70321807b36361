"""Scheduling algorithms: FCFS, EASY (+SJBF order), conservative backfilling."""

from .base import Scheduler
from .conservative import ConservativeScheduler
from .easy import EasyScheduler
from .fcfs import FcfsScheduler
from .legacy import LegacyConservativeScheduler, LegacyEasyScheduler
from .ordering import BACKFILL_ORDERS, order_queue
from .profile_structure import ReleaseTable

__all__ = [
    "Scheduler",
    "ConservativeScheduler",
    "EasyScheduler",
    "FcfsScheduler",
    "LegacyConservativeScheduler",
    "LegacyEasyScheduler",
    "ReleaseTable",
    "BACKFILL_ORDERS",
    "order_queue",
]


def make_scheduler(spec) -> Scheduler:
    """Construct a scheduler from the unified component registry.

    Accepts a legacy string (``fcfs``, ``easy``, ``easy-sjbf``,
    ``conservative``, ``conservative-sjbf``, and the seed ``legacy-*``
    oracles -- the ``-<order>`` suffix is shorthand for the ``order``
    param, which is ``fcfs`` or ``sjbf``), a
    ``{"name": "easy", "params": {"order": "sjbf"}}`` dict (``rl-backfill``
    needs one, for its ``policy`` checkpoint), or a ready
    :class:`repro.spec.ComponentSpec`.
    """
    from ..spec.components import scheduler_registry

    return scheduler_registry().build(spec)
