"""Event-driven scheduler simulator (pyss equivalent).

Two entry styles: :func:`simulate` drains a finished trace in one batch
call, and :class:`SimSession` is the same engine opened up for
incremental feeding, live queries and machine events (the streaming
simulation-as-a-service substrate).
"""

from .engine import EngineStats, simulate
from .events import Event, EventQueue, EventType
from .machine import Machine
from .profile import AvailabilityProfile
from .results import JobRecord, SimulationResult
from .session import (
    EstimatedStart,
    MachineEvent,
    MonotonicityError,
    SessionSnapshot,
    SimSession,
)
from .timeline import (
    ascii_timeline,
    occupancy_timeline,
    queue_timeline,
    utilization_profile,
)

__all__ = [
    "EngineStats",
    "simulate",
    "SimSession",
    "EstimatedStart",
    "SessionSnapshot",
    "MachineEvent",
    "MonotonicityError",
    "Event",
    "EventQueue",
    "EventType",
    "Machine",
    "AvailabilityProfile",
    "JobRecord",
    "SimulationResult",
    "ascii_timeline",
    "occupancy_timeline",
    "queue_timeline",
    "utilization_profile",
]
