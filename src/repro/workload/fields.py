"""Standard Workload Format (SWF) field definitions.

The SWF is the de-facto standard of the Parallel Workloads Archive
(Feitelson, Tsafrir & Krakov 2014).  Each non-comment line holds 18
whitespace-separated fields; header comments start with ``;``.

This module centralises the field indices so the parser and writer stay
in sync.
"""

from __future__ import annotations

from enum import IntEnum

__all__ = ["SwfField", "SWF_FIELD_COUNT"]


class SwfField(IntEnum):
    """Column indices of the 18 SWF fields (0-based)."""

    JOB_ID = 0
    SUBMIT_TIME = 1
    WAIT_TIME = 2
    RUN_TIME = 3
    ALLOCATED_PROCESSORS = 4
    AVERAGE_CPU_TIME = 5
    USED_MEMORY = 6
    REQUESTED_PROCESSORS = 7
    REQUESTED_TIME = 8
    REQUESTED_MEMORY = 9
    STATUS = 10
    USER_ID = 11
    GROUP_ID = 12
    EXECUTABLE = 13
    QUEUE = 14
    PARTITION = 15
    PRECEDING_JOB = 16
    THINK_TIME = 17


SWF_FIELD_COUNT = 18
