"""Workload substrate: job model, SWF I/O, archive metadata, synthesis."""

from .archive import ARCHIVE, LOG_NAMES, LogSpec, get_trace, stable_seed, table4_rows
from .estimates import ROUND_VALUES, EstimateStyle, round_up_to_round_value
from .filters import (
    clamp_requested,
    drop_flurries,
    drop_status,
    standard_clean,
)
from .job import Job, validate_job
from .swf import ParseReport, dumps_swf, load_swf, loads_swf, save_swf
from .synthetic import WorkloadModel, arrival_intensity, synthesize
from .trace import Trace, TraceStats

__all__ = [
    "ARCHIVE",
    "LOG_NAMES",
    "LogSpec",
    "get_trace",
    "stable_seed",
    "table4_rows",
    "ROUND_VALUES",
    "EstimateStyle",
    "round_up_to_round_value",
    "clamp_requested",
    "drop_flurries",
    "drop_status",
    "standard_clean",
    "Job",
    "validate_job",
    "ParseReport",
    "dumps_swf",
    "load_swf",
    "loads_swf",
    "save_swf",
    "WorkloadModel",
    "arrival_intensity",
    "synthesize",
    "Trace",
    "TraceStats",
]
