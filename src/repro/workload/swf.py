"""Standard Workload Format reader and writer.

Parses the 18-field SWF used by the Parallel Workloads Archive into a
:class:`~repro.workload.trace.Trace` and writes traces back out, so
synthetic workloads can be inspected with standard PWA tooling and real
archive logs can be fed to the simulator when available.

SWF conventions honoured here:

* lines starting with ``;`` are header comments; ``; Key: Value`` pairs
  are collected into the returned header dictionary;
* missing numeric values are encoded as ``-1``;
* the requested-time field may be missing (``-1``), in which case we fall
  back to the actual runtime (the job is then "perfectly estimated" --
  the same convention pyss uses);
* no data line raises: one that cannot be a job is skipped and counted in
  ``ParseReport.skipped_reasons`` under the first of ``short line``, ``non-numeric
  field``, ``non-finite field`` (nan/inf), ``nonpositive runtime`` / ``nonpositive
  processors`` (cancelled before start), ``negative submit time`` (``-1``) and
  ``wider than the machine`` (more processors than ``processors=`` or the
  ``MaxProcs`` / ``MaxNodes`` header give).
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field
from typing import TextIO

from .fields import SwfField
from .job import Job
from .trace import Trace

__all__ = ["ParseReport", "load_swf", "loads_swf", "save_swf", "dumps_swf"]


@dataclass
class ParseReport:
    """Outcome of parsing an SWF stream."""

    n_lines: int = 0
    n_jobs: int = 0
    n_skipped: int = 0
    n_clamped_runtime: int = 0
    header: dict[str, str] = field(default_factory=dict)
    skipped_reasons: dict[str, int] = field(default_factory=dict)

    def note_skip(self, reason: str) -> None:
        self.n_skipped += 1
        self.skipped_reasons[reason] = self.skipped_reasons.get(reason, 0) + 1


def _parse_header_line(line: str, report: ParseReport) -> None:
    key, colon, value = line.lstrip(";").partition(":")
    key = key.strip()
    if colon and key and key not in report.header:
        report.header[key] = value.strip()


def _job_from_fields(fields: list[float], report: ParseReport) -> Job | None:
    job_id = int(fields[SwfField.JOB_ID])
    runtime = float(fields[SwfField.RUN_TIME])
    procs = int(fields[SwfField.ALLOCATED_PROCESSORS])
    if procs <= 0:
        procs = int(fields[SwfField.REQUESTED_PROCESSORS])
    if runtime <= 0:
        report.note_skip("nonpositive runtime")
        return None
    if procs <= 0:
        report.note_skip("nonpositive processors")
        return None
    if fields[SwfField.SUBMIT_TIME] < 0:
        report.note_skip("negative submit time")
        return None
    requested = float(fields[SwfField.REQUESTED_TIME])
    if requested <= 0:
        requested = runtime
    if runtime > requested:
        # SWF logs occasionally record runtimes slightly above the request
        # (grace periods at kill time).  Clamp to keep the model invariant.
        runtime = requested
        report.n_clamped_runtime += 1
    return Job(
        job_id=job_id,
        submit_time=float(fields[SwfField.SUBMIT_TIME]),
        runtime=runtime,
        processors=procs,
        requested_time=requested,
        user=int(fields[SwfField.USER_ID]),
        group=int(fields[SwfField.GROUP_ID]),
        executable=int(fields[SwfField.EXECUTABLE]),
        queue=int(fields[SwfField.QUEUE]),
        partition=int(fields[SwfField.PARTITION]),
        status=int(fields[SwfField.STATUS]),
        cpu_time=float(fields[SwfField.AVERAGE_CPU_TIME]),
        memory=float(fields[SwfField.USED_MEMORY]),
        requested_processors=int(fields[SwfField.REQUESTED_PROCESSORS]),
        requested_memory=float(fields[SwfField.REQUESTED_MEMORY]),
        preceding_job=int(fields[SwfField.PRECEDING_JOB]),
        think_time=float(fields[SwfField.THINK_TIME]),
    )


def _parse_stream(stream: TextIO, name: str, processors: int | None) -> tuple[Trace, ParseReport]:
    report = ParseReport()
    parsed: list[Job] = []
    for line in stream:
        report.n_lines += 1
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith(";"):
            _parse_header_line(stripped, report)
            continue
        parts = stripped.split()
        if len(parts) < 18:
            report.note_skip("short line")
            continue
        try:
            values = [float(p) for p in parts[:18]]
        except ValueError:
            report.note_skip("non-numeric field")
            continue
        if not all(map(math.isfinite, values)):
            report.note_skip("non-finite field")
            continue
        job = _job_from_fields(values, report)
        if job is not None:
            parsed.append(job)

    # the header may follow data lines: size the machine before keeping jobs
    if processors is None:
        for key in ("MaxProcs", "MaxNodes"):
            if key in report.header:
                try:
                    processors = int(report.header[key])
                    break
                except ValueError:
                    continue
    if processors is None or processors <= 0:
        processors = max((j.processors for j in parsed), default=1)
    jobs: list[Job] = []
    seen_ids: set[int] = set()
    next_fresh_id = 0
    for job in parsed:
        if job.processors > processors:
            report.note_skip("wider than the machine")
            continue
        if job.job_id in seen_ids:
            # PWA logs are 1-indexed and occasionally repeat ids across
            # partitions; remap duplicates to fresh negative-free ids.
            next_fresh_id = max(max(seen_ids) + 1, next_fresh_id)
            job = job.with_updates(job_id=next_fresh_id)
            next_fresh_id += 1
        seen_ids.add(job.job_id)
        jobs.append(job)
    report.n_jobs = len(jobs)
    unix_start = 0
    if "UnixStartTime" in report.header:
        try:
            unix_start = int(report.header["UnixStartTime"])
        except ValueError:
            unix_start = 0
    trace = Trace(jobs, processors=processors, name=name, unix_start_time=unix_start)
    return trace, report


def load_swf(path: str | os.PathLike, processors: int | None = None) -> tuple[Trace, ParseReport]:
    """Parse an SWF file into a trace.

    ``processors`` overrides the machine size; when omitted it is taken
    from the ``MaxProcs``/``MaxNodes`` header or, failing that, the widest
    job in the log; a job wider than it is a counted skip.
    Returns ``(trace, report)``.
    """
    name = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    with open(path, encoding="utf-8", errors="replace") as fh:
        return _parse_stream(fh, name=name, processors=processors)


def loads_swf(text: str, name: str = "swf", processors: int | None = None) -> tuple[Trace, ParseReport]:
    """Parse SWF content from a string. Returns ``(trace, report)``."""
    return _parse_stream(io.StringIO(text), name=name, processors=processors)


def _format_job(job: Job) -> str:
    fields = [
        job.job_id,
        int(round(job.submit_time)),
        -1,  # wait time: simulation output, unknown in an input trace
        int(round(job.runtime)),
        job.processors,
        int(job.cpu_time) if job.cpu_time >= 0 else -1,
        int(job.memory) if job.memory >= 0 else -1,
        job.requested_processors if job.requested_processors > 0 else job.processors,
        int(round(job.requested_time)),
        int(job.requested_memory) if job.requested_memory >= 0 else -1,
        job.status,
        job.user,
        job.group,
        job.executable,
        job.queue,
        job.partition,
        job.preceding_job,
        int(job.think_time) if job.think_time >= 0 else -1,
    ]
    return " ".join(str(v) for v in fields)


def dumps_swf(trace: Trace) -> str:
    """Serialise a trace to SWF text (header + 18-field records)."""
    lines = [
        "; Version: 2.2",
        f"; Computer: {trace.name}",
        "; Conversion: repro.workload.swf",
        f"; MaxJobs: {len(trace)}",
        f"; MaxRecords: {len(trace)}",
        f"; UnixStartTime: {trace.unix_start_time}",
        f"; MaxProcs: {trace.processors}",
    ]
    lines.extend(_format_job(job) for job in trace)
    return "\n".join(lines) + "\n"


def save_swf(trace: Trace, path: str | os.PathLike) -> None:
    """Write a trace to ``path`` in SWF format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_swf(trace))
