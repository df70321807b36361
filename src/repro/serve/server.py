"""The ``repro serve`` line protocol: JSONL requests over a live session.

Every request is one JSON object per line with a ``cmd`` field; every
response is one JSON object per line with ``ok`` (bool) and the echoed
``cmd``.  Malformed requests produce ``{"ok": false, "error": ...}``
without killing the connection.  Commands:

``submit``
    ``{"cmd": "submit", "job": {...}}`` -- feed a job.  Job fields:
    ``job_id``, ``submit_time``, ``processors``, ``requested_time``
    required; ``runtime`` optional (defaults to the requested time --
    the serving analogue of "unknown until observed"; report the truth
    later with ``complete``); ``user`` and other SWF metadata optional.
``advance``
    ``{"cmd": "advance", "time": T}`` -- process everything up to and
    including T and move the clock there.
``step``
    process the next pending timestamp, if any.
``drain``
    process every pending event (run the simulation dry).
``query``
    ``{"cmd": "query", "job_id": N}`` or ``{"cmd": "query", "job":
    {...}}`` (hypothetical probe).  Responds with the estimated start,
    wait, state, and the server-side ``elapsed_us`` spent answering.
``complete``
    ``{"cmd": "complete", "job_id": N, "time": T}`` -- a running job
    really finished at T (external truth overriding the simulated
    runtime); the predictor learns from the observation.
``observe``
    ``{"cmd": "observe", "job": {...}, "runtime": R}`` -- predictor-only
    online update from a completion the session never scheduled (history
    warm-up).
``machine``
    ``{"cmd": "machine", "kind": "drain"|"restore", "processors": K,
    "time": T?}`` -- capacity event (T defaults to now).
``snapshot``
    queue/machine/counter state.
``result``
    per-finished-job ``[job_id, start_time, end_time]`` rows (sorted),
    for diffing against a batch run.
``stats`` / ``ping`` / ``quit``
    engine counters / no-op round-trip / end the loop.
"""

from __future__ import annotations

import json
import math
import time as _time
from dataclasses import dataclass, fields
from typing import IO, Any, get_type_hints

from ..obs import get_logger
from ..obs.telemetry import NOOP, Tally, Telemetry
from ..sim.session import MachineEvent, SimSession
from ..workload.job import Job

_log = get_logger("serve")

__all__ = ["SessionServer", "ServeStats", "build_serve_session", "serve_loop"]

#: Job fields accepted from the wire (everything the dataclass carries).
_JOB_FIELDS = frozenset(f.name for f in fields(Job))
#: the job fields that take a JSON integer only; the others take any number
_INT_FIELDS = frozenset(name for name, kind in get_type_hints(Job).items() if kind is int)
#: the types of a JSON number (``bool`` is an ``int`` subclass, not one of them)
_NUMBERS = frozenset((int, float))
_REQUIRED_JOB_FIELDS = frozenset(("job_id", "submit_time", "processors", "requested_time"))
_TIMES = ("submit_time", "requested_time", "runtime")
#: ``json.loads``' own scanner, less its BOM test and whitespace skips
_scan_once = json.JSONDecoder().scan_once


@dataclass
class ServeStats:
    """Connection-level counters, reported when the loop ends."""

    n_requests: int = 0
    n_errors: int = 0
    n_submitted: int = 0
    n_queries: int = 0


def build_serve_session(
    processors: int,
    scheduler: str = "easy-sjbf",
    predictor: str = "ave2",
    corrector: str | None = "incremental",
    min_prediction: float = 60.0,
    name: str = "serve",
    telemetry: Telemetry | None = None,
) -> SimSession:
    """Wire a live session from component registry names.

    Passing ``telemetry`` shares one registry between the engine and the
    serving layer, so a served session's snapshot carries engine event
    counters next to the request-latency histograms.
    """
    from ..correct import make_corrector
    from ..predict import make_predictor
    from ..sched import make_scheduler

    built_corrector = None
    if corrector and corrector != "none":
        built_corrector = make_corrector(corrector)
    return SimSession(
        processors,
        make_scheduler(scheduler),
        make_predictor(predictor),
        built_corrector,
        min_prediction=min_prediction,
        trace_name=name,
        telemetry=telemetry,
    )


def _finite(value: Any, field: str) -> float:
    """``value`` as a float if a finite JSON number, refused by name
    otherwise: a bool or a string is not a number, and ``json.loads``
    takes ``NaN`` and ``Infinity``, which the session's clock and jobs
    must not."""
    if type(value) not in _NUMBERS or not math.isfinite(value):
        raise ValueError(f"{field} must be a finite number, got {value!r}")
    return float(value)


def _integer(value: Any, field: str) -> int:
    """``value`` if a JSON integer (a bool, real or string is refused by name)."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _parse_job(payload: Any) -> Job:
    if not isinstance(payload, dict):
        raise ValueError("job must be an object of SWF-style fields")
    for field, value in payload.items():
        if field in _INT_FIELDS:
            if type(value) is not int:
                raise ValueError(f"job {field} must be an integer, got {value!r}")
        elif field not in _JOB_FIELDS:
            raise ValueError(f"unknown job field {field!r}")
        elif type(value) not in _NUMBERS:
            raise ValueError(f"job {field} must be a number, got {value!r}")
    if not payload.keys() >= _REQUIRED_JOB_FIELDS:
        missing = ", ".join(sorted(_REQUIRED_JOB_FIELDS - payload.keys()))
        raise ValueError(f"job is missing required field(s): {missing}")
    data = dict(payload)
    # serving analogue of "runtime unknown until observed": schedule as if
    # the job runs to its requested bound, correct via `complete` later
    data.setdefault("runtime", data["requested_time"])
    for field in _TIMES:
        _finite(data[field], f"job {field}")
    return Job(**data)


class SessionServer:
    """Dispatches parsed protocol commands onto one live session.

    ``telemetry`` (optional) records per-request latency histograms,
    per-command counters and the warm-vs-cold split of query answers
    (warm = served from the session's memoised start estimates).
    """

    def __init__(
        self, session: SimSession, telemetry: Telemetry | None = None
    ) -> None:
        self.session = session
        self.telemetry = telemetry if telemetry is not None else NOOP
        self.stats = ServeStats()
        self.closed = False
        #: what the server counts and times over its life (None when off)
        self._tally: Tally | None = None
        if self.telemetry.enabled:
            self._tally = Tally()
            self.telemetry.attach(self._tally, self)

    # -- entry points --------------------------------------------------------
    def handle_line(self, line: str) -> dict | None:
        """One protocol round: JSON line in, response object out.

        Blank lines are ignored (returns None).  Any error -- parse,
        validation, or session -- becomes an ``ok: false`` response.
        """
        line = line.strip()
        if not line:
            return None
        # the C scanner alone for a well-formed line (no leading whitespace
        # is left to skip); anything else goes to json.loads for its error
        try:
            request, end = _scan_once(line, 0)
        except (StopIteration, ValueError):
            end = None
        if end != len(line):
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                return self._refused(error=f"bad JSON: {exc}")
        return self.handle(request)

    def handle(self, request: Any) -> dict:
        self.stats.n_requests += 1
        tally = self._tally
        if tally is not None:
            tally.counters["serve.requests.total"] += 1
        if not isinstance(request, dict) or "cmd" not in request:
            return self._refused(error="request must be an object with a 'cmd'")
        cmd = request["cmd"]
        handler = getattr(self, f"_cmd_{cmd}", None)
        if handler is None:
            return self._refused(cmd=cmd, error=f"unknown command {cmd!r}")
        if tally is not None:
            tally.counters[f"serve.requests.{cmd}"] += 1
            t0 = _time.perf_counter()
        try:
            response = handler(request)
        except Exception as exc:
            # a malformed or adversarial request must never tear down the
            # session: answer with a structured error and keep serving
            if isinstance(exc, (ValueError, KeyError, TypeError)):  # a bad request
                _log.debug("request %r failed: %s", cmd, exc)
                return self._refused(cmd=cmd, error=str(exc))
            _log.exception("request %r raised unexpectedly", cmd)
            error = f"internal error: {type(exc).__name__}: {exc}"
            return self._refused(cmd=str(cmd), error=error)
        if tally is not None:
            tally.histograms["serve.request.seconds"].observe(_time.perf_counter() - t0)
        response["ok"] = True  # no handler answers with these three keys
        response["cmd"] = cmd
        response["now"] = self.session.now
        return response

    def _refused(self, **fields: Any) -> dict:
        """An ``ok: false`` answer, counted; it ends the request."""
        self.stats.n_errors += 1
        if self._tally is not None:
            self._tally.counters["serve.errors"] += 1
        return {"ok": False, **fields}

    # -- commands ------------------------------------------------------------
    def _cmd_submit(self, request: dict) -> dict:
        job = _parse_job(request.get("job"))
        self.session.feed(job)
        self.stats.n_submitted += 1
        if request.get("advance"):
            self.session.advance_to(job.submit_time)
        return {"job_id": job.job_id, "queued_at": job.submit_time}

    def _cmd_advance(self, request: dict) -> dict:
        if "time" not in request:
            raise ValueError("advance needs a 'time'")
        steps = self.session.advance_to(_finite(request["time"], "time"))
        return {"steps": steps}

    def _cmd_step(self, request: dict) -> dict:
        processed = self.session.step()
        return {"processed": processed}

    def _cmd_drain(self, request: dict) -> dict:
        steps = self.session.drain()
        return {"steps": steps}

    def _cmd_query(self, request: dict) -> dict:
        tally = self._tally
        t0 = _time.perf_counter()
        if "job_id" in request:
            if tally is not None:
                # warm = the memoised waiting-start table survives from a
                # previous query at this state; cold pays a profile sweep
                warm = self.session.query_cache_warm
                tally.counters["serve.query.warm" if warm else "serve.query.cold"] += 1
            answer = self.session.query(job_id=_integer(request["job_id"], "job_id"))
        elif "job" in request:
            if tally is not None:
                tally.counters["serve.query.probe"] += 1
            answer = self.session.query(_parse_job(request["job"]))
        else:
            raise ValueError("query needs a 'job_id' or a 'job'")
        elapsed_us = (_time.perf_counter() - t0) * 1e6
        self.stats.n_queries += 1
        if tally is not None:
            tally.histograms["serve.query.seconds"].observe(elapsed_us / 1e6)
        # a held job (wider than the undrained capacity) estimates inf,
        # which strict JSON cannot carry: send null instead
        finite = math.isfinite(answer.start_time)
        return {
            "job_id": answer.job_id,
            "state": answer.state,
            "start": answer.start_time if finite else None,
            "wait": answer.wait if finite else None,
            "predicted_runtime": answer.predicted_runtime,
            "elapsed_us": round(elapsed_us, 2),
        }

    def _cmd_complete(self, request: dict) -> dict:
        if "job_id" not in request:
            raise ValueError("complete needs a 'job_id'")
        when = request.get("time")
        record = self.session.complete(
            _integer(request["job_id"], "job_id"), None if when is None else _finite(when, "time")
        )
        return {
            "job_id": record.job_id,
            "start": record.start_time,
            "end": record.end_time,
            "runtime": record.runtime,
        }

    def _cmd_observe(self, request: dict) -> dict:
        if "runtime" not in request:
            raise ValueError("observe needs a 'runtime'")
        job = _parse_job(request.get("job"))
        self.session.observe_completion(job, _finite(request["runtime"], "runtime"))
        return {"job_id": job.job_id}

    def _cmd_machine(self, request: dict) -> dict:
        event = MachineEvent(
            time=_finite(request.get("time", self.session.now), "time"),
            kind=request.get("kind", ""),
            processors=_integer(request.get("processors", 0), "processors"),
        )
        self.session.feed_machine_event(event)
        return {"kind": event.kind, "processors": event.processors, "at": event.time}

    def _cmd_snapshot(self, request: dict) -> dict:
        snap = self.session.snapshot()
        return {
            "processors": snap.processors,
            "free": snap.free,
            "drained": snap.drained,
            "n_waiting": len(snap.waiting),
            "n_running": len(snap.running),
            "n_finished": snap.n_finished,
            "n_pending_events": snap.n_pending_events,
            "waiting": [list(w) for w in snap.waiting],
            "running": [list(r) for r in snap.running],
            "scheduler": snap.scheduler,
            "predictor": snap.predictor,
            "corrector": snap.corrector,
        }

    def _cmd_result(self, request: dict) -> dict:
        result = self.session.result(partial=True)
        rows = sorted((r.job_id, r.start_time, r.end_time) for r in result)
        return {"jobs": [list(row) for row in rows]}

    def _cmd_stats(self, request: dict) -> dict:
        stats = self.session.stats
        return {
            "n_events": stats.n_events,
            "n_scheduling_passes": stats.n_scheduling_passes,
            "n_corrections": stats.n_corrections,
            "max_queue_length": stats.max_queue_length,
            "n_jobs": self.session.n_jobs,
        }

    def _cmd_ping(self, request: dict) -> dict:
        return {"pong": True}

    def _cmd_quit(self, request: dict) -> dict:
        self.closed = True
        return {"bye": True}


def serve_loop(
    session: SimSession,
    in_stream: IO[str],
    out_stream: IO[str],
    telemetry: Telemetry | None = None,
) -> ServeStats:
    """Run the JSONL request/response loop until quit or EOF.

    One response line is written (and flushed) per non-blank request
    line, so pipe-driven clients can operate in lockstep.
    """
    server = SessionServer(session, telemetry=telemetry)
    _log.info("serve loop started (session %r)", session.trace_name)
    for line in in_stream:
        response = server.handle_line(line)
        if response is None:
            continue
        try:
            encoded = json.dumps(response)
        except (TypeError, ValueError):
            # a response that cannot serialise (e.g. a request smuggled a
            # non-JSON value into the echo fields) still gets a structured
            # answer instead of tearing down the loop
            _log.exception("response for %r not serialisable", line.strip()[:200])
            error = "internal error: unserialisable response"
            encoded = json.dumps(server._refused(error=error))
        out_stream.write(encoded + "\n")
        out_stream.flush()
        if server.closed:
            break
    _log.info(
        "serve loop ended: %d request(s), %d error(s)",
        server.stats.n_requests, server.stats.n_errors,
    )
    return server.stats
