"""Serving-layer telemetry: request latency, per-command and query counters."""

from __future__ import annotations

import io
import json

from repro.obs import Telemetry
from repro.serve import SessionServer, build_serve_session, serve_loop

from tests.helpers import make_job


def make_server(processors: int = 8) -> tuple[SessionServer, Telemetry]:
    tele = Telemetry(component="serve")
    session = build_serve_session(processors, telemetry=tele)
    return SessionServer(session, telemetry=tele), tele


def submit(
    server: SessionServer, job_id: int, when: float = 0.0, processors: int = 1
) -> None:
    job = make_job(job_id=job_id, submit_time=when, processors=processors)
    server.handle({
        "cmd": "submit", "advance": True,
        "job": {
            "job_id": job.job_id, "submit_time": job.submit_time,
            "processors": job.processors,
            "requested_time": job.requested_time, "runtime": job.runtime,
        },
    })


class TestRequestCounters:
    def test_every_request_is_counted_by_command(self):
        server, tele = make_server()
        submit(server, 1)
        server.handle({"cmd": "ping"})
        server.handle({"cmd": "drain"})
        assert tele.counter_value("serve.requests.total") == 3
        assert tele.counter_value("serve.requests.submit") == 1
        assert tele.counter_value("serve.requests.ping") == 1
        assert tele.counter_value("serve.requests.drain") == 1
        assert tele.histogram("serve.request.seconds").count == 3

    def test_errors_counted_even_for_bad_payloads(self):
        server, tele = make_server()
        server.handle_line("{broken json")
        server.handle(["not", "an", "object"])
        server.handle({"cmd": "warp"})
        server.handle({"cmd": "advance"})  # missing 'time'
        assert tele.counter_value("serve.errors") == 4
        # handler-level failures still attribute to their command
        assert tele.counter_value("serve.requests.advance") == 1

    def test_engine_counters_share_the_registry(self):
        server, tele = make_server()
        submit(server, 1)
        server.handle({"cmd": "drain"})
        assert tele.counter_value("engine.events.submit") == 1
        assert tele.counter_value("engine.events.finish") == 1


def _wire(job_id: int, processors: int = 1) -> dict:
    job = make_job(job_id=job_id, processors=processors)
    return {
        "job_id": job.job_id, "submit_time": job.submit_time, "processors": job.processors,
        "requested_time": job.requested_time, "runtime": job.runtime,
    }


class TestOneBatchPerRequest:
    """A request's counters and latencies reach the registry in one
    ``add_batch`` -- one lock -- when it is answered, refused or not; the
    registry reads as it did when each was a locked call of its own
    (pinned on the parent commit)."""

    SCRIPT = [
        {"cmd": "submit", "advance": True, "job": _wire(1, processors=8)},
        {"cmd": "submit", "advance": True, "job": _wire(2, processors=8)},
        {"cmd": "query", "job_id": 2},  # cold
        {"cmd": "query", "job_id": 2},  # warm
        {"cmd": "query", "job": _wire(99)},  # probe
        {"cmd": "query", "job_id": 77},  # counted warm, then refused: never fed
        {"cmd": "query"},  # refused before anything is counted
        {"cmd": "query", "job": {"job_id": 5}},  # counted probe, then refused: fields missing
        ["not", "an", "object"],
        {"cmd": "warp"},
        {"cmd": "advance"},  # missing 'time'
        {"cmd": "complete", "job_id": 1, "time": 40.0},
        {"cmd": "ping"},
        {"cmd": "drain"},
        {"cmd": "stats"},
    ]
    COUNTERS = {
        "serve.errors": 7, "serve.query.cold": 1, "serve.query.probe": 2,
        "serve.query.warm": 2, "serve.requests.advance": 1, "serve.requests.complete": 1,
        "serve.requests.drain": 1, "serve.requests.ping": 1, "serve.requests.query": 6,
        "serve.requests.stats": 1, "serve.requests.submit": 2, "serve.requests.total": 15,
    }
    LATENCIES = {"serve.query.seconds": 3, "serve.request.seconds": 9}

    def test_a_served_script_leaves_the_parents_registry_one_lock_a_request(self, monkeypatch):
        server, tele = make_server()
        batches = []
        add_batch = Telemetry.add_batch

        def counting(self, counters, samples, histograms=(), observations=()):
            counters = list(counters)
            batches.append([name for name, _ in counters if name.startswith("serve.")])
            add_batch(self, counters, samples, histograms, observations)

        def locked_call(*_args):
            raise AssertionError("a request reached the registry outside its one batch")

        monkeypatch.setattr(Telemetry, "add_batch", counting)
        monkeypatch.setattr(Telemetry, "inc", locked_call)
        monkeypatch.setattr(Telemetry, "observe", locked_call)
        server.handle_line("{broken json")
        for request in self.SCRIPT:
            server.handle(request)
            assert not server._counted and not server._timed
        served = [batch for batch in batches if batch]  # the session's folds carry no serve.*
        assert len(served) == 1 + len(self.SCRIPT)
        assert served[0] == ["serve.errors"]
        assert all(batch[0] == "serve.requests.total" for batch in served[1:])
        snap = tele.snapshot()
        assert {
            name: n for name, n in snap["counters"].items() if name.startswith("serve.")
        } == self.COUNTERS
        assert {
            name: hist["count"]
            for name, hist in snap["histograms"].items()
            if name.startswith("serve.")
        } == self.LATENCIES
        assert not tele._pending  # latencies are bucketed at once: nothing grows per request
        assert (server.stats.n_requests, server.stats.n_errors) == (15, 7)


class TestQueryCounters:
    def test_warm_cold_split(self):
        server, tele = make_server()
        # machine-wide jobs: the first runs, the second must wait -- and
        # only waiting-job queries sweep (and memoise) start estimates
        submit(server, 1, processors=8)
        submit(server, 2, processors=8)
        server.handle({"cmd": "query", "job_id": 2})  # first: cold sweep
        server.handle({"cmd": "query", "job_id": 2})  # memoised: warm
        assert tele.counter_value("serve.query.cold") == 1
        assert tele.counter_value("serve.query.warm") == 1
        assert tele.histogram("serve.query.seconds").count == 2

    def test_hypothetical_probe_counted_separately(self):
        server, tele = make_server()
        job = make_job(job_id=99, submit_time=0.0)
        server.handle({
            "cmd": "query",
            "job": {
                "job_id": job.job_id, "submit_time": job.submit_time,
                "processors": job.processors,
                "requested_time": job.requested_time,
            },
        })
        assert tele.counter_value("serve.query.probe") == 1
        assert tele.counter_value("serve.query.warm") == 0
        assert tele.counter_value("serve.query.cold") == 0


class TestServeLoopTelemetry:
    def test_loop_threads_telemetry_through(self):
        tele = Telemetry(component="serve")
        session = build_serve_session(8, telemetry=tele)
        lines = [
            json.dumps({"cmd": "ping"}),
            "{torn",
            json.dumps({"cmd": "quit"}),
        ]
        out = io.StringIO()
        stats = serve_loop(
            session, io.StringIO("\n".join(lines) + "\n"), out, telemetry=tele
        )
        assert stats.n_requests == 2  # torn line never reaches dispatch
        assert tele.counter_value("serve.requests.total") == 2
        assert tele.counter_value("serve.errors") == 1

    def test_without_telemetry_nothing_breaks(self):
        session = build_serve_session(8)
        server = SessionServer(session)
        assert server.handle({"cmd": "ping"})["ok"] is True
