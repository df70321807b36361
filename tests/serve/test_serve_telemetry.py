"""Serving-layer telemetry: request latency, per-command and query counters."""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
import threading

from repro.obs import Telemetry
from repro.serve import SessionServer, build_serve_session, serve_loop
from repro.workload import get_trace

from tests.helpers import make_job
from tests.obs.test_instrumentation import _assert_reconciled


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


#: wall-clock numbers: only their presence (counters) or count (histograms) is pinned
TIMERS = {"engine.time.predict.seconds", "engine.time.sched.seconds"}
LATENCIES = {"serve.request.seconds", "serve.query.seconds"}


def _pinned(snap: dict) -> dict:
    """What a seeded served run must leave in the registry, whatever the
    clock: every counter but the timers; count, min, max and buckets of
    every histogram but the latencies, whose count alone is pinned."""
    counters = {name: n for name, n in snap["counters"].items() if name not in TIMERS}
    histograms = {
        name: hist["count"] if name in LATENCIES else
        [hist["count"], hist["min"], hist["max"], hist["buckets"]]
        for name, hist in snap["histograms"].items()
    }
    return {"counters": counters, "histograms": histograms}


def _requests(server: SessionServer, n_jobs: int = 300):
    """A seeded served script, one request at a time: the ``SCRIPT`` below,
    then ``n_jobs`` jobs of a synthetic KTH-SP2 trace, shifted past the
    clock, renumbered and narrowed to the server's eight processors, as a
    lock-step client drives them -- ``submit`` (advancing), a ``query``
    twice (cold, then warm), a hypothetical-job ``query``, then a
    ``complete`` at 80 % of its runtime for every running job that reaches
    it before the next submission -- and ``drain`` / ``result`` / ``stats``.  Completion times read the live session, so
    the script is the same wherever the schedule is."""
    yield from TestNoWritesWhileServing.SCRIPT
    session = server.session
    shift = session.now
    trace = get_trace("KTH-SP2", n_jobs=n_jobs)
    width = session.machine.processors
    jobs = list(trace)
    for i, job in enumerate(jobs):
        wire = {
            "job_id": 1000 + job.job_id, "submit_time": job.submit_time + shift,
            "runtime": job.runtime, "processors": -(-job.processors * width // trace.processors),
            "requested_time": job.requested_time, "user": job.user,
        }
        yield {"cmd": "submit", "advance": True, "job": wire}
        yield {"cmd": "query", "job_id": wire["job_id"]}
        yield {"cmd": "query", "job_id": wire["job_id"]}
        probe = {**wire, "job_id": 10**9 + i, "processors": 1 + i % 8}
        del probe["runtime"]
        yield {"cmd": "query", "job": probe}
        horizon = jobs[i + 1].submit_time + shift if i + 1 < len(jobs) else math.inf
        ends = sorted(
            (record.start_time + 0.8 * record.runtime, record.job_id)
            for record in session.machine.running
        )
        for end, job_id in ends:
            if session.now <= end <= horizon:
                yield {"cmd": "complete", "job_id": job_id, "time": end}
    yield from ({"cmd": cmd} for cmd in ("drain", "result", "stats"))


class TestNoWritesWhileServing:
    """The server and its session keep tallies the registry reads: no
    request and no public session call writes the registry, and every
    read is exact."""

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

    def test_a_served_script_leaves_the_parents_registry_and_writes_nothing(self, monkeypatch):
        server, tele = make_server()

        def write(*_args):
            raise AssertionError("a request wrote the registry")

        for name in ("inc", "observe"):
            monkeypatch.setattr(Telemetry, name, write)
        server.handle_line("{broken json")
        for request in self.SCRIPT:
            server.handle(request)
        assert (server.stats.n_requests, server.stats.n_errors) == (15, 7)
        assert server.session.n_jobs == 2
        server.session.step()  # the public session calls write nothing either
        server.session.advance_to(server.session.now + 60.0)
        server.session.drain()
        snap = tele.snapshot()
        assert {
            name: n for name, n in snap["counters"].items() if name.startswith("serve.")
        } == self.COUNTERS
        assert {
            name: hist["count"]
            for name, hist in snap["histograms"].items()
            if name.startswith("serve.")
        } == self.LATENCIES
        assert len(tele._tallies) == 2  # the session's and the server's, attached once each

    def test_the_seeded_served_script_writes_nothing(self, monkeypatch):
        server, tele = make_server()

        def write(*_args):
            raise AssertionError("a request wrote the registry")

        for name in ("inc", "observe"):
            monkeypatch.setattr(Telemetry, name, write)
        for request in _requests(server, n_jobs=60):
            server.handle(request)
        assert tele.counter_value("serve.requests.submit") == 2 + 60
        _assert_reconciled(tele, server.session)


class TestRegistryEquality:
    """The seeded served script leaves, after every request and at the
    end, the registry the commit before read-time tallies left (pinned
    there: ``FINAL`` is the last ``_pinned`` snapshot, ``DIGEST`` the
    sha256 over the ``_pinned`` snapshot after each request, as sorted
    JSON lines)."""

    FINAL = {
        "counters": {
            "engine.events.expire": 395, "engine.events.finish": 302,
            "engine.events.submit": 302, "engine.sched.backfill_starts": 209,
            "engine.sched.hold_passes": 637, "engine.sched.jobs_started": 302,
            "engine.sched.passes": 1203, "predict.finished": 302,
            "predict.underestimates": 96, "serve.errors": 6, "serve.query.cold": 391,
            "serve.query.probe": 302, "serve.query.warm": 212, "serve.requests.advance": 1,
            "serve.requests.complete": 233, "serve.requests.drain": 2,
            "serve.requests.ping": 1, "serve.requests.query": 906, "serve.requests.result": 1,
            "serve.requests.stats": 2, "serve.requests.submit": 302,
            "serve.requests.total": 1450,
        },
        "histograms": {
            "engine.expire_storm.size": [312, 1.0, 3.0, {"0": 294, "1": 16, "2": 2}],
            "engine.sched.queue_length": [
                76, 0.0, 50.0,
                {"-1075": 17, "0": 10, "2": 2, "3": 3, "4": 4, "5": 22, "6": 18},
            ],
            "engine.sched.release_table": [
                76, 0.0, 8.0, {"-1075": 4, "0": 8, "1": 6, "2": 12, "3": 46},
            ],
            "predict.abs_error.seconds": [
                302, 0.0, 215975.9008471527,
                {
                    "-1075": 8, "-39": 2, "-37": 2, "2": 2, "3": 1, "4": 5, "5": 9, "6": 7,
                    "7": 24, "8": 14, "9": 26, "10": 27, "11": 31, "12": 44, "13": 52,
                    "14": 16, "15": 7, "16": 9, "17": 1, "18": 15,
                },
            ],
            "serve.query.seconds": 903,
            "serve.request.seconds": 1444,
        },
    }
    DIGEST = "7aec32bf4b2fa797165c9aa06b4de9197f395c283fd64650f123a1a74d647b84"

    def test_after_every_request_and_at_the_end(self):
        server, tele = make_server()
        digest = hashlib.sha256()
        n_requests = 0
        for request in _requests(server):
            server.handle(request)
            n_requests += 1
            pinned = _pinned(tele.snapshot())
            digest.update((json.dumps(pinned, sort_keys=True) + "\n").encode())
            _assert_reconciled(tele, server.session)
        assert n_requests == 1450
        assert pinned == self.FINAL
        assert digest.hexdigest() == self.DIGEST


class TestCrossThreadReads:
    """A reader thread snapshots the registry while the main thread
    serves: a read may be stale, never ahead and never counted twice, and
    a histogram's count always equals the sum of its buckets."""

    N_REQUESTS = 2000

    def serve(self, server: SessionServer) -> None:
        for n, request in enumerate(_requests(server, n_jobs=500)):
            if n == self.N_REQUESTS:
                break
            server.handle(request)

    def test_reads_are_monotone_bounded_and_the_end_is_exact(self):
        alone, alone_tele = make_server()
        self.serve(alone)
        server, tele = make_server()
        reads: list[dict] = []
        done = threading.Event()

        hist_reads: list[dict] = []

        def reader() -> None:
            while not done.is_set():
                snap = tele.snapshot()
                reads.append(snap["counters"])
                hist_reads.append(snap["histograms"])

        thread = threading.Thread(target=reader)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            self.serve(server)
        finally:
            done.set()
            thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and len(reads) > 10
        final = tele.snapshot()["counters"]
        for before, after in zip([{}, *reads], [*reads, final]):
            for name, value in after.items():
                assert before.get(name, 0) <= value <= final[name], name
        # a storm in flight may read as storms of one, so a histogram's count
        # is not monotone; it is the sum of the buckets it was read with
        for hists in hist_reads:
            for name, hist in hists.items():
                assert hist["count"] == sum(hist["buckets"].values()), name
        assert _pinned(tele.snapshot()) == _pinned(alone_tele.snapshot())


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
