"""The ``repro serve`` JSONL protocol: command dispatch, error handling,
the stream loop, and parity of served answers with a batch run."""

import gc
import io
import json
import weakref

import pytest

from repro.obs import Telemetry
from repro.predict import ClairvoyantPredictor
from repro.sched import make_scheduler
from repro.serve import SessionServer, build_serve_session, serve_loop
from repro.sim import SimSession, simulate
from repro.workload import Trace, get_trace

from tests.helpers import make_job

NAN, INF = float("nan"), float("inf")


def make_server(processors: int = 8, **kwargs) -> SessionServer:
    return SessionServer(build_serve_session(processors, **kwargs))


def job_payload(job_id: int, submit: float = 0.0, processors: int = 1,
                requested: float = 600.0, **extra) -> dict:
    return {
        "job_id": job_id,
        "submit_time": submit,
        "processors": processors,
        "requested_time": requested,
        **extra,
    }


class TestDispatch:
    def test_ping(self):
        server = make_server()
        response = server.handle({"cmd": "ping"})
        assert response == {"pong": True, "ok": True, "cmd": "ping", "now": 0.0}

    def test_submit_advance_query_complete_roundtrip(self):
        server = make_server()
        assert server.handle(
            {"cmd": "submit", "job": job_payload(1), "advance": True}
        )["ok"]
        answer = server.handle({"cmd": "query", "job_id": 1})
        assert answer["ok"]
        assert answer["state"] == "running"
        assert answer["start"] == 0.0
        assert answer["elapsed_us"] >= 0.0
        done = server.handle({"cmd": "complete", "job_id": 1, "time": 90.0})
        assert done["ok"]
        assert done["runtime"] == 90.0
        result = server.handle({"cmd": "result"})
        assert result["jobs"] == [[1, 0.0, 90.0]]

    def test_submit_without_advance_queues_only(self):
        server = make_server()
        server.handle({"cmd": "submit", "job": job_payload(1, submit=10.0)})
        snap = server.handle({"cmd": "snapshot"})
        assert snap["n_waiting"] == 0 and snap["n_running"] == 0
        assert snap["n_pending_events"] == 1
        server.handle({"cmd": "advance", "time": 10.0})
        assert server.handle({"cmd": "snapshot"})["n_running"] == 1

    def test_hypothetical_query_leaves_no_trace(self):
        server = make_server()
        ghost = job_payload(999, processors=2)
        answer = server.handle({"cmd": "query", "job": ghost})
        assert answer["ok"] and answer["state"] == "hypothetical"
        assert server.handle({"cmd": "stats"})["n_jobs"] == 0

    def test_machine_drain_and_restore(self):
        server = make_server(processors=4)
        server.handle({"cmd": "machine", "kind": "drain", "processors": 2})
        server.handle({"cmd": "step"})
        assert server.handle({"cmd": "snapshot"})["drained"] == 2
        server.handle({"cmd": "machine", "kind": "restore", "processors": 2})
        server.handle({"cmd": "drain"})
        assert server.handle({"cmd": "snapshot"})["drained"] == 0

    def test_held_job_query_serialises_null(self):
        server = make_server(processors=4)
        server.handle({"cmd": "machine", "kind": "drain", "processors": 2})
        server.handle({"cmd": "step"})
        server.handle(
            {"cmd": "submit", "job": job_payload(1, processors=3), "advance": True}
        )
        answer = server.handle({"cmd": "query", "job_id": 1})
        assert answer["ok"]
        assert answer["start"] is None and answer["wait"] is None
        json.dumps(answer)  # must stay strict-JSON serialisable

    def test_observe_warms_the_predictor(self):
        server = make_server(predictor="ave2")
        server.handle(
            {"cmd": "observe", "job": job_payload(100, requested=1200.0, user=3),
             "runtime": 300.0}
        )
        probe = server.handle(
            {"cmd": "query", "job": job_payload(101, requested=1200.0, user=3)}
        )
        assert probe["predicted_runtime"] == 300.0

    def test_quit_closes(self):
        server = make_server()
        assert server.handle({"cmd": "quit"})["bye"]
        assert server.closed


class TestErrors:
    def test_bad_json_line(self):
        server = make_server()
        response = server.handle_line("{nope")
        assert response["ok"] is False
        assert "bad JSON" in response["error"]

    @pytest.mark.parametrize(
        "line",
        ["{", "[1,2", "{} x", '{"cmd": "ping"} {}', "nul", '\ufeff{"cmd": "ping"}'],
        ids=["open-object", "open-array", "extra-word", "two-objects", "nul", "bom"],
    )
    def test_malformed_line_gets_the_json_loads_error(self, line):
        """The C scanner decodes a request; what it cannot take must be
        refused with ``json.loads``' own words, position included."""
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(line)
        server = make_server()
        assert server.handle_line(line) == {"ok": False, "error": f"bad JSON: {expected.value}"}
        assert server.stats.n_errors == 1

    def test_surrounding_whitespace_is_accepted(self):
        assert make_server().handle_line('  {"cmd": "ping"}  \n') == {
            "pong": True, "ok": True, "cmd": "ping", "now": 0.0,
        }

    def test_blank_line_ignored(self):
        assert make_server().handle_line("   \n") is None

    def test_unknown_command(self):
        response = make_server().handle({"cmd": "fandango"})
        assert response["ok"] is False and "unknown command" in response["error"]

    def test_non_object_request(self):
        response = make_server().handle([1, 2, 3])
        assert response["ok"] is False

    def test_missing_job_fields(self):
        response = make_server().handle(
            {"cmd": "submit", "job": {"job_id": 1}}
        )
        assert response["ok"] is False and "missing required" in response["error"]

    def test_unknown_job_fields(self):
        response = make_server().handle(
            {"cmd": "submit", "job": {**job_payload(1), "colour": "red"}}
        )
        assert response["ok"] is False and "unknown job field" in response["error"]

    def test_monotonicity_error_is_reported_not_fatal(self):
        server = make_server()
        server.handle({"cmd": "advance", "time": 100.0})
        response = server.handle(
            {"cmd": "submit", "job": job_payload(1, submit=50.0)}
        )
        assert response["ok"] is False and "behind" in response["error"]
        assert server.handle({"cmd": "ping"})["ok"]  # connection survives

    def test_a_job_wider_than_the_machine_is_refused_by_name(self):
        server = make_server(processors=8)
        before = server.handle({"cmd": "snapshot"})
        response = server.handle({"cmd": "submit", "job": job_payload(7, processors=9)})
        assert response["ok"] is False
        assert "job 7 requests 9 processors" in response["error"]
        assert server.handle({"cmd": "snapshot"}) == before
        assert server.handle({"cmd": "submit", "job": job_payload(7, processors=8)})["ok"]

    def test_errors_are_counted(self):
        server = make_server()
        server.handle({"cmd": "fandango"})
        server.handle_line("{nope")
        assert server.stats.n_errors == 2


class TestNonFiniteNumbers:
    """``json.loads`` takes ``NaN`` and ``Infinity``; the session must not.
    Each such line is refused by field name, and what follows is served
    as if it had never been sent."""

    SETUP = [
        {"cmd": "submit", "job": job_payload(1, processors=8), "advance": True},
        {"cmd": "submit", "job": job_payload(2, submit=5000.0, processors=8)},
        {"cmd": "advance", "time": 10.0},
    ]
    FOLLOW_UP = [
        {"cmd": "submit", "job": job_payload(3, submit=20.0, processors=2), "advance": True},
        {"cmd": "query", "job_id": 3},
        {"cmd": "query", "job": job_payload(9, submit=20.0)},
        {"cmd": "complete", "job_id": 1, "time": 90.0},
        {"cmd": "snapshot"},
        {"cmd": "drain"},
        {"cmd": "result"},
        {"cmd": "stats"},
    ]
    BAD = {
        "advance-nan": ({"cmd": "advance", "time": NAN}, "time"),
        "advance-inf-string": ({"cmd": "advance", "time": "inf"}, "time"),
        "complete-nan": ({"cmd": "complete", "job_id": 1, "time": NAN}, "time"),
        "complete-inf": ({"cmd": "complete", "job_id": 1, "time": INF}, "time"),
        "machine-nan": (
            {"cmd": "machine", "kind": "drain", "processors": 1, "time": NAN}, "time",
        ),
        "submit-nan-submit-time": (
            {"cmd": "submit", "job": job_payload(4, submit=NAN)}, "submit_time",
        ),
        "submit-nan-requested": (
            {"cmd": "submit", "job": job_payload(4, submit=30.0, requested=NAN),
             "advance": True},
            "requested_time",
        ),
        "submit-inf-requested": (
            {"cmd": "submit", "job": job_payload(4, submit=30.0, requested=INF)},
            "requested_time",
        ),
        "submit-nan-runtime": (
            {"cmd": "submit", "job": job_payload(4, submit=30.0, runtime=NAN)}, "runtime",
        ),
        "probe-nan-requested": (
            {"cmd": "query", "job": job_payload(9, submit=10.0, requested=NAN)},
            "requested_time",
        ),
        "observe-nan-runtime": (
            {"cmd": "observe", "job": job_payload(8, user=1), "runtime": NAN}, "runtime",
        ),
    }

    @staticmethod
    def replies(server, requests):
        out = []
        for request in requests:
            reply = server.handle_line(json.dumps(request))  # NaN/Infinity on the wire
            reply.pop("elapsed_us", None)
            out.append(reply)
        return out

    @pytest.mark.parametrize("case", BAD)
    def test_refused_by_field_and_leaves_no_trace(self, case):
        bad, field = self.BAD[case]
        hit, clean = make_server(), make_server()
        assert self.replies(hit, self.SETUP) == self.replies(clean, self.SETUP)
        (reply,) = self.replies(hit, [bad])
        assert reply["ok"] is False and reply["cmd"] == bad["cmd"]
        assert field in reply["error"] and "finite" in reply["error"]
        follow_up = self.replies(hit, self.FOLLOW_UP)
        assert follow_up == self.replies(clean, self.FOLLOW_UP)
        assert all(r["ok"] for r in follow_up)
        assert [row[0] for row in follow_up[-2]["jobs"]] == [1, 2, 3]


class NonFiniteEstimate(ClairvoyantPredictor):
    name = "broken-estimate"

    def __init__(self, value: float) -> None:
        self.value = value

    def estimate(self, record, now):
        return self.value


@pytest.mark.parametrize("value", [NAN, INF])
def test_a_non_finite_probe_estimate_is_refused_without_a_nan_on_the_wire(value):
    """A predictor whose probe estimate is NaN or inf gets the query an
    ``ok: false`` reply naming it; the encoded line carries no ``NaN``."""
    server = SessionServer(SimSession(8, make_scheduler("easy-sjbf"), NonFiniteEstimate(value)))
    server.handle({"cmd": "submit", "job": job_payload(1, processors=8), "advance": True})
    reply = server.handle_line(json.dumps({"cmd": "query", "job": job_payload(9)}))
    line = json.dumps(reply)
    assert reply["ok"] is False and "broken-estimate" in reply["error"]
    assert "NaN" not in line and "Infinity" not in line
    assert server.handle({"cmd": "query", "job_id": 1})["ok"]


class TestIntegerFields:
    """The ``int`` fields of a job and the ``job_id`` / ``processors`` of a
    request take JSON integers only -- not a bool, a real or a string --
    and the ``float`` fields of a job or a request (``time``, ``runtime``)
    take JSON numbers only -- not a bool or a string.  Each such request is refused
    by field name and leaves no trace: what follows is served as if it had
    never been sent."""

    SETUP = TestNonFiniteNumbers.SETUP
    FOLLOW_UP = TestNonFiniteNumbers.FOLLOW_UP
    BAD = {
        "submit-job_id-string": ({"cmd": "submit", "job": job_payload("4")}, "job_id"),
        "submit-job_id-real": ({"cmd": "submit", "job": job_payload(4.0)}, "job_id"),
        "submit-job_id-bool": ({"cmd": "submit", "job": job_payload(True)}, "job_id"),
        "submit-processors-real": (
            {"cmd": "submit", "job": job_payload(4, processors=2.5), "advance": True},
            "processors",
        ),
        "submit-processors-bool": (
            {"cmd": "submit", "job": job_payload(4, processors=True), "advance": True},
            "processors",
        ),
        "submit-user-string": ({"cmd": "submit", "job": job_payload(4, user="3")}, "user"),
        "submit-submit_time-bool": (
            {"cmd": "submit", "job": job_payload(4, submit=True)}, "submit_time",
        ),
        "submit-requested-bool": (
            {"cmd": "submit", "job": job_payload(4, submit=30.0, requested=True)},
            "requested_time",
        ),
        "submit-runtime-string": (
            {"cmd": "submit", "job": job_payload(4, submit=30.0, runtime="60")}, "runtime",
        ),
        "probe-processors-real": (
            {"cmd": "query", "job": job_payload(9, submit=10.0, processors=1.5)}, "processors",
        ),
        "query-job_id-real": ({"cmd": "query", "job_id": 2.9}, "job_id"),
        "query-job_id-string": ({"cmd": "query", "job_id": "2"}, "job_id"),
        "query-job_id-bool": ({"cmd": "query", "job_id": True}, "job_id"),
        "complete-job_id-real": ({"cmd": "complete", "job_id": 1.5, "time": 60.0}, "job_id"),
        "machine-processors-real": (
            {"cmd": "machine", "kind": "drain", "processors": 1.9}, "processors",
        ),
        "machine-processors-bool": (
            {"cmd": "machine", "kind": "drain", "processors": True}, "processors",
        ),
        "advance-time-bool": ({"cmd": "advance", "time": True}, "time"),
        "advance-time-string": ({"cmd": "advance", "time": "60"}, "time"),
        "complete-time-string": ({"cmd": "complete", "job_id": 1, "time": "90"}, "time"),
        "complete-time-bool": ({"cmd": "complete", "job_id": 1, "time": True}, "time"),
        "machine-time-string": (
            {"cmd": "machine", "kind": "drain", "processors": 1, "time": "60"}, "time",
        ),
        "observe-runtime-string": (
            {"cmd": "observe", "job": job_payload(8, user=1), "runtime": "60"}, "runtime",
        ),
        "observe-runtime-bool": (
            {"cmd": "observe", "job": job_payload(8, user=1), "runtime": True}, "runtime",
        ),
    }

    @pytest.mark.parametrize("case", BAD)
    def test_refused_by_field_and_leaves_no_trace(self, case):
        bad, field = self.BAD[case]
        hit, clean = make_server(), make_server()
        replies = TestNonFiniteNumbers.replies
        assert replies(hit, self.SETUP) == replies(clean, self.SETUP)
        (reply,) = replies(hit, [bad])
        assert reply["ok"] is False and reply["cmd"] == bad["cmd"]
        assert field in reply["error"] and "must be" in reply["error"]
        assert replies(hit, [{"cmd": "stats"}]) == replies(clean, [{"cmd": "stats"}])
        follow_up = replies(hit, self.FOLLOW_UP)
        assert follow_up == replies(clean, self.FOLLOW_UP)
        assert all(r["ok"] for r in follow_up)
        assert [row[0] for row in follow_up[-2]["jobs"]] == [1, 2, 3]

    def test_a_string_id_no_longer_breaks_the_session(self):
        """A ``"2"`` id was answered ``ok`` once, and every ``snapshot`` /
        ``result`` after it failed comparing a str with an int."""
        server = make_server()
        assert server.handle({"cmd": "submit", "job": job_payload(1), "advance": True})["ok"]
        assert not server.handle({"cmd": "submit", "job": job_payload("2")})["ok"]
        assert server.handle({"cmd": "submit", "job": job_payload(3), "advance": True})["ok"]
        assert server.handle({"cmd": "snapshot"})["ok"]
        server.handle({"cmd": "drain"})
        assert [row[0] for row in server.handle({"cmd": "result"})["jobs"]] == [1, 3]


class TestServeLoop:
    def run_protocol(self, requests: list[dict], **kwargs) -> list[dict]:
        session = build_serve_session(8, **kwargs)
        in_stream = io.StringIO(
            "".join(json.dumps(r) + "\n" for r in requests)
        )
        out_stream = io.StringIO()
        serve_loop(session, in_stream, out_stream)
        return [json.loads(line) for line in out_stream.getvalue().splitlines()]

    def test_one_response_per_request(self):
        responses = self.run_protocol(
            [
                {"cmd": "submit", "job": job_payload(1), "advance": True},
                {"cmd": "query", "job_id": 1},
                {"cmd": "quit"},
            ]
        )
        assert len(responses) == 3
        assert [r["cmd"] for r in responses] == ["submit", "query", "quit"]
        assert all(r["ok"] for r in responses)

    def test_loop_stops_at_quit(self):
        responses = self.run_protocol(
            [{"cmd": "quit"}, {"cmd": "ping"}]  # ping is never served
        )
        assert len(responses) == 1

    def test_loop_survives_garbage_then_eof(self):
        session = build_serve_session(8)
        out = io.StringIO()
        stats = serve_loop(session, io.StringIO("not json\n\n"), out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(responses) == 1 and responses[0]["ok"] is False
        assert stats.n_errors == 1


class TestGarbageMidStream:
    """Torn or adversarial JSONL mid-stream must answer with a
    structured error line and leave the session fully alive -- the loop
    may never tear down over one bad client write."""

    def serve(self, raw: str):
        session = build_serve_session(8)
        out = io.StringIO()
        stats = serve_loop(session, io.StringIO(raw), out)
        return stats, [json.loads(line) for line in out.getvalue().splitlines()]

    def test_garbage_between_valid_requests_keeps_session_alive(self):
        raw = "\n".join(
            [
                json.dumps(
                    {"cmd": "submit", "job": job_payload(1), "advance": True}
                ),
                '{"cmd": "submit", "job": {"job_id',  # torn mid-write
                "total garbage",
                json.dumps({"cmd": "query", "weird": True}),  # no job_id/job
                json.dumps({"cmd": "query", "job_id": 1}),
                json.dumps({"cmd": "quit"}),
            ]
        ) + "\n"
        stats, responses = self.serve(raw)
        assert len(responses) == 6  # one response per non-blank line
        assert [r["ok"] for r in responses] == [
            True, False, False, False, True, True,
        ]
        assert all("error" in bad for bad in responses[1:4])
        # the valid query after the garbage still answers about job 1
        assert responses[4]["job_id"] == 1
        assert stats.n_errors == 3

    def test_unexpected_handler_exception_answers_structured_error(
        self, monkeypatch
    ):
        server = make_server()

        def boom(request):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(server, "_cmd_snapshot", boom)
        response = server.handle({"cmd": "snapshot"})
        assert response["ok"] is False
        assert response["cmd"] == "snapshot"
        assert "internal error: RuntimeError: wires crossed" in response["error"]
        assert server.handle({"cmd": "ping"})["ok"]  # session survives
        assert server.stats.n_errors == 1

    def test_unserialisable_response_replaced_not_fatal(self, monkeypatch):
        monkeypatch.setattr(
            SessionServer, "_cmd_ping", lambda self, request: {"pong": {1, 2}}
        )
        raw = json.dumps({"cmd": "ping"}) + "\n" + json.dumps({"cmd": "quit"}) + "\n"
        stats, responses = self.serve(raw)
        assert responses[0]["ok"] is False
        assert "unserialisable" in responses[0]["error"]
        assert responses[1]["ok"] is True  # quit still served; loop intact
        assert stats.n_errors == 1


class TestFreedByReferenceCounting:
    """A served session goes when its last reference does.  With the
    cyclic collector off, any reference cycle through the server or the
    session (a table of bound methods built at construction, say) would
    keep a finished connection's whole state alive until a GC pass."""

    LINES = [
        json.dumps({"cmd": "submit", "job": job_payload(1, processors=6), "advance": True}),
        json.dumps({"cmd": "submit", "job": job_payload(2, submit=5.0, processors=4)}),
        json.dumps({"cmd": "advance", "time": 5.0}),
        json.dumps({"cmd": "query", "job_id": 2}),
        json.dumps({"cmd": "query", "job_id": 2}),
        json.dumps({"cmd": "query", "job": job_payload(99, submit=5.0, processors=3)}),
        json.dumps({"cmd": "drain"}),
    ]

    @pytest.mark.parametrize("telemetry", [False, True], ids=["off", "on"])
    def test_server_and_session_die_without_the_cycle_collector(self, telemetry):
        registry = Telemetry() if telemetry else None
        gc.collect()
        gc.disable()
        try:
            session = build_serve_session(8, telemetry=registry)
            server = SessionServer(session, telemetry=registry)
            assert all(server.handle_line(line)["ok"] for line in self.LINES)
            refs = weakref.ref(server), weakref.ref(session)
            del server, session
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestServedParityWithBatch:
    """Conservative + clairvoyant: the served query at submit time must
    equal the start time an equivalent batch run produces (runtimes are
    clamped >= min_prediction so clairvoyance is exact)."""

    @pytest.fixture(scope="class")
    def clamped_trace(self) -> Trace:
        base = get_trace("KTH-SP2", n_jobs=40)
        jobs = [
            job.with_updates(
                runtime=max(job.runtime, 60.0),
                requested_time=max(job.requested_time, 60.0),
            )
            for job in base
        ]
        return Trace(jobs, processors=base.processors, name="serve-parity")

    def test_served_schedule_and_queries_match_batch(self, clamped_trace):
        batch = simulate(
            clamped_trace, make_scheduler("conservative"), ClairvoyantPredictor()
        )
        batch_rows = sorted(
            [r.job_id, r.start_time, r.end_time] for r in batch
        )
        batch_starts = {r.job_id: r.start_time for r in batch}

        session = SimSession(
            clamped_trace.processors,
            make_scheduler("conservative"),
            ClairvoyantPredictor(),
        )
        server = SessionServer(session)
        for job in clamped_trace:
            payload = {
                "job_id": job.job_id,
                "submit_time": job.submit_time,
                "processors": job.processors,
                "requested_time": job.requested_time,
                "runtime": job.runtime,
                "user": job.user,
            }
            assert server.handle(
                {"cmd": "submit", "job": payload, "advance": True}
            )["ok"]
            answer = server.handle({"cmd": "query", "job_id": job.job_id})
            assert answer["start"] == batch_starts[job.job_id], (
                f"served estimate diverged for job {job.job_id}"
            )
        server.handle({"cmd": "drain"})
        result = server.handle({"cmd": "result"})
        assert result["jobs"] == batch_rows


class TestCliServe:
    def test_main_serve_roundtrip(self, monkeypatch, capsys):
        from repro.cli import main

        requests = [
            {"cmd": "submit", "job": job_payload(1), "advance": True},
            {"cmd": "query", "job_id": 1},
            {"cmd": "quit"},
        ]
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("".join(json.dumps(r) + "\n" for r in requests)),
        )
        assert main(["serve", "--processors", "8"]) == 0
        captured = capsys.readouterr()
        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert len(responses) == 3 and all(r["ok"] for r in responses)
        assert "serve session closed" in captured.err
