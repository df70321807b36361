"""Unit tests for the SWF parser and writer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import Job, Trace, dumps_swf, load_swf, loads_swf, save_swf

from tests.helpers import make_job

SAMPLE = """\
; Version: 2.2
; Computer: TestBox
; MaxProcs: 64
; UnixStartTime: 820454400
; Note: hand-written sample
1 0 -1 100 4 -1 -1 4 300 -1 1 7 1 3 1 0 -1 -1
2 10 -1 50 8 -1 -1 8 600 -1 1 8 1 3 1 0 -1 -1
3 20 -1 25 1 -1 -1 1 100 -1 0 7 1 4 2 0 -1 -1
"""


class TestParsing:
    def test_parses_jobs_and_header(self):
        trace, report = loads_swf(SAMPLE, name="sample")
        assert len(trace) == 3
        assert trace.processors == 64
        assert trace.unix_start_time == 820454400
        assert report.header["Computer"] == "TestBox"
        assert report.n_jobs == 3
        assert report.n_skipped == 0

    def test_field_mapping(self):
        trace, _ = loads_swf(SAMPLE)
        job = trace[0]
        assert job.job_id == 1
        assert job.submit_time == 0.0
        assert job.runtime == 100.0
        assert job.processors == 4
        assert job.requested_time == 300.0
        assert job.user == 7
        assert job.executable == 3

    def test_status_preserved(self):
        trace, _ = loads_swf(SAMPLE)
        assert trace[2].status == 0

    def test_skips_nonpositive_runtime(self):
        text = SAMPLE + "4 30 -1 0 4 -1 -1 4 300 -1 5 7 1 3 1 0 -1 -1\n"
        trace, report = loads_swf(text)
        assert len(trace) == 3
        assert report.skipped_reasons["nonpositive runtime"] == 1

    def test_skips_short_lines(self):
        text = SAMPLE + "5 30 -1 10\n"
        _, report = loads_swf(text)
        assert report.skipped_reasons["short line"] == 1

    def test_skips_non_numeric(self):
        text = SAMPLE + "x y z " * 6 + "\n"
        _, report = loads_swf(text)
        assert report.n_skipped == 1

    def test_runtime_clamped_to_requested(self):
        # runtime 400 > requested 300: grace-period record, clamp
        text = "; MaxProcs: 16\n1 0 -1 400 4 -1 -1 4 300 -1 1 7 1 3 1 0 -1 -1\n"
        trace, report = loads_swf(text)
        assert trace[0].runtime == 300.0
        assert report.n_clamped_runtime == 1

    def test_missing_requested_falls_back_to_runtime(self):
        text = "; MaxProcs: 16\n1 0 -1 400 4 -1 -1 4 -1 -1 1 7 1 3 1 0 -1 -1\n"
        trace, _ = loads_swf(text)
        assert trace[0].requested_time == 400.0

    def test_requested_processors_fallback(self):
        # allocated -1 but requested 8 -> width 8
        text = "; MaxProcs: 16\n1 0 -1 400 -1 -1 -1 8 500 -1 1 7 1 3 1 0 -1 -1\n"
        trace, _ = loads_swf(text)
        assert trace[0].processors == 8

    def test_machine_size_inferred_from_widest_job_without_header(self):
        text = "1 0 -1 400 8 -1 -1 8 500 -1 1 7 1 3 1 0 -1 -1\n"
        trace, _ = loads_swf(text)
        assert trace.processors == 8

    def test_duplicate_ids_remapped(self):
        text = (
            "; MaxProcs: 16\n"
            "7 0 -1 100 4 -1 -1 4 300 -1 1 7 1 3 1 0 -1 -1\n"
            "7 10 -1 100 4 -1 -1 4 300 -1 1 7 1 3 1 0 -1 -1\n"
        )
        trace, _ = loads_swf(text)
        ids = sorted(j.job_id for j in trace)
        assert len(set(ids)) == 2

    def test_processors_override(self):
        trace, _ = loads_swf(SAMPLE, processors=128)
        assert trace.processors == 128


class TestHostileLines:
    """A data line that cannot be a job is a counted skip under a named
    reason; the rest of the log parses as if the line were not there."""

    @pytest.mark.parametrize(
        "line,reason",
        [
            ("4 -1 -1 100 4 -1 -1 4 300 -1 1 7 1 3 1 0 -1 -1", "negative submit time"),
            ("nan 30 -1 100 4 -1 -1 4 300 -1 1 7 1 3 1 0 -1 -1", "non-finite field"),
            ("4 30 -1 nan 4 -1 -1 4 300 -1 1 7 1 3 1 0 -1 -1", "non-finite field"),
            ("4 30 -1 100 inf -1 -1 4 300 -1 1 7 1 3 1 0 -1 -1", "non-finite field"),
            ("4 30 -1 100 4 -1 -1 4 nan -1 1 7 1 3 1 0 -1 -1", "non-finite field"),
            ("4 30 -1 100 4 -1 -1 4 300 -1 1 -inf 1 3 1 0 -1 -1", "non-finite field"),
        ],
        ids=["submit-minus-one", "nan-job-id", "nan-runtime", "inf-processors",
             "nan-requested", "inf-user"],
    )
    def test_skipped_and_counted(self, line, reason):
        clean, _ = loads_swf(SAMPLE)
        trace, report = loads_swf(SAMPLE + line + "\n")
        assert report.skipped_reasons == {reason: 1}
        assert report.n_skipped == 1 and report.n_jobs == 3
        assert list(trace) == list(clean)

    @pytest.mark.parametrize(
        "header,processors",
        [("; MaxProcs: 4\n", None), ("; MaxNodes: 4\n", None), ("", 4)],
        ids=["maxprocs", "maxnodes", "override"],
    )
    def test_wider_than_the_machine_skipped_and_counted(self, header, processors):
        narrow = "1 0 -1 100 2 -1 -1 2 300 -1 1 7 1 3 1 0 -1 -1\n"
        wide = "2 10 -1 100 8 -1 -1 8 300 -1 1 7 1 3 1 0 -1 -1\n"
        clean, _ = loads_swf(header + narrow, processors=processors)
        trace, report = loads_swf(header + narrow + wide, processors=processors)
        assert report.skipped_reasons == {"wider than the machine": 1}
        assert report.n_skipped == 1 and report.n_jobs == 1
        assert trace.processors == 4 and list(trace) == list(clean)

    def test_a_skipped_wide_line_takes_no_job_id(self):
        """The wide job's id 7 stays free, so the later job keeps it."""
        text = (
            "; MaxProcs: 4\n"
            "7 0 -1 100 8 -1 -1 8 300 -1 1 7 1 3 1 0 -1 -1\n"
            "7 10 -1 100 2 -1 -1 2 300 -1 1 7 1 3 1 0 -1 -1\n"
        )
        trace, _ = loads_swf(text)
        assert [job.job_id for job in trace] == [7]

    def test_a_job_as_wide_as_the_machine_is_kept(self):
        text = "; MaxProcs: 4\n1 0 -1 100 4 -1 -1 4 300 -1 1 7 1 3 1 0 -1 -1\n"
        trace, report = loads_swf(text)
        assert report.n_skipped == 0 and [job.processors for job in trace] == [4]

    def test_the_processors_override_beats_the_header(self):
        """``SAMPLE`` says 64; on a 4-processor machine its 8-wide job 2 goes."""
        trace, report = loads_swf(SAMPLE, processors=4)
        assert report.skipped_reasons == {"wider than the machine": 1}
        assert trace.processors == 4 and [job.job_id for job in trace] == [1, 3]

    def test_a_header_after_the_data_still_sizes_the_machine(self):
        text = (
            "1 0 -1 100 2 -1 -1 2 300 -1 1 7 1 3 1 0 -1 -1\n"
            "2 10 -1 100 8 -1 -1 8 300 -1 1 7 1 3 1 0 -1 -1\n"
            "; MaxProcs: 4\n"
        )
        trace, report = loads_swf(text)
        assert report.skipped_reasons == {"wider than the machine": 1}
        assert trace.processors == 4 and [job.job_id for job in trace] == [1]

    def test_maxprocs_is_read_before_maxnodes(self):
        text = (
            "; MaxNodes: 4\n; MaxProcs: 8\n"
            "1 0 -1 100 8 -1 -1 8 300 -1 1 7 1 3 1 0 -1 -1\n"
        )
        trace, report = loads_swf(text)
        assert report.n_skipped == 0 and trace.processors == 8 and len(trace) == 1

    def test_non_monotone_submits_are_sorted_not_skipped(self):
        body = SAMPLE.splitlines(keepends=True)
        shuffled = "".join(body[:5] + body[:4:-1])  # the three data lines reversed
        trace, report = loads_swf(shuffled)
        assert report.n_skipped == 0
        assert [job.job_id for job in trace] == [1, 2, 3]


class TestRoundTrip:
    def test_dumps_then_loads_preserves_jobs(self):
        jobs = [
            make_job(job_id=i, submit_time=10.0 * i, runtime=60.0 + i,
                     processors=1 + i, requested_time=600.0, user=i % 3)
            for i in range(1, 10)
        ]
        trace = Trace(jobs, processors=32, name="rt")
        text = dumps_swf(trace)
        back, report = loads_swf(text)
        assert report.n_skipped == 0
        assert len(back) == len(trace)
        assert back.processors == 32
        for a, b in zip(trace, back, strict=True):
            assert a.job_id == b.job_id
            assert a.submit_time == pytest.approx(b.submit_time)
            assert a.runtime == pytest.approx(b.runtime)
            assert a.processors == b.processors
            assert a.requested_time == pytest.approx(b.requested_time)
            assert a.user == b.user

    def test_file_round_trip(self, tmp_path):
        jobs = [make_job(job_id=i, submit_time=float(i)) for i in range(1, 5)]
        trace = Trace(jobs, processors=8, name="file-rt")
        path = tmp_path / "out.swf"
        save_swf(trace, path)
        back, _ = load_swf(path)
        assert len(back) == 4
        assert back.name == "out"

    def test_synthetic_trace_round_trips(self, kth_trace):
        text = dumps_swf(kth_trace)
        back, report = loads_swf(text)
        assert len(back) == len(kth_trace)
        assert report.n_skipped == 0
        assert back.processors == kth_trace.processors
        # runtimes are written as integer seconds; tolerate rounding
        for a, b in zip(kth_trace, back, strict=True):
            assert abs(a.runtime - b.runtime) <= 0.5 + 1e-9


def draw_job(draw, job_id):
    """A job whose every field survives the SWF text form exactly."""
    runtime = draw(st.integers(1, 10**6))
    count = st.integers(-1, 10**6)
    return Job(
        job_id=job_id,
        submit_time=float(draw(st.integers(0, 10**8))),
        runtime=float(runtime),
        processors=draw(st.integers(1, 256)),
        requested_time=float(runtime + draw(st.integers(0, 10**6))),
        user=draw(count),
        group=draw(count),
        executable=draw(count),
        queue=draw(count),
        partition=draw(count),
        status=draw(st.integers(-1, 5)),
        cpu_time=float(draw(count)),
        memory=float(draw(count)),
        requested_processors=draw(st.integers(1, 256)),
        requested_memory=float(draw(count)),
        preceding_job=draw(count),
        think_time=float(draw(count)),
    )


@st.composite
def swf_traces(draw):
    ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=12, unique=True))
    jobs = [draw_job(draw, job_id) for job_id in ids]
    widest = max(job.processors for job in jobs)
    return Trace(
        jobs,
        processors=widest + draw(st.integers(0, 64)),
        name="rt",
        unix_start_time=draw(st.integers(0, 2**31)),
    )


@settings(max_examples=60, deadline=None)
@given(trace=swf_traces())
def test_dump_parse_round_trip(trace):
    """dumps -> loads gives the same jobs, field for field, and dumping
    the parse again gives the same bytes."""
    text = dumps_swf(trace)
    back, report = loads_swf(text, name=trace.name)
    assert report.n_skipped == 0 and report.n_jobs == len(trace)
    assert list(back) == list(trace)
    assert (back.processors, back.unix_start_time) == (trace.processors, trace.unix_start_time)
    assert dumps_swf(back) == text
