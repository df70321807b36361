"""Unit tests for report formatting."""

import contextlib
import logging

from repro.core.reporting import format_percent, format_table


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["Log", "Score"], [("KTH", 12.345), ("C", 7.0)])
        lines = table.splitlines()
        assert lines[0].startswith("Log")
        assert "12.3" in table
        assert "7.0" in table

    def test_title(self):
        table = format_table(["A"], [("x",)], title="My Table")
        assert table.splitlines()[0] == "My Table"

    def test_mixed_types(self):
        table = format_table(["A", "B"], [("row", "1.2 - 3.4")])
        assert "1.2 - 3.4" in table


class TestFormatPercent:
    def test_paper_style(self):
        assert format_percent(28.4) == "(28%)"
        assert format_percent(-72.0) == "(-72%)"


@contextlib.contextmanager
def loader_warnings(caplog):
    """``caplog`` on the loader's own logger: the CLI's logging setup stops
    ``repro.*`` propagating to the root logger, where caplog listens."""
    logger = logging.getLogger("repro.obs.render")
    logger.addHandler(caplog.handler)
    try:
        yield
    finally:
        logger.removeHandler(caplog.handler)


class TestDistProgress:
    """Multi-worker progress for distributed campaigns, rendered by the one
    renderer (``repro.obs.format_events``) from the one event stream."""

    EVENTS = [
        {"kind": "enqueue", "component": "campaign", "generation": 1, "shards": 4,
         "cells": 40},
        {"kind": "worker_start", "component": "worker-w1", "elapsed": 0.0},
        {"kind": "claim", "component": "worker-w1", "shard": "g1-0000", "elapsed": 0.1},
        {"kind": "cell", "component": "worker-w1", "shard": "g1-0000", "elapsed": 1.0},
        {"kind": "cell", "component": "worker-w1", "shard": "g1-0000", "elapsed": 2.0},
        {"kind": "shard_done", "component": "worker-w1", "shard": "g1-0000",
         "elapsed": 2.1},
        {"kind": "claim", "component": "worker-w2", "shard": "g1-0001", "elapsed": 0.2},
        {"kind": "cell", "component": "worker-w2", "shard": "g1-0001", "elapsed": 1.5},
        {"kind": "shard_abandoned", "component": "worker-w2", "shard": "g1-0001",
         "elapsed": 3.0},
        {"kind": "worker_exit", "component": "worker-w2", "reason": "idle",
         "elapsed": 9.0},
        {"kind": "requeue", "component": "campaign", "shard": "g1-0001", "attempt": 1},
        {"kind": "shard_failed", "component": "campaign", "shard": "g1-0002",
         "attempt": 3},
        {"kind": "dist_done", "component": "campaign", "shards": 4,
         "merge": "merged 4 cache file(s)"},
    ]

    def test_aggregate_worker_progress(self):
        """Per worker: cells, shards done / claims, abandoned, state and
        reason, the stream's last clock reading."""
        from repro.obs import format_events

        lines = format_events(
            [e for e in self.EVENTS if e["component"] != "campaign"]
        ).splitlines()
        assert lines == [
            "  worker-w1: 2 cell(s), 1/1 shard(s) done, running, 2s",
            "  worker-w2: 1 cell(s), 0/1 shard(s) done, 1 abandoned, exited (idle), 9s",
            "cells simulated across workers: 3",
        ]

    def test_format_dist_progress(self):
        from repro.obs import format_events

        text = format_events(self.EVENTS)
        assert "4 shard(s), 40 cell(s) enqueued (generation 1)" in text
        assert "worker-w1: 2 cell(s), 1/1 shard(s) done" in text
        assert "worker-w2: 1 cell(s), 0/1 shard(s) done, 1 abandoned" in text
        assert "re-queued: 1 (g1-0001)" in text
        assert "FAILED (attempts exhausted): 1 (g1-0002)" in text
        assert "finished: 4 shard(s); merged 4 cache file(s)" in text

    def test_empty_stream(self):
        """Nothing to say is the empty string (``repro metrics`` then prints
        the snapshot tables alone); records of other kinds say nothing."""
        from repro.obs import format_events

        assert format_events([]) == ""
        assert format_events([{"kind": "span", "component": "sim"}]) == ""

    def test_a_worker_restarted_on_the_same_stream_renders_its_last_run(self):
        from repro.obs import format_events

        again = [
            {"kind": "worker_start", "component": "worker-w2", "elapsed": 0.0},
            {"kind": "claim", "component": "worker-w2", "shard": "g2-0000",
             "elapsed": 0.4},
        ]
        text = format_events(self.EVENTS + again)
        assert "  worker-w2: 0 cell(s), 0/1 shard(s) done, running, 0s" in text

    def test_load_progress_dir_tags_streams(self, tmp_path):
        """Every ``*.jsonl`` of a directory, in name order; a record that
        names no component gets its file's stem."""
        import json as jsonlib

        from repro.obs import load_events

        (tmp_path / "w1.jsonl").write_text(
            jsonlib.dumps({"kind": "cell"}) + "\n" + '{"torn'
        )
        (tmp_path / "w2.jsonl").write_text(
            jsonlib.dumps({"kind": "cell", "component": "override"}) + "\n"
        )
        (tmp_path / "notes.txt").write_text("ignored")
        events = load_events(str(tmp_path))
        assert [e["component"] for e in events] == ["w1", "override"]

    def test_load_progress_skips_non_object_lines(self, tmp_path, caplog):
        """Corrupt streams must degrade to fewer events, never a crash:
        truncated tails, bare JSON scalars and arrays are all skipped."""
        import json as jsonlib

        from repro.obs import load_events

        path = tmp_path / "w.jsonl"
        path.write_text(
            "\n".join(
                [
                    jsonlib.dumps({"kind": "claim"}),
                    "null",
                    "123",
                    '["not", "an", "event"]',
                    '{"torn": tr',
                    jsonlib.dumps({"kind": "cell"}),
                    "",
                ]
            )
        )
        with loader_warnings(caplog):
            events = load_events(str(path))
        assert [e["kind"] for e in events] == ["claim", "cell"]
        assert "skipped 4 unparseable line(s)" in caplog.text

    def test_load_progress_dir_survives_corrupt_streams(self, tmp_path):
        """Bad lines vanish and the good streams still load."""
        from repro.obs import load_events

        (tmp_path / "bad.jsonl").write_text("null\n42\n")
        (tmp_path / "good.jsonl").write_text('{"kind": "cell"}\n')
        events = load_events(str(tmp_path))
        assert [e["component"] for e in events] == ["good"]

    def test_a_stream_removed_between_listing_and_opening_is_skipped(
        self, tmp_path, caplog
    ):
        """Directory expansion is racy: a worker's stream may be rotated or
        removed after ``listdir`` saw it.  A dangling symlink is listed and
        cannot be opened -- the same failure, without the race."""
        from repro.obs import load_events

        (tmp_path / "gone.jsonl").symlink_to(tmp_path / "no-such-file")
        (tmp_path / "here.jsonl").write_text('{"kind": "cell"}\n')
        with loader_warnings(caplog):
            events = load_events(str(tmp_path))
        assert [e["component"] for e in events] == ["here"]
        assert "could not read event stream" in caplog.text
        assert "gone.jsonl" in caplog.text
        # a single path that is not there is the same warning, not a raise
        assert load_events(str(tmp_path / "never-was.jsonl")) == []
