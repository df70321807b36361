"""Cache merging: dedup, version fencing, torn tails (the PR's merge
correctness satellite)."""

import json

import pytest

from repro.core.campaign import CACHE_VERSION
from repro.dist import (
    CellConflictError,
    MergeVersionError,
    iter_cache_records,
    merge_caches,
)
from repro.sim.engine import ENGINE_VERSION

PREFIX = f"v{CACHE_VERSION}|e{ENGINE_VERSION}|"


def token(name):
    return f"{PREFIX}KTH-SP2@{name}|requested|none|easy|n=100|s=1|mp=60|tau=10"


def write_cache(path, rows, tail=""):
    with open(path, "w", encoding="utf-8") as fh:
        for tok, value in rows:
            fh.write(json.dumps({"token": tok, "value": value}) + "\n")
        fh.write(tail)


class TestMergeHappyPath:
    def test_merges_disjoint_shards(self, tmp_path):
        write_cache(tmp_path / "a.jsonl", [(token("aa"), 1.5), (token("bb"), 2.5)])
        write_cache(tmp_path / "b.jsonl", [(token("cc"), 3.5)])
        cells, report = merge_caches(
            [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
        )
        assert cells == {token("aa"): 1.5, token("bb"): 2.5, token("cc"): 3.5}
        assert report.files == 2
        assert report.unique == 3
        assert report.duplicates == 0

    def test_directory_input_expands(self, tmp_path):
        write_cache(tmp_path / "a.jsonl", [(token("aa"), 1.0)])
        write_cache(tmp_path / "b.jsonl", [(token("bb"), 2.0)])
        (tmp_path / "notes.txt").write_text("ignored")
        cells, report = merge_caches([str(tmp_path)])
        assert report.files == 2
        assert len(cells) == 2

    def test_canonical_output_is_order_independent(self, tmp_path):
        rows = [(token("bb"), 2.0), (token("aa"), 1.0), (token("cc"), 3.0)]
        write_cache(tmp_path / "fwd.jsonl", rows)
        write_cache(tmp_path / "rev.jsonl", list(reversed(rows)))
        merge_caches([str(tmp_path / "fwd.jsonl")], str(tmp_path / "out1.jsonl"))
        merge_caches([str(tmp_path / "rev.jsonl")], str(tmp_path / "out2.jsonl"))
        assert (tmp_path / "out1.jsonl").read_bytes() == (
            tmp_path / "out2.jsonl"
        ).read_bytes()

    def test_canonical_output_reloads_as_result_cache(self, tmp_path):
        from repro.core.campaign import ResultCache

        write_cache(tmp_path / "a.jsonl", [(token("aa"), 1.25)])
        merge_caches([str(tmp_path / "a.jsonl")], str(tmp_path / "out.jsonl"))
        cache = ResultCache(str(tmp_path / "out.jsonl"))
        assert cache.get(token("aa")) == 1.25

    def test_missing_explicit_input_rejected(self, tmp_path):
        """A typo'd path must not silently merge to an empty cache."""
        write_cache(tmp_path / "a.jsonl", [(token("aa"), 1.0)])
        with pytest.raises(FileNotFoundError, match="ghost"):
            merge_caches([str(tmp_path / "a.jsonl"), str(tmp_path / "ghost.jsonl")])

    def test_empty_directory_input_is_fine(self, tmp_path):
        (tmp_path / "results").mkdir()
        cells, report = merge_caches([str(tmp_path / "results")])
        assert cells == {}
        assert report.files == 0


class TestDedupAndConflicts:
    def test_duplicate_cells_across_shards_dedup(self, tmp_path):
        """A crashed attempt's partial file plus its retry is the normal
        case: identical values collapse silently."""
        write_cache(tmp_path / "a.jsonl", [(token("aa"), 1.5), (token("bb"), 2.5)])
        write_cache(tmp_path / "b.jsonl", [(token("bb"), 2.5), (token("cc"), 3.5)])
        cells, report = merge_caches([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")])
        assert len(cells) == 3
        assert report.duplicates == 1
        assert report.records == 4

    def test_conflicting_values_rejected(self, tmp_path):
        write_cache(tmp_path / "a.jsonl", [(token("aa"), 1.5)])
        write_cache(tmp_path / "b.jsonl", [(token("aa"), 9.9)])
        with pytest.raises(CellConflictError, match="conflicting values"):
            merge_caches([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")])


class TestVersionFencing:
    def test_wrong_cache_version_rejected(self, tmp_path):
        stale = token("aa").replace(f"v{CACHE_VERSION}|", f"v{CACHE_VERSION - 1}|")
        write_cache(tmp_path / "a.jsonl", [(stale, 1.0)])
        with pytest.raises(MergeVersionError, match="CACHE_VERSION/ENGINE_VERSION"):
            merge_caches([str(tmp_path / "a.jsonl")])

    def test_wrong_engine_version_rejected(self, tmp_path):
        stale = token("aa").replace(f"e{ENGINE_VERSION}|", f"e{ENGINE_VERSION + 1}|")
        write_cache(tmp_path / "a.jsonl", [(stale, 1.0)])
        with pytest.raises(MergeVersionError):
            merge_caches([str(tmp_path / "a.jsonl")])

    def test_error_names_file_and_line(self, tmp_path):
        stale = token("aa").replace(f"v{CACHE_VERSION}|", "v0|")
        write_cache(tmp_path / "a.jsonl", [(token("bb"), 1.0), (stale, 2.0)])
        with pytest.raises(MergeVersionError, match=r"a\.jsonl:2"):
            merge_caches([str(tmp_path / "a.jsonl")])


class TestTornTails:
    def test_torn_tail_does_not_poison_merge(self, tmp_path):
        write_cache(
            tmp_path / "a.jsonl",
            [(token("aa"), 1.5)],
            tail='{"token": "' + token("bb") + '", "val',  # crash mid-append
        )
        write_cache(tmp_path / "b.jsonl", [(token("bb"), 2.5)])
        cells, report = merge_caches([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")])
        assert cells == {token("aa"): 1.5, token("bb"): 2.5}
        assert report.torn_lines == 1

    def test_nan_rows_are_torn_not_a_conflict(self, tmp_path):
        """NaN != NaN, so trusting the rows would raise a false conflict."""
        for name in ("a.jsonl", "b.jsonl"):
            write_cache(tmp_path / name, [(token("aa"), float("nan")), (token("bb"), 2.5)])
        cells, report = merge_caches([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")])
        assert cells == {token("bb"): 2.5}
        assert report.torn_lines == 2

    def test_iter_cache_records_counts_trailing_torn(self, tmp_path):
        write_cache(tmp_path / "a.jsonl", [(token("aa"), 1.0)], tail="garbage")
        records, torn = iter_cache_records(str(tmp_path / "a.jsonl"))
        assert len(records) == 1
        assert torn == 1

    def test_empty_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text(
            "\n" + json.dumps({"token": token("aa"), "value": 1.0}) + "\n\n"
        )
        cells, report = merge_caches([str(path)])
        assert len(cells) == 1
        assert report.torn_lines == 0
