"""Contract tests for the top-level public API."""

import contextlib
import io
import pathlib
import re

import repro

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_no_private_leaks(self):
        assert all(not n.startswith("_") or n == "__version__" for n in repro.__all__)

    def test_readme_quickstart_snippet(self):
        """The README's quickstart must actually work (tiny scale)."""
        from repro import (
            E_LOSS,
            EasyScheduler,
            IncrementalCorrector,
            MLPredictor,
            get_trace,
            simulate,
        )

        trace = get_trace("KTH-SP2", n_jobs=150)
        result = simulate(
            trace,
            EasyScheduler("sjbf"),
            MLPredictor(E_LOSS),
            IncrementalCorrector(),
        )
        assert result.avebsld() >= 1.0

    def test_readme_one_cell_snippet(self):
        """README's one-cell snippet, read out of README.md, runs as written
        (at a tiny ``n_jobs``) and prints an AVEbsld."""
        snippet = re.search(
            r"^\$ python - <<'PY'\n(.*?)^PY$", README.read_text(encoding="utf-8"), re.M | re.S
        ).group(1)
        assert "run_spec(" in snippet and "n_jobs=1000" in snippet
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(snippet.replace("n_jobs=1000", "n_jobs=60"), {})
        assert float(out.getvalue()) >= 1.0

    def test_module_docstring_campaign_snippet(self):
        from repro import paper_cells, run_cells

        campaign = run_cells(
            paper_cells(logs=("KTH-SP2",), n_jobs=80, replicas=1),
            workers=8,
        )
        rows = campaign.table1_rows()
        assert len(rows) == 1

    def test_registries_cover_campaign_triples(self):
        """Every campaign triple must be buildable from the registries."""
        from repro import paper_cells

        for cell in paper_cells(logs=("KTH-SP2",), n_jobs=10, replicas=1):
            scheduler, predictor, corrector = cell.build_components()
            assert scheduler is not None and predictor is not None
