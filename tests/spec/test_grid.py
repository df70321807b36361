"""Experiment spec files: parsing, grid expansion, the paper matrix."""

import json

import pytest

from repro.spec import (
    SpecFileError,
    expand_spec_file,
    expand_spec_obj,
    triple_keys_of,
    validate_spec_file,
)
from repro.spec._toml import TomlError, load_toml_text

MINI_TOML = """
[campaign]
name = "mini"
logs = ["KTH-SP2"]
n_jobs = 120
replicas = 2

[[grid]]
predictor = ["requested", { name = "ave", params = { k = 3 } }]
corrector = ["none"]
scheduler = ["easy", "easy-sjbf"]
"""


class TestExpansion:
    def test_mini_grid_counts(self, tmp_path):
        path = tmp_path / "mini.toml"
        path.write_text(MINI_TOML)
        cells = expand_spec_file(str(path))
        # 2 predictors x 1 corrector x 2 schedulers x 1 log x 2 replicas
        assert len(cells) == 8
        assert triple_keys_of(cells) == [
            "requested|none|easy",
            "requested|none|easy-sjbf",
            "ave3|none|easy",
            "ave3|none|easy-sjbf",
        ]

    def test_replica_seeds_match_campaign_config(self, tmp_path):
        from repro.workload import stable_seed

        path = tmp_path / "mini.toml"
        path.write_text(MINI_TOML)
        cells = expand_spec_file(str(path))
        base = stable_seed("KTH-SP2")
        assert sorted({c.workload.seed for c in cells}) == [base, base + 1]

    def test_json_spec_equivalent(self, tmp_path):
        doc = load_toml_text(MINI_TOML)
        toml_path = tmp_path / "mini.toml"
        toml_path.write_text(MINI_TOML)
        json_path = tmp_path / "mini.json"
        json_path.write_text(json.dumps(doc))
        assert [c.digest() for c in expand_spec_file(str(json_path))] == [
            c.digest() for c in expand_spec_file(str(toml_path))
        ]

    def test_duplicate_cells_collapse(self):
        doc = load_toml_text(MINI_TOML)
        doc["grid"].append(dict(doc["grid"][0]))  # same block twice
        cells = expand_spec_obj(doc)
        assert len(cells) == 8

    def test_explicit_seeds(self):
        doc = load_toml_text(MINI_TOML)
        del doc["campaign"]["replicas"]
        doc["campaign"]["seeds"] = [11, 12, 13]
        cells = expand_spec_obj(doc)
        assert sorted({c.workload.seed for c in cells}) == [11, 12, 13]

    def test_seeds_and_replicas_conflict_in_one_table(self):
        doc = load_toml_text(MINI_TOML)
        doc["grid"][0]["seeds"] = [1]
        doc["grid"][0]["replicas"] = 2
        with pytest.raises(SpecFileError, match="pick one"):
            expand_spec_obj(doc)

    def test_grid_seeds_override_campaign_replicas(self):
        # MINI_TOML sets [campaign] replicas = 3; a grid pinning seeds
        # must win (the advertised per-block override)
        doc = load_toml_text(MINI_TOML)
        doc["grid"][0]["seeds"] = [42]
        cells = expand_spec_obj(doc)
        assert {c.workload.seed for c in cells} == {42}

    def test_grid_replicas_override_campaign_seeds(self):
        doc = load_toml_text(MINI_TOML)
        del doc["campaign"]["replicas"]
        doc["campaign"]["seeds"] = [42]
        doc["grid"][0]["replicas"] = 1
        cells = expand_spec_obj(doc)
        from repro.workload import stable_seed

        assert {c.workload.seed for c in cells} == {stable_seed("KTH-SP2")}

    def test_unknown_log_rejected_at_validation(self):
        doc = load_toml_text(MINI_TOML)
        doc["campaign"]["logs"] = ["KTH-SP3"]
        with pytest.raises(SpecFileError, match="unknown log"):
            expand_spec_obj(doc)

    def test_ml_wildcard_expands_to_20(self):
        doc = load_toml_text(MINI_TOML)
        doc["grid"][0]["predictor"] = ["ml:*"]
        doc["campaign"]["replicas"] = 1
        cells = expand_spec_obj(doc)
        assert len(cells) == 20 * 2  # x schedulers

    def test_ml_wildcard_only_on_predictor_axis(self):
        doc = load_toml_text(MINI_TOML)
        doc["grid"][0]["scheduler"] = ["ml:*"]
        with pytest.raises(SpecFileError, match="predictor axis"):
            expand_spec_obj(doc)

    def test_unknown_component_is_spec_file_error(self):
        doc = load_toml_text(MINI_TOML)
        doc["grid"][0]["predictor"] = ["galactic"]
        with pytest.raises(SpecFileError, match="galactic"):
            expand_spec_obj(doc)

    def test_unknown_campaign_key_rejected(self):
        doc = load_toml_text(MINI_TOML)
        doc["campaign"]["gpus"] = 8
        with pytest.raises(SpecFileError, match="gpus"):
            expand_spec_obj(doc)

    def test_grid_overrides_campaign_defaults(self):
        doc = load_toml_text(MINI_TOML)
        doc["grid"][0]["n_jobs"] = 55
        cells = expand_spec_obj(doc)
        assert all(c.workload.n_jobs == 55 for c in cells)

    @pytest.mark.parametrize(
        "seed_plan, match",
        [
            ({"replicas": 0}, "replicas must be an integer >= 1"),
            ({"replicas": -2}, "replicas must be an integer >= 1"),
            ({"replicas": 1.5}, "replicas must be an integer >= 1"),
            ({"seeds": []}, "empty seeds"),
        ],
    )
    def test_empty_seed_axis_rejected(self, seed_plan, match):
        """A campaign of zero cells is a mistake, never a result -- at
        the campaign level or overridden per grid block."""
        grid = {"predictor": ["requested"], "scheduler": ["easy"]}
        with pytest.raises(SpecFileError, match=match):
            expand_spec_obj(
                {"campaign": {"logs": ["KTH-SP2"], **seed_plan}, "grid": [grid]}
            )
        with pytest.raises(SpecFileError, match=match):
            expand_spec_obj(
                {"campaign": {"logs": ["KTH-SP2"]}, "grid": [{**grid, **seed_plan}]}
            )

    def test_missing_grid_rejected(self):
        with pytest.raises(SpecFileError, match="grid"):
            expand_spec_obj({"campaign": {"logs": ["KTH-SP2"]}})


class TestCheckedInSpecs:
    """The repository's experiment files must stay valid and exact."""

    def test_paper_spec_expands_to_the_128_triples(self):
        from repro.core import CLAIRVOYANT_EASY, CLAIRVOYANT_SJBF, paper_cells

        name, cells = validate_spec_file("experiments/paper.toml")
        keys = triple_keys_of(cells)
        assert keys == triple_keys_of(paper_cells())  # exact, in order
        assert len(keys) == 130
        assert keys[128:] == [CLAIRVOYANT_EASY, CLAIRVOYANT_SJBF]
        # full matrix: 130 triples x 6 logs x 3 replicas
        assert len(cells) == 130 * 6 * 3

    def test_paper_spec_cells_equal_legacy_campaign_cells(self):
        from repro.core import paper_cells

        cells = expand_spec_file("experiments/paper.toml")
        assert [c.digest() for c in cells] == [c.digest() for c in paper_cells()]

    def test_smallbox_spec_is_valid(self):
        name, cells = validate_spec_file("experiments/smallbox.toml")
        assert name == "smallbox"
        assert all(c.workload.processors == 25 for c in cells)
        assert any(c.triple_key is None for c in cells)  # tuned params


class TestTomlLoader:
    def test_rejects_garbage(self):
        with pytest.raises(TomlError):
            load_toml_text("key value-without-equals\n")
