"""The unified component registry: normalization, building, lowering."""

import re

import pytest

from repro.spec import (
    CellSpec,
    ComponentSpec,
    corrector_registry,
    filter_registry,
    predictor_registry,
    registry_for,
    scheduler_registry,
)

#: scheduler spelling -> digest of the cell ``KTH-SP2`` (100 jobs, seed 1)
#: | ``requested`` | no corrector | that scheduler
SCHEDULER_DIGESTS = {
    "fcfs": "cd72ad880f6906cd",
    "easy": "7eda35ff2809804f",
    "easy-sjbf": "ec18b6f1c218744b",
    "conservative": "eafdec3a15a854bd",
    "conservative-sjbf": "31538ea162c1d8fd",
    "legacy-easy": "769daedc87a7ae0c",
    "legacy-easy-sjbf": "7f5d21d568005b84",
    "legacy-conservative": "b61e1415f85d3b75",
    "legacy-conservative-sjbf": "cb72ae69f6c64fe0",
    "rl-backfill": "9d82cc5c7d687ed4",
}


class TestComponentSpec:
    def test_param_order_is_canonical(self):
        a = ComponentSpec.make("x", {"b": 1, "a": 2})
        b = ComponentSpec.make("x", {"a": 2, "b": 1})
        assert a == b
        assert a.params == (("a", 2), ("b", 1))

    def test_from_obj_accepts_str_dict_and_spec(self):
        spec = ComponentSpec.make("easy", {"order": "sjbf"})
        assert ComponentSpec.from_obj("easy") == ComponentSpec.make("easy")
        assert ComponentSpec.from_obj({"name": "easy", "params": {"order": "sjbf"}}) == spec
        assert ComponentSpec.from_obj(spec) is spec

    def test_rejects_non_scalar_params(self):
        with pytest.raises(TypeError, match="scalar"):
            ComponentSpec.make("x", {"bad": [1, 2]})

    def test_rejects_unknown_obj_keys(self):
        with pytest.raises(ValueError, match="exactly 'name'"):
            ComponentSpec.from_obj({"name": "x", "junk": 1})


class TestPredictorRegistry:
    def test_legacy_strings_lower_to_params(self):
        registry = predictor_registry()
        assert registry.normalize("ave2") == ComponentSpec.make("ave", {"k": 2})
        assert registry.normalize("ave7") == ComponentSpec.make("ave", {"k": 7})
        ml = registry.normalize("ml:sq-lin-large-area")
        assert ml.name == "ml"
        assert ml.param_dict["over"] == "sq"
        assert ml.param_dict["under"] == "lin"
        assert ml.param_dict["weight"] == "large-area"
        assert ml.param_dict["eta"] == 0.5  # defaults made explicit

    def test_two_spellings_normalize_identically(self):
        registry = predictor_registry()
        assert registry.normalize("ave2") == registry.normalize(
            {"name": "ave", "params": {"k": 2}}
        )

    def test_legacy_name_round_trips(self):
        registry = predictor_registry()
        for name in ("requested", "clairvoyant", "ave2", "ave5",
                     "ml:sq-lin-large-area", "ml:lin-sq-constant"):
            assert registry.legacy_name(registry.normalize(name)) == name

    def test_tuned_hyperparams_have_no_legacy_name(self):
        registry = predictor_registry()
        tuned = {"name": "ml", "params": {
            "over": "sq", "under": "lin", "weight": "large-area", "eta": 0.9}}
        assert registry.legacy_name(tuned) is None

    def test_builds_real_predictors(self):
        registry = predictor_registry()
        assert registry.build("ave3").k == 3
        ml = registry.build({"name": "ml", "params": {
            "over": "sq", "under": "lin", "weight": "large-area"}})
        assert ml.name == "ml:sq-lin-large-area"

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown predictor"):
            predictor_registry().normalize("oracle-9000")

    def test_malformed_ml_key_rejected(self):
        with pytest.raises(KeyError, match="unknown predictor"):
            predictor_registry().normalize("ml:sq-banana")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown param"):
            predictor_registry().normalize({"name": "ave", "params": {"q": 1}})

    def test_missing_required_param_rejected(self):
        with pytest.raises(ValueError, match="missing required"):
            predictor_registry().normalize({"name": "ml", "params": {"over": "sq"}})

    def test_numeric_coercion_unifies_int_and_float(self):
        registry = predictor_registry()
        a = registry.normalize({"name": "ml", "params": {
            "over": "sq", "under": "lin", "weight": "constant", "eta": 1}})
        b = registry.normalize({"name": "ml", "params": {
            "over": "sq", "under": "lin", "weight": "constant", "eta": 1.0}})
        assert a == b
        assert isinstance(a.param_dict["eta"], float)

    def test_int_param_rejects_fractional(self):
        with pytest.raises(TypeError, match="integer"):
            predictor_registry().normalize({"name": "ave", "params": {"k": 2.5}})

    def test_legacy_shorthand_with_params_rejected(self):
        with pytest.raises(ValueError, match="cannot take explicit params"):
            predictor_registry().normalize(
                {"name": "ave2", "params": {"k": 3}}
            )


class TestSchedulerRegistry:
    def test_order_suffix_lowering(self):
        registry = scheduler_registry()
        assert registry.normalize("easy-sjbf") == ComponentSpec.make(
            "easy", {"order": "sjbf"}
        )
        assert registry.normalize("easy") == ComponentSpec.make(
            "easy", {"order": "fcfs"}
        )
        assert registry.normalize("conservative-sjbf").name == "conservative"
        assert registry.normalize("legacy-easy-sjbf").name == "legacy-easy"

    def test_legacy_name_round_trips(self):
        registry = scheduler_registry()
        for name in ("fcfs", "easy", "easy-sjbf", "conservative",
                     "conservative-sjbf", "legacy-easy", "legacy-conservative-sjbf"):
            assert registry.legacy_name(registry.normalize(name)) == name

    @pytest.mark.parametrize("spelling", SCHEDULER_DIGESTS)
    def test_a_spelling_keeps_its_cell_digest(self, spelling):
        """Cache tokens and shard manifests hold these digests; the golden
        identity cells reach only ``easy`` and ``easy-sjbf``."""
        scheduler = (
            {"name": "rl-backfill", "params": {"policy": "bb92e6bdf85cf158",
                                               "store": "checkpoints"}}
            if spelling == "rl-backfill" else spelling
        )
        cell = CellSpec.make(
            workload={"log": "KTH-SP2", "n_jobs": 100, "seed": 1},
            predictor="requested", corrector=None, scheduler=scheduler,
        )
        assert cell.digest() == SCHEDULER_DIGESTS[spelling]

    def test_builds_ordered_schedulers(self):
        sched = scheduler_registry().build("easy-sjbf")
        assert sched.name == "easy-sjbf"

    def test_invalid_order_rejected_at_build(self):
        with pytest.raises(KeyError):
            scheduler_registry().build({"name": "easy", "params": {"order": "zigzag"}})


class TestCorrectorAndFilterRegistries:
    def test_correctors(self):
        registry = corrector_registry()
        for name in ("requested", "incremental", "doubling"):
            assert registry.build(name).name == name
            assert registry.legacy_name(name) == name

    def test_filters_build_callables(self):
        from repro.workload import get_trace

        trace = get_trace("KTH-SP2", n_jobs=50, seed=1)
        narrow = filter_registry().build(
            {"name": "max-width", "params": {"processors": 4}}
        )(trace)
        assert all(job.processors <= 4 for job in narrow)

    def test_filter_requires_its_param(self):
        with pytest.raises(ValueError, match="missing required"):
            filter_registry().normalize("max-width")


#: spellings of components that left the registry: each one is an unknown
#: name, never lowered to a component that stayed
REMOVED = [
    ("predictor", "quantile"),
    ("predictor", "quantile0.25"),
    ("predictor", "quantile0.9"),
    ("scheduler", "multifactor"),
    ("scheduler", "multifactor-fcfs"),
    ("scheduler", "multifactor-sjbf"),
    *(("scheduler", f"{base}-{order}")
      for base in ("easy", "conservative", "legacy-easy", "legacy-conservative")
      for order in ("saf", "narrow")),
    ("filter", "drop-oversized"),
    ("filter", "clamp-requested"),
    ("filter", "drop-flurries"),
]


class TestRemovedComponents:
    @pytest.mark.parametrize("kind,name", REMOVED, ids=[f"{k}:{n}" for k, n in REMOVED])
    def test_a_removed_spelling_is_unknown(self, kind, name):
        registry = registry_for(kind)
        message = f"unknown {kind} '{name}'; known: {', '.join(registry.names())}"
        with pytest.raises(KeyError, match=re.escape(message)):
            registry.normalize(name)
        with pytest.raises(KeyError, match=re.escape(message)):
            registry.build({"name": name})

    @pytest.mark.parametrize("order", ["saf", "narrow"])
    @pytest.mark.parametrize(
        "name", ["easy", "conservative", "legacy-easy", "legacy-conservative"]
    )
    def test_a_removed_order_is_refused_at_build(self, name, order):
        """``order`` is still a spec param; a removed order normalizes
        (the param is a free string) but builds no scheduler."""
        spec = {"name": name, "params": {"order": order}}
        assert scheduler_registry().normalize(spec).param_dict == {"order": order}
        with pytest.raises(
            KeyError, match=f"unknown (backfill|reservation) order '{order}'; known: fcfs, sjbf"
        ):
            scheduler_registry().build(spec)


class TestMakeFactories:
    """The redesigned make_* factories accept every spelling."""

    def test_make_predictor_accepts_dict(self):
        from repro.predict import make_predictor

        assert make_predictor({"name": "ave", "params": {"k": 4}}).k == 4
        assert make_predictor("requested").name == "requested"

    def test_make_scheduler_accepts_dict(self):
        from repro.sched import make_scheduler

        assert make_scheduler({"name": "easy", "params": {"order": "sjbf"}}).name == "easy-sjbf"

    def test_make_corrector_accepts_dict(self):
        from repro.correct import make_corrector

        assert make_corrector({"name": "doubling"}).name == "doubling"

    def test_make_predictor_unknown_still_keyerror(self):
        from repro.predict import make_predictor

        with pytest.raises(KeyError):
            make_predictor("nope")
