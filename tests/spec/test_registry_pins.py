"""Every registered component, and every backfill order, names the test that pins it.

A pin builds the component through the registry and asserts something
about the schedules it makes: a ``tests/paper`` shape, byte-identity with
a ``legacy-*`` oracle, or, for ``rl-backfill``, the ``tests/learn``
campaign path.  A name nothing pins does not belong in the registry: pin
it here or delete it.  The check reads the test modules' ASTs and imports
none of them.
"""

import ast
from pathlib import Path

from repro.sched import BACKFILL_ORDERS
from repro.spec import registry_for

ROOT = Path(__file__).resolve().parents[2]
KINDS = ("predictor", "corrector", "scheduler", "filter")

SHAPES = "tests/paper/test_shapes.py::TestPaperShapes::"
CORRECTORS = "tests/paper/test_ablations.py::test_the_correction_mechanism_matters_for_ave2"
ORDERS = "tests/paper/test_ablations.py::test_sjbf_beats_fcfs_order_under_clairvoyance"
ORACLE = "tests/sched/test_profile_equivalence.py::test_requested_time_schedules_identical"

#: ``kind:name`` (``order:name`` for a backfill order) -> the pytest node id that pins it
PINS: dict[str, str] = {
    "predictor:requested": SHAPES + "test_eloss_triple_beats_easy",
    "predictor:clairvoyant": SHAPES + "test_clairvoyant_sjbf_is_best_in_class",
    "predictor:ave": SHAPES + "test_corrections_only_fire_for_underpredicting_techniques",
    "predictor:ml": SHAPES + "test_eloss_triple_beats_easy",
    "corrector:requested": CORRECTORS,
    "corrector:incremental": SHAPES + "test_corrections_only_fire_for_underpredicting_techniques",
    "corrector:doubling": CORRECTORS,
    "scheduler:fcfs": SHAPES + "test_backfilling_beats_pure_fcfs",
    "scheduler:easy": ORACLE,
    "scheduler:conservative": ORACLE,
    "scheduler:legacy-easy": ORACLE,
    "scheduler:legacy-conservative": ORACLE,
    "scheduler:rl-backfill": (
        "tests/learn/test_component.py::TestCampaignPath::test_run_cells_scores_a_learned_cell"
    ),
    "filter:max-width": (
        "tests/spec/test_cellspec.py::TestBuildWorkload::test_run_spec_on_modified_workload"
    ),
    "order:fcfs": ORDERS,
    "order:sjbf": ORDERS,
}


def registered() -> set[str]:
    names = {f"{kind}:{name}" for kind in KINDS for name in registry_for(kind).names()}
    return names | {f"order:{order}" for order in BACKFILL_ORDERS}


def _defines(path: Path, scope: list[str]) -> bool:
    """True when the module at ``path`` defines the test ``[Class::]test``."""
    if not scope or not scope[-1].startswith("test") or not path.is_file():
        return False
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for part in scope:
        node = next(
            (n for n in body
             if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == part),
            None,
        )
        if node is None:
            return False
        body = node.body
    return isinstance(node, ast.FunctionDef)


def pin_problems(names: set[str], pins: dict[str, str], root: Path) -> list[str]:
    """Everything that keeps ``pins`` from being the pin table of ``names``."""
    problems = [f"{name}: registered, not pinned" for name in sorted(names - set(pins))]
    problems += [f"{name}: pinned, not registered" for name in sorted(set(pins) - names)]
    for name, node in sorted(pins.items()):
        path, *scope = node.split("::")
        if not _defines(root / path, scope):
            problems.append(f"{name}: no test {node}")
    return problems


def test_every_registered_name_has_a_pin():
    assert pin_problems(registered(), PINS, ROOT) == []


def test_an_unpinned_name_fails():
    names = registered() | {"scheduler:multifactor"}
    assert pin_problems(names, PINS, ROOT) == ["scheduler:multifactor: registered, not pinned"]


def test_a_pin_to_a_missing_test_fails():
    pins = {**PINS, "filter:max-width": ORACLE + "_renamed"}
    assert pin_problems(registered(), pins, ROOT) == [
        f"filter:max-width: no test {ORACLE}_renamed"
    ]

