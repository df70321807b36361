"""repro: reproduction of "Improving Backfilling by using Machine Learning
to predict Running Times" (Gaussier, Glesser, Reis & Trystram, SC 2015).

Public API tour
---------------

Workloads::

    from repro import get_trace, load_swf, Trace
    trace = get_trace("KTH-SP2", n_jobs=2000)   # calibrated synthetic log

Simulation of one heuristic triple::

    from repro import simulate, EasyScheduler, MLPredictor, E_LOSS
    from repro import IncrementalCorrector
    result = simulate(trace, EasyScheduler("sjbf"), MLPredictor(E_LOSS),
                      IncrementalCorrector())
    print(result.avebsld())

One declarative cell, the way campaigns run it (``run_spec`` returns the
same :class:`SimulationResult`)::

    from repro import CellSpec, ELOSS_TRIPLE, run_spec
    result = run_spec(CellSpec.from_triple("KTH-SP2", ELOSS_TRIPLE, n_jobs=1000))

The paper's campaign and analyses::

    from repro import paper_cells, run_cells, leave_one_out
    campaign = run_cells(paper_cells(n_jobs=1500, replicas=2))
    for row in campaign.table1_rows():
        print(row)

Declarative experiment specs (any scenario grid, not just the paper's)::

    from repro import expand_spec_file, run_cells
    cells = expand_spec_file("experiments/paper.toml")
    result = run_cells(cells, cache_path="campaign.jsonl")

See README.md: "Layout" is the system inventory, "Engine benchmark"
the measured record.
"""

from .core import (
    EASY_TRIPLE,
    EASYPP_TRIPLE,
    ELOSS_TRIPLE,
    SpecCampaignResult,
    analyze_predictions,
    average_reductions,
    leave_one_out,
    paper_cells,
    run_cells,
    run_spec,
    selection_consensus,
)
from .correct import (
    Corrector,
    IncrementalCorrector,
    RecursiveDoublingCorrector,
    RequestedTimeCorrector,
    make_corrector,
)
from .metrics import (
    average_bounded_slowdown,
    bounded_slowdowns,
    mean_absolute_error,
    mean_loss,
)
from .predict import (
    E_LOSS,
    SQUARED_LOSS,
    ClairvoyantPredictor,
    LossSpec,
    MLPredictor,
    NagOptimizer,
    Predictor,
    RecentAveragePredictor,
    RequestedTimePredictor,
    all_loss_specs,
    make_predictor,
)
from .sched import (
    ConservativeScheduler,
    EasyScheduler,
    FcfsScheduler,
    Scheduler,
    make_scheduler,
)
from .sim import (
    EstimatedStart,
    Machine,
    SimSession,
    SimulationResult,
    simulate,
)
from .spec import (
    SPEC_VERSION,
    CellSpec,
    ComponentSpec,
    WorkloadSpec,
    expand_spec_file,
    validate_spec_file,
)
from .workload import (
    ARCHIVE,
    LOG_NAMES,
    Job,
    Trace,
    WorkloadModel,
    get_trace,
    load_swf,
    save_swf,
    synthesize,
)

__version__ = "1.0.0"

__all__ = [
    "EASY_TRIPLE",
    "EASYPP_TRIPLE",
    "ELOSS_TRIPLE",
    "SpecCampaignResult",
    "paper_cells",
    "analyze_predictions",
    "average_reductions",
    "leave_one_out",
    "run_cells",
    "run_spec",
    "selection_consensus",
    "SPEC_VERSION",
    "CellSpec",
    "ComponentSpec",
    "WorkloadSpec",
    "expand_spec_file",
    "validate_spec_file",
    "Corrector",
    "IncrementalCorrector",
    "RecursiveDoublingCorrector",
    "RequestedTimeCorrector",
    "make_corrector",
    "average_bounded_slowdown",
    "bounded_slowdowns",
    "mean_absolute_error",
    "mean_loss",
    "E_LOSS",
    "SQUARED_LOSS",
    "ClairvoyantPredictor",
    "LossSpec",
    "MLPredictor",
    "NagOptimizer",
    "Predictor",
    "RecentAveragePredictor",
    "RequestedTimePredictor",
    "all_loss_specs",
    "make_predictor",
    "ConservativeScheduler",
    "EasyScheduler",
    "FcfsScheduler",
    "Scheduler",
    "make_scheduler",
    "Machine",
    "SimulationResult",
    "simulate",
    "SimSession",
    "EstimatedStart",
    "ARCHIVE",
    "LOG_NAMES",
    "Job",
    "Trace",
    "WorkloadModel",
    "get_trace",
    "load_swf",
    "save_swf",
    "synthesize",
    "__version__",
]
