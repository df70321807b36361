"""The paper's triple matrix, as one grid document.

The campaign (Section 6.2) evaluates every combination of

* prediction technique: Requested Time, AVE2, and the 20 machine-learned
  loss configurations (Table 5) -- plus Clairvoyant as reference;
* correction mechanism: Requested Time, Incremental, Recursive Doubling
  (only for predictors that can under-predict);
* backfilling variant: EASY and EASY-SJBF.

That yields exactly 128 triples per log (2 + 6 + 120), plus 2 clairvoyant
references, matching the paper's "128 simulations per workload log".
:data:`PAPER_GRID` holds those ``[[grid]]`` blocks once, in the schema of
:mod:`repro.spec.grid`; :func:`paper_cells` expands them over a choice of
logs, trace size and replica count.  A triple is addressed everywhere by
its cell label ``predictor|corrector|scheduler`` (``none`` for no
corrector); the named ones:

* ``EASY_TRIPLE``      -- Requested Time + no correction + EASY: the
  standard EASY backfilling algorithm;
* ``EASYPP_TRIPLE``    -- AVE2 + Incremental + EASY-SJBF: EASY++
  (Tsafrir et al.);
* ``ELOSS_TRIPLE``     -- E-Loss learning + Incremental + EASY-SJBF: the
  paper's winning triple (Section 6.3.3).
"""

from __future__ import annotations

from collections.abc import Sequence

from ..spec import CellSpec, expand_spec_obj
from ..workload.archive import LOG_NAMES

__all__ = [
    "PAPER_GRID",
    "paper_cells",
    "EASY_TRIPLE",
    "EASYPP_TRIPLE",
    "ELOSS_TRIPLE",
    "CLAIRVOYANT_EASY",
    "CLAIRVOYANT_SJBF",
    "TRIPLE_NAMES",
]

#: Standard EASY: user estimates, no correction needed, FCFS backfill order.
EASY_TRIPLE = "requested|none|easy"

#: EASY++ of Tsafrir et al.: AVE2 prediction, incremental correction, SJBF.
EASYPP_TRIPLE = "ave2|incremental|easy-sjbf"

#: The paper's cross-validation winner (Eq. 3 loss).
ELOSS_TRIPLE = "ml:sq-lin-large-area|incremental|easy-sjbf"

#: Clairvoyant upper-bound references (reported, not competing).
CLAIRVOYANT_EASY = "clairvoyant|none|easy"
CLAIRVOYANT_SJBF = "clairvoyant|none|easy-sjbf"

#: Report names of the named triples.
TRIPLE_NAMES = {
    EASY_TRIPLE: "EASY (standard)",
    EASYPP_TRIPLE: "EASY++ (Tsafrir et al.)",
    ELOSS_TRIPLE: "E-Loss learning + Incremental + EASY-SJBF (paper's winner)",
}

_CORRECTORS = ("requested", "incremental", "doubling")
_SCHEDULERS = ("easy", "easy-sjbf")

#: The 128 evaluated triples then the 2 references, in report order.
PAPER_GRID: tuple[dict, ...] = (
    {"predictor": ["requested"], "corrector": ["none"], "scheduler": _SCHEDULERS},
    {"predictor": ["ave2"], "corrector": _CORRECTORS, "scheduler": _SCHEDULERS},
    {"predictor": ["ml:*"], "corrector": _CORRECTORS, "scheduler": _SCHEDULERS},
    {"predictor": ["clairvoyant"], "corrector": ["none"], "scheduler": _SCHEDULERS},
)


def paper_cells(
    logs: Sequence[str] = LOG_NAMES, n_jobs: int = 2000, replicas: int = 3
) -> list[CellSpec]:
    """Every cell of the paper's campaign: :data:`PAPER_GRID` over
    ``logs`` x ``replicas`` seeds (``stable_seed(log) + 0..replicas-1``)
    of ``n_jobs``-job traces, engine knobs at the paper's defaults.

    Raises :class:`repro.spec.SpecFileError` on an unknown log or a
    non-positive size/replica count.
    """
    return expand_spec_obj(
        {
            "campaign": {
                "name": "paper-sc15",
                "logs": list(logs),
                "n_jobs": n_jobs,
                "replicas": replicas,
            },
            "grid": list(PAPER_GRID),
        },
        source="paper grid",
    )
