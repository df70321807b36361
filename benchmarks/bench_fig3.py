"""Figure 3 -- cross-log scatter of heuristic-triple performance.

The paper scatters each triple's AVEbsld on MetaCentrum against
SDSC-BLUE, colour-coded by scheduler and prediction family, and reports
that the pairwise Pearson correlation across logs is low (mean 0.26,
min 0.01, max 0.80): a triple's rank does not transfer between systems,
motivating cross-validated selection.
"""

from __future__ import annotations

from repro.core.reporting import ascii_scatter
from repro.metrics import correlation_summary

from conftest import write_artifact


def _family(label: str) -> str:
    predictor, _corrector, scheduler = label.split("|")
    if predictor == "clairvoyant":
        base = "Clairvoyant"
    elif predictor.startswith("ml:"):
        base = "Machine Learning"
    elif predictor == "ave2":
        base = "AVE2"
    else:
        base = "Requested Time"
    sched = "SJBF" if scheduler == "easy-sjbf" else "FCFS"
    return f"{base} / {sched}"


def test_fig3(campaign, benchmark):
    logs = campaign.logs()
    keys = campaign.competing_labels()

    # Scatter: MetaCentrum vs SDSC-BLUE (the paper's pair), by family.
    points: dict[str, list[tuple[float, float]]] = {}
    for triple in campaign.labels():
        x = campaign.mean("SDSC-BLUE", triple)
        y = campaign.mean("Metacentrum", triple)
        points.setdefault(_family(triple), []).append((x, y))
    chart = ascii_scatter(
        points,
        x_label="AVEbsld SDSC-BLUE",
        y_label="AVEbsld MetaCentrum",
        log_scale=True,
    )

    # Pairwise Pearson correlations over the 128 campaign triples.
    scores_by_log = {log: campaign.score_vector(log, keys) for log in logs}
    summary = correlation_summary(scores_by_log)
    corr_text = (
        f"pairwise Pearson correlation of triple scores across logs:\n"
        f"  mean={summary['mean']:.2f}  min={summary['min']:.2f}  "
        f"max={summary['max']:.2f}  over {int(summary['n_pairs'])} log pairs\n"
        f"  (paper: mean 0.26, min 0.01, max 0.80)"
    )
    print("\n" + write_artifact("fig3.txt", chart + "\n\n" + corr_text))

    # Shape 1: correlation is far from perfect -- triples do not transfer.
    assert summary["mean"] < 0.85
    assert summary["min"] < 0.6

    # Shape 2: the clairvoyant SJBF point is on the Pareto corner (best or
    # near-best on both axes of the scatter pair).
    clair_sjbf = "clairvoyant|none|easy-sjbf"
    for log in ("SDSC-BLUE", "Metacentrum"):
        clair = campaign.mean(log, clair_sjbf)
        best_campaign = min(campaign.mean(log, k) for k in keys)
        assert clair <= best_campaign * 2.0, log

    benchmark(lambda: correlation_summary(scores_by_log))
