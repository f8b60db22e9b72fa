"""Figure 11: mixed read/write workload bandwidth.

One writer already shaves ~5 GB/s off a 30-thread reader pool; a
saturating reader pool pushes writers toward a third of their maximum;
the combined bandwidth never exceeds the uncontended read peak.
"""

from __future__ import annotations

from repro.experiments import paperdata
from repro.experiments.common import model_or_default
from repro.experiments.result import ExperimentResult
from repro.memsim import BandwidthModel
from repro.workloads.mixed import PAPER_READ_COUNTS, PAPER_WRITE_COUNTS


def run(
    model: BandwidthModel | None = None,
    backend: str = "vector",
) -> ExperimentResult:
    model = model_or_default(model)
    result = ExperimentResult(exp_id="fig11", title="Mixed workload performance")
    reads: dict[str, float] = {}
    writes: dict[str, float] = {}
    outcomes = {}
    for writers in PAPER_WRITE_COUNTS:
        for readers in PAPER_READ_COUNTS:
            outcome = model.mixed(write_threads=writers, read_threads=readers)
            label = f"{writers}/{readers}"
            reads[label] = outcome.read_gbps
            writes[label] = outcome.write_gbps
            outcomes[label] = outcome
    result.add_series("read", reads)
    result.add_series("write", writes)

    result.compare(
        "read bandwidth at 1 writer / 30 readers (§5.1: ~26 GB/s)",
        paperdata.MIXED_READ_30R_1W_GBPS,
        reads["1/30"],
    )
    result.compare(
        "write bandwidth at 4 writers / 1 reader (§5.1: ~12 GB/s)",
        paperdata.MIXED_WRITE_4W_1R_GBPS,
        writes["4/1"],
    )
    balanced = outcomes["6/18"]
    result.compare(
        "balanced read retention (§5.1: ~1/3)",
        paperdata.MIXED_BALANCED_RETENTION,
        balanced.read_retention,
        unit="frac",
    )
    result.compare(
        "balanced write retention (§5.1: ~1/3)",
        paperdata.MIXED_BALANCED_RETENTION,
        balanced.write_retention,
        unit="frac",
    )
    read_alone = model.sequential_read(18, 4096)
    worst_total = max(o.total_gbps for o in outcomes.values())
    result.compare(
        "max combined bandwidth <= uncontended read max",
        read_alone,
        worst_total,
    )
    result.notes.append(
        "paper's 30-thread uncontended baseline is 31 GB/s; the model "
        f"gives {balanced.read_alone_gbps:.1f} GB/s for 18 threads "
        "(see EXPERIMENTS.md for the known deviation)"
    )
    return result
