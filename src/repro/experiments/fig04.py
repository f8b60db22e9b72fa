"""Figure 4: read bandwidth under the three pinning policies.

Explicit core pinning > NUMA-region pinning > no pinning; unpinned
threads land on the far socket and crawl at ~9 GB/s.
"""

from __future__ import annotations

from repro.experiments import paperdata
from repro.experiments.common import evaluate_grid, model_or_default
from repro.experiments.result import ExperimentResult
from repro.memsim import BandwidthModel, Op, PinningPolicy
from repro.workloads import pinning_sweep


def run(
    model: BandwidthModel | None = None,
    backend: str = "vector",
) -> ExperimentResult:
    model = model_or_default(model)
    grid = pinning_sweep(Op.READ)
    values = evaluate_grid(model, grid, backend=backend)
    result = ExperimentResult(
        exp_id="fig4", title="Read bandwidth dependent on thread pinning"
    )
    for policy in (PinningPolicy.NONE, PinningPolicy.NUMA_REGION, PinningPolicy.CORES):
        curve = {
            str(point.params["threads"]): values[point.label]
            for point in grid
            if point.params["policy"] is policy
        }
        result.add_series(policy.value, curve)

    none_peak = max(result.series_values("none").values())
    cores_peak = max(result.series_values("cores").values())
    result.compare(
        "unpinned peak (Fig. 4: ~9 GB/s)",
        paperdata.READ_UNPINNED_PEAK_GBPS,
        none_peak,
    )
    result.compare(
        "core-pinned peak (Fig. 4: ~41 GB/s)",
        paperdata.READ_PINNED_PEAK_GBPS,
        cores_peak,
    )
    result.compare(
        "pinned/unpinned ratio (§4.3: ~4x)",
        4.0,
        cores_peak / none_peak,
        unit="x",
    )
    return result
