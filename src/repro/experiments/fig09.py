"""Figure 9: write bandwidth under the three pinning policies.

Same ordering as for reads but a gentler unpinned penalty: ~7 vs
~13 GB/s (2x, where reads lose 4x).
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
    grid = pinning_sweep(Op.WRITE)
    values = evaluate_grid(model, grid, backend=backend)
    result = ExperimentResult(
        exp_id="fig9", title="Write bandwidth dependent on thread pinning"
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
        "unpinned write peak (Fig. 9: ~7 GB/s)",
        paperdata.WRITE_UNPINNED_PEAK_GBPS,
        none_peak,
    )
    result.compare(
        "core-pinned write peak (Fig. 9: ~13 GB/s)",
        paperdata.WRITE_PINNED_PEAK_GBPS,
        cores_peak,
    )
    result.compare(
        "pinned/unpinned ratio (§4.3: ~2x)", 2.0, cores_peak / none_peak, unit="x"
    )
    return result
