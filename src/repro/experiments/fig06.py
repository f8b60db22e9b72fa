"""Figure 6: reading from multiple sockets, PMEM (a) and DRAM (b).

Five configurations: 1/2 sockets x near/far plus the shared-target case.
Near reads scale linearly with sockets (80 GB/s PMEM, 185 GB/s DRAM);
far reads are UPI-bound; both sockets reading the same PMEM collapses.
"""

from __future__ import annotations

from repro.experiments import paperdata
from repro.experiments.common import evaluate_grid, model_or_default
from repro.experiments.result import ExperimentResult
from repro.memsim import (
    BandwidthModel,
    DirectoryState,
    MediaKind,
    Op,
    PinningPolicy,
    StreamSpec,
)
from repro.workloads import MULTISOCKET_READ_LABELS, multisocket_read_scenarios


def run(
    model: BandwidthModel | None = None,
    backend: str = "vector",
) -> ExperimentResult:
    model = model_or_default(model)
    result = ExperimentResult(
        exp_id="fig6", title="Read from multiple sockets (PMEM and DRAM)"
    )
    for media, panel in ((MediaKind.PMEM, "a-pmem"), (MediaKind.DRAM, "b-dram")):
        grid = multisocket_read_scenarios(media=media)
        values = evaluate_grid(model, grid, backend=backend)
        for label in MULTISOCKET_READ_LABELS:
            curve = {
                str(point.params["threads"]): values[point.label]
                for point in grid
                if point.params["scenario"] == label
            }
            result.add_series(f"{panel}/{label}", curve)

    def peak(panel: str, label: str) -> float:
        return max(result.series_values(f"{panel}/{label}").values())

    result.compare("PMEM 2 Near", paperdata.READ_2NEAR_PMEM_GBPS, peak("a-pmem", "2 Near"))
    result.compare("PMEM 2 Far", paperdata.READ_2FAR_PMEM_GBPS, peak("a-pmem", "2 Far"))
    result.compare("PMEM 1 Far (warm)", paperdata.READ_WARM_FAR_GBPS, peak("a-pmem", "1 Far"))
    result.compare("DRAM 1 Near", paperdata.READ_1NEAR_DRAM_GBPS, peak("b-dram", "1 Near"))
    result.compare("DRAM 2 Near", paperdata.READ_2NEAR_DRAM_GBPS, peak("b-dram", "2 Near"))
    result.compare("DRAM 1 Far", paperdata.READ_1FAR_DRAM_GBPS, peak("b-dram", "1 Far"))
    result.compare("DRAM 2 Far", paperdata.READ_2FAR_DRAM_GBPS, peak("b-dram", "2 Far"))

    # UPI utilization in the 2-Far scenario (§3.5: VTune shows 90%+),
    # evaluated against an explicit warm directory state.
    spec = StreamSpec(op=Op.READ, threads=18, pinning=PinningPolicy.NUMA_REGION)
    two_far = model.evaluate(
        (
            spec.with_(issuing_socket=0, target_socket=1),
            spec.with_(issuing_socket=1, target_socket=0),
        ),
        DirectoryState.warm(model.config.topology),
    )
    result.compare(
        "UPI utilization, 2 Far (§3.5: 90%+)",
        paperdata.UPI_UTILIZATION_2FAR,
        two_far.counters.upi_utilization,
        unit="frac",
    )
    result.notes.append(
        "PMEM shared-target (1 Near 1 Far) collapses to "
        f"{peak('a-pmem', '1 Near 1 Far'):.0f} GB/s — 'very low' per §3.5"
    )
    return result
