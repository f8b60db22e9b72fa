"""Section 2.3: devdax vs. fsdax.

devdax is consistently 5-10% faster (no page faults, no page-cache);
a pre-faulted fsdax mapping matches devdax exactly; a cold 2 MB page
fault costs ~0.5 ms, so pre-faulting 1 GB takes at least 0.25 s.
"""

from __future__ import annotations

from repro.experiments import paperdata
from repro.experiments.common import model_or_default
from repro.experiments.result import ExperimentResult
from repro.memsim import BandwidthModel, DaxMode
from repro.memsim.address import MappedRegion
from repro.units import GIB


def run(
    model: BandwidthModel | None = None,
    backend: str = "vector",
) -> ExperimentResult:
    model = model_or_default(model)
    result = ExperimentResult(exp_id="daxmode", title="devdax vs fsdax (§2.3)")

    devdax = {str(t): model.sequential_read(t, 4096) for t in (4, 8, 18, 36)}
    fsdax = {
        str(t): model.sequential_read(t, 4096, dax_mode=DaxMode.FSDAX)
        for t in (4, 8, 18, 36)
    }
    prefaulted = {
        str(t): model.sequential_read(
            t, 4096, dax_mode=DaxMode.FSDAX, prefaulted=True
        )
        for t in (4, 8, 18, 36)
    }
    result.add_series("devdax", devdax)
    result.add_series("fsdax", fsdax)
    result.add_series("fsdax (prefaulted)", prefaulted)

    advantage = devdax["18"] / fsdax["18"] - 1.0
    low, high = paperdata.DEVDAX_ADVANTAGE_RANGE
    result.compare(
        "devdax advantage (§2.3: 5-10%)",
        (low + high) / 2,
        advantage,
        unit="frac",
    )
    result.compare(
        "prefaulted fsdax matches devdax",
        1.0,
        prefaulted["18"] / devdax["18"],
        unit="x",
    )
    region = MappedRegion(size=GIB, dax_mode=DaxMode.FSDAX)
    result.compare(
        "pre-faulting 1 GB (§2.3: >= 0.25 s)",
        paperdata.PAGE_FAULT_SECONDS_PER_GIB,
        region.fault_cost(model.config.calibration.pmem.page_fault_cost),
        unit="s",
    )
    return result
