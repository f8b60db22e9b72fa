"""Figure 5: read NUMA effects — near vs. cold far vs. warm far.

The first multi-threaded far traversal is capped by coherence-directory
remapping (~8 GB/s, best with only 4 threads); the second run jumps to
~33 GB/s; near reads hit the 40 GB/s device peak.

This is the one experiment that studies the *cold* path, so it threads
explicit :class:`DirectoryState` values through ``model.evaluate``:
each thread count starts from :meth:`DirectoryState.cold`, and the
"2nd Far" series re-evaluates against the first run's
``directory_after`` — no model mutation anywhere.
"""

from __future__ import annotations

from repro.experiments import paperdata
from repro.experiments.common import model_or_default
from repro.experiments.result import ExperimentResult
from repro.memsim import BandwidthModel, DirectoryState, Op, StreamSpec


THREADS = (1, 4, 8, 18, 24, 36)


def run(
    model: BandwidthModel | None = None,
    backend: str = "vector",
) -> ExperimentResult:
    model = model_or_default(model)
    result = ExperimentResult(exp_id="fig5", title="Read NUMA effects")

    near = {str(t): model.sequential_read(t, 4096) for t in THREADS}
    cold = {}
    warm = {}
    for threads in THREADS:
        far_spec = StreamSpec(
            op=Op.READ, threads=threads, access_size=4096,
            issuing_socket=0, target_socket=1,
        )
        first = model.evaluate((far_spec,), DirectoryState.cold())
        # Second run against the now-warm state (the paper's "2nd Far").
        second = model.evaluate((far_spec,), first.directory_after)
        cold[str(threads)] = first.total_gbps
        warm[str(threads)] = second.total_gbps
    result.add_series("near", near)
    result.add_series("far (1st run)", cold)
    result.add_series("far (2nd run)", warm)

    result.compare("near peak", paperdata.READ_PEAK_GBPS, max(near.values()))
    result.compare(
        "cold far peak (Fig. 5: ~8 GB/s)",
        paperdata.READ_COLD_FAR_PEAK_GBPS,
        max(cold.values()),
    )
    best_cold = max(cold, key=cold.get)
    result.compare(
        "cold far optimal thread count (Fig. 5: 4)",
        paperdata.READ_COLD_FAR_BEST_THREADS,
        float(best_cold),
        unit="thr",
    )
    result.compare(
        "warm far bandwidth (Fig. 5: ~33 GB/s)",
        paperdata.READ_WARM_FAR_GBPS,
        max(warm.values()),
    )
    result.notes.append(
        "single-thread priming also warms the directory (verified in tests)"
    )
    return result
