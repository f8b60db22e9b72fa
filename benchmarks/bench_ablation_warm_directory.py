"""Ablation: cold vs. primed coherence directory for far reads (§3.4).

The paper's workaround — priming far memory with a single thread before
the multi-threaded run — is reproduced: one cheap touch removes the 5x
first-run penalty.
"""

from repro.memsim import BandwidthModel, DirectoryState, Op, StreamSpec


def _far_read(threads: int) -> StreamSpec:
    return StreamSpec(op=Op.READ, threads=threads, issuing_socket=0, target_socket=1)


def _study():
    model = BandwidthModel()
    cold = model.evaluate([_far_read(18)], DirectoryState.cold()).total_gbps

    # Single-threaded priming pass, then the measured run.
    priming = model.evaluate([_far_read(1)], DirectoryState.cold())
    primed = model.evaluate([_far_read(18)], priming.directory_after).total_gbps
    return {"cold_gbps": cold, "primed_gbps": primed}


def test_warm_directory_ablation(benchmark):
    values = benchmark(_study)
    benchmark.extra_info.update({k: round(v, 2) for k, v in values.items()})
    assert values["primed_gbps"] > 3 * values["cold_gbps"]
