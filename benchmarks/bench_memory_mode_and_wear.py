"""Extension benches: Memory Mode (§2.1) and endurance accounting.

Memory Mode is the operating mode the paper describes but does not
benchmark; the wear model turns the §4.4 write-amplification counters
into lifetime estimates.
"""

from repro.memsim import (
    BandwidthModel,
    MemoryModeModel,
    Op,
    PinningPolicy,
    StreamSpec,
    wear_from_counters,
)
from repro.memsim.spec import Pattern
from repro.units import GIB


def _memory_mode_study():
    mode = MemoryModeModel(BandwidthModel())
    return {
        "cached_10GiB": mode.read_bandwidth(18, 4096, 10 * GIB),
        "streaming_700GiB": mode.read_bandwidth(18, 4096, 700 * GIB),
        "random_186GiB": mode.read_bandwidth(
            36, 256, 186 * GIB, pattern=Pattern.RANDOM
        ),
        "app_direct": mode.model.sequential_read(18, 4096),
    }


def test_memory_mode(benchmark):
    values = benchmark(_memory_mode_study)
    benchmark.extra_info.update({k: round(v, 2) for k, v in values.items()})
    # Within the cache Memory Mode is DRAM; beyond it, worse than App
    # Direct — the reason research uses App Direct for OLAP (§2.1).
    assert values["cached_10GiB"] > values["app_direct"]
    assert values["streaming_700GiB"] < values["app_direct"]


def _wear_study():
    model = BandwidthModel()
    near = model.evaluate(
        [StreamSpec(op=Op.WRITE, threads=6, pinning=PinningPolicy.NUMA_REGION)]
    )
    far = model.evaluate(
        [
            StreamSpec(
                op=Op.WRITE, threads=18, pinning=PinningPolicy.NUMA_REGION,
                issuing_socket=0, target_socket=1,
            )
        ]
    )
    elapsed = 3600.0
    return {
        "near_lifetime_years": wear_from_counters(near.counters, elapsed).lifetime_years,
        "far_lifetime_years": wear_from_counters(far.counters, elapsed).lifetime_years,
    }


def test_wear(benchmark):
    values = benchmark(_wear_study)
    benchmark.extra_info.update({k: round(v, 1) for k, v in values.items()})
    # §4.4's 10x far-write amplification also burns endurance ~10x faster
    # per byte (partially offset by the lower achievable bandwidth).
    assert values["far_lifetime_years"] < values["near_lifetime_years"]
