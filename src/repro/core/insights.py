"""The paper's twelve numbered insights, as machine-checkable claims.

Each :class:`Insight` carries the verbatim statement from the paper and a
``check`` predicate that verifies the claim *holds in the model* — the
reproduction treats the insights as falsifiable outputs, not as inputs.
``verify_all`` is run by the test suite and by the best-practices
benchmark; a failing insight means the mechanistic model no longer
supports the paper's conclusion.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.memsim import BandwidthModel, DirectoryState, Layout, PinningPolicy


@dataclass(frozen=True)
class Insight:
    """One numbered insight from the paper."""

    number: int
    section: str
    statement: str
    check: Callable[[BandwidthModel], bool]


def _insight_1(m: BandwidthModel) -> bool:
    # Individual regions are size-insensitive and fast; grouped access
    # peaks at 4 KB.
    individual = [m.sequential_read(18, s) for s in (64, 256, 4096, 65536)]
    grouped_best = max(
        (64, 256, 1024, 4096, 16384),
        key=lambda s: m.sequential_read(36, s, layout=Layout.GROUPED),
    )
    return min(individual) > 0.85 * max(individual) and grouped_best == 4096


def _insight_2(m: BandwidthModel) -> bool:
    # All cores needed to saturate; hyperthreaded reads do not help.
    return (
        m.sequential_read(18, 4096) > m.sequential_read(8, 4096)
        and m.sequential_read(24, 4096) <= m.sequential_read(18, 4096)
    )


def _insight_3(m: BandwidthModel) -> bool:
    pinned = m.sequential_read(18, 4096)
    unpinned = m.sequential_read(18, 4096, pinning=PinningPolicy.NONE)
    return pinned > 3.0 * unpinned


def _insight_4(m: BandwidthModel) -> bool:
    cold = m.sequential_read(18, 4096, far=True, warm=False)
    warm = m.sequential_read(18, 4096, far=True, warm=True)
    near = m.sequential_read(18, 4096)
    return near > warm > cold


def _insight_5(m: BandwidthModel) -> bool:
    from repro.memsim.spec import Op, StreamSpec

    near = StreamSpec(op=Op.READ, threads=18, pinning=PinningPolicy.NUMA_REGION)
    two_near = m.evaluate(
        [near, near.with_(issuing_socket=1, target_socket=1)]
    ).total_gbps
    two_far = m.evaluate(
        [
            near.with_(issuing_socket=0, target_socket=1),
            near.with_(issuing_socket=1, target_socket=0),
        ],
        DirectoryState.warm(m.config.topology),
    ).total_gbps
    one_near = m.evaluate([near]).total_gbps
    return two_near > 1.9 * one_near and two_near > 1.4 * two_far


def _insight_6(m: BandwidthModel) -> bool:
    best = max(
        (64, 256, 1024, 4096, 16384, 65536),
        key=lambda s: m.sequential_write(6, s, layout=Layout.GROUPED),
    )
    small_best = max(
        (64, 128, 256, 512),
        key=lambda s: m.sequential_write(24, s, layout=Layout.GROUPED),
    )
    return best == 4096 and small_best == 256


def _insight_7(m: BandwidthModel) -> bool:
    # 4-6 threads for large blocks; small accesses tolerate scaling.
    large_best = max((1, 2, 4, 6, 8, 18, 36), key=lambda t: m.sequential_write(t, 65536))
    small_ok = m.sequential_write(36, 256) >= 0.8 * m.sequential_write(18, 256)
    return large_best in (4, 6) and small_ok


def _insight_8(m: BandwidthModel) -> bool:
    cores = m.sequential_write(24, 4096)
    numa = m.sequential_write(24, 4096, pinning=PinningPolicy.NUMA_REGION)
    none = m.sequential_write(24, 4096, pinning=PinningPolicy.NONE)
    return cores >= numa > none


def _insight_9(m: BandwidthModel) -> bool:
    near = max(m.sequential_write(t, 4096) for t in (4, 6, 8))
    far = max(m.sequential_write(t, 4096, far=True) for t in (4, 6, 8, 18))
    return near > 1.5 * far


def _insight_10(m: BandwidthModel) -> bool:
    from repro.memsim.spec import Op, StreamSpec

    near = StreamSpec(
        op=Op.WRITE, threads=4, pinning=PinningPolicy.NUMA_REGION
    )
    contended = m.evaluate(
        [near, near.with_(threads=8, issuing_socket=1, target_socket=0)]
    ).total_gbps
    alone = m.evaluate([near]).total_gbps
    return contended < alone


def _insight_11(m: BandwidthModel) -> bool:
    # Mixing reads and writes costs both sides heavily: serialize when
    # latency allows.
    out = m.mixed(write_threads=6, read_threads=18)
    return out.read_retention < 0.5 and out.write_retention < 0.5


def _insight_12(m: BandwidthModel) -> bool:
    sequential_beats_random = m.sequential_read(36, 4096) > m.random_read(36, 4096)
    bigger_random_better = m.random_read(36, 4096) > m.random_read(36, 256)
    return sequential_beats_random and bigger_random_better


ALL_INSIGHTS: tuple[Insight, ...] = (
    Insight(1, "3.1", "Read data from individual memory regions or in consecutive "
                      "4 KB chunks to benefit from prefetching and an even "
                      "thread-to-DIMM distribution.", _insight_1),
    Insight(2, "3.2", "Use all available cores for maximum read bandwidth and "
                      "avoid hyperthreaded reads.", _insight_2),
    Insight(3, "3.3", "Pin threads to avoid far-memory access.", _insight_3),
    Insight(4, "3.4", "Threads should only read data on their near socket PMEM. "
                      "If this is not possible, the assignment of address spaces "
                      "to NUMA regions should change as rarely as possible.", _insight_4),
    Insight(5, "3.5", "If possible, stripe data into independent and evenly "
                      "distributed data sets across the PMEM of all sockets and "
                      "ensure that sockets read only from near PMEM.", _insight_5),
    Insight(6, "4.1", "Write data in 4 KB chunks to achieve the highest bandwidth "
                      "or in 256 Byte chunks if smaller consecutive writes are "
                      "necessary.", _insight_6),
    Insight(7, "4.2", "Use 4-6 threads to write to PMEM in large blocks or keep "
                      "the access small when scaling the number of threads.", _insight_7),
    Insight(8, "4.3", "Pin write-threads to individual cores if you have full "
                      "system control. Otherwise, pin them to NUMA regions.", _insight_8),
    Insight(9, "4.4", "Threads should only write data to their near PMEM.", _insight_9),
    Insight(10, "4.5", "Avoid contending cross-socket writes.", _insight_10),
    Insight(11, "5.1", "Serialize PMEM access when possible.", _insight_11),
    Insight(12, "5.2", "Access PMEM sequentially or use the largest possible "
                       "access for random workloads.", _insight_12),
)


def get_insight(number: int) -> Insight:
    """Look up an insight by its paper number (1-12)."""
    for insight in ALL_INSIGHTS:
        if insight.number == number:
            return insight
    raise KeyError(f"no insight #{number}; the paper defines 1-12")


def verify_all(model: BandwidthModel | None = None) -> dict[int, bool]:
    """Check every insight against the model; return {number: holds}."""
    model = model if model is not None else BandwidthModel()
    return {insight.number: insight.check(model) for insight in ALL_INSIGHTS}
