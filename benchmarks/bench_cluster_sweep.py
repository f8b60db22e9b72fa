"""Benchmark: the cluster sweep backend.

Two claims back this file:

* **Sharding to local worker processes scales.** On a machine with
  >= 4 CPU cores, sharding a cold dense grid across 4 locally spawned
  cluster workers must beat single-process serial by at least 1.8x
  (``test_cluster_speedup_over_serial``). On 1-2 core hosts the
  comparison is meaningless — worker spawn and wire framing dominate
  and there is no parallelism to win — so the gate skips with an
  explicit reason rather than flaking.
* **Speed never costs identity.** Every run in this file asserts the
  cluster totals equal serial's before any timing is trusted; a faster
  wrong answer fails the bench.

The dense grid (21 access sizes x 12 thread counts) is wide enough that
worker startup does not drown the signal being measured.
"""

from __future__ import annotations

import os
import timeit

import pytest

from repro.memsim import Op
from repro.sweep import EvaluationService, SweepRunner
from repro.sweep.cluster import ClusterOptions, set_default_cluster_options
from repro.workloads.sequential import sequential_sweep

_DENSE_SIZES = tuple(64 << i for i in range(21))
_DENSE_THREADS = tuple(range(1, 37, 3))


def _dense_grid():
    return sequential_sweep(
        Op.READ, access_sizes=_DENSE_SIZES, thread_counts=_DENSE_THREADS
    )


def _cores() -> int:
    return os.cpu_count() or 1


def _serial_totals(grid) -> dict[str, float]:
    return SweepRunner(
        EvaluationService(memoize=False), backend="serial"
    ).totals(grid)


def _cluster_totals(grid, workers: int) -> dict[str, float]:
    previous = set_default_cluster_options(ClusterOptions(workers=workers))
    try:
        return SweepRunner(
            EvaluationService(memoize=False), backend="cluster"
        ).totals(grid)
    finally:
        set_default_cluster_options(previous)


def test_cluster_speedup_over_serial():
    """4 local cluster workers must beat serial by >= 1.8x, cold."""
    cores = _cores()
    if cores < 4:
        pytest.skip(
            f"needs >= 4 CPU cores for a meaningful cluster speedup "
            f"(have {cores}); worker spawn dominates on small hosts"
        )
    grid = _dense_grid()

    def serial() -> dict[str, float]:
        return _serial_totals(grid)

    def cluster() -> dict[str, float]:
        return _cluster_totals(grid, workers=4)

    assert cluster() == serial()  # bit-identical before it may be faster
    serial_seconds = min(timeit.repeat(serial, number=1, repeat=3))
    cluster_seconds = min(timeit.repeat(cluster, number=1, repeat=3))
    speedup = serial_seconds / cluster_seconds
    assert speedup >= 1.8, (
        f"cluster backend speedup {speedup:.2f}x < 1.8x "
        f"(serial {serial_seconds:.3f}s, cluster {cluster_seconds:.3f}s)"
    )


def test_cluster_backend_matches_serial(benchmark, fig3_grid):
    """The cluster backend, timed; identical to serial on any host."""
    serial = _serial_totals(fig3_grid)
    workers = max(2, min(4, _cores()))
    totals = benchmark(lambda: _cluster_totals(fig3_grid, workers))
    assert totals == serial
