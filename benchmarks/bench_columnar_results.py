"""Benchmark: the columnar result path, kernel to cache to consumer.

The SoA refactor's whole claim is that a sweep's results never exist as
per-point objects between the kernel and the consumer. These benches
time the three legs that claim rides on, on the shared Figure 3 grid:

* ``run_columns`` through the vector backend — the end-to-end producer
  path (kernel batch -> service assembly -> runner), totals read
  straight off the batch;
* the v2 disk-cache round trip — one content-addressed block write for
  the whole grid, then per-digest ``get_ref`` lookups resolving into
  the shared in-memory block;
* the pickle boundary — the cost a :mod:`repro.sweep.cluster` worker
  pays to ship a chunk's results back to the coordinator as one column
  block.

Each bench asserts the columnar values against the materialized views
(same floats), so the smoke run doubles as an identity check.
"""

from __future__ import annotations

import pickle

from repro.memsim import paper_config
from repro.memsim.kernels import ResultColumns
from repro.sweep import DiskCache, EvaluationService, SweepRunner
from repro.sweep.cache import request_digest


def _columns_for(grid) -> tuple[list[str], ResultColumns]:
    runner = SweepRunner(EvaluationService(memoize=False), backend="vector")
    return runner.run_columns(grid)


def test_run_columns_end_to_end(benchmark, fig3_grid):
    """Columnar sweep of the Figure 3 grid, no per-point objects."""
    labels, columns = benchmark(lambda: _columns_for(fig3_grid))
    assert len(labels) == len(columns)
    totals = columns.total_gbps()
    assert totals == [view.total_gbps for view in columns.views()]
    benchmark.extra_info["points"] = len(labels)
    benchmark.extra_info["peak_gbps"] = round(max(totals), 3)


def test_disk_cache_block_round_trip(benchmark, fig3_grid, tmp_path):
    """One block write + per-digest ref lookups for the whole grid."""
    config = paper_config()
    points = [point.streams for point in fig3_grid]
    service = EvaluationService(disk_cache=DiskCache(tmp_path / "seed"))
    seeded = service.evaluate_grid_columns(config, points)
    digests = [
        request_digest(config, streams, seeded.directory_after[i].restrict(frozenset()))
        for i, streams in enumerate(points)
    ]

    def round_trip() -> int:
        cache = DiskCache(tmp_path / "seed")  # cold in-memory block map
        refs = [cache.get_ref(digest) for digest in digests]
        assert all(ref is not None for ref in refs)
        return len({id(columns) for columns, _ in refs})

    blocks = benchmark(round_trip)
    # Every ref resolves into the same shared block, loaded once.
    assert blocks == 1
    benchmark.extra_info["points"] = len(points)


def test_column_block_pickle_boundary(benchmark, fig3_grid):
    """Ship a grid's results across the cluster wire boundary and back."""
    _, columns = _columns_for(fig3_grid)

    def ship() -> ResultColumns:
        return pickle.loads(pickle.dumps(columns))

    shipped = benchmark(ship)
    assert shipped == columns
    assert shipped.total_gbps() == columns.total_gbps()
    benchmark.extra_info["block_bytes"] = len(pickle.dumps(columns))
