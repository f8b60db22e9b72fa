"""Benchmark: the sweep service's memo cache.

Regenerates Figure 3 (the largest grid sweep: access size x thread count
x media) two ways — uncached and warm-cache — so the report quantifies
what the memo cache buys: a warm second regeneration should be far
cheaper than a cold one, and must be served entirely from the cache.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.fig03 import run
from repro.memsim import BandwidthModel
from repro.sweep import EvaluationService


def _fresh_model() -> BandwidthModel:
    return BandwidthModel(service=EvaluationService(memoize=False))


def test_sweep_cold(benchmark):
    """Full Figure 3 regeneration with caching disabled: the baseline."""
    result = benchmark(lambda: run(_fresh_model()))
    assert result.comparisons


def test_sweep_warm_cache(benchmark):
    """Regeneration against an already-populated memo cache.

    The assertions cover the measured (warm) passes alone: the populate
    pass is snapshotted away first, so they hold for any round count.
    """
    model = BandwidthModel(service=EvaluationService())
    run(model)  # populate
    stats = model.service.stats
    before = dataclasses.replace(stats)
    calls = 0

    def warm():
        nonlocal calls
        calls += 1
        return run(model)

    result = benchmark(warm)
    hits, misses = stats.hits - before.hits, stats.misses - before.misses
    benchmark.extra_info["hit_rate"] = round(hits / (hits + misses), 3)
    assert misses == 0
    assert hits == calls * before.lookups
    assert result.comparisons
