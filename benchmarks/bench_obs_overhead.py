"""Benchmark: the observability layer's cost, disabled and enabled.

The contract of :class:`repro.obs.NullRecorder` is that the default
(disabled) path costs one attribute load and one branch per emission
site — cheap enough that instrumenting the hot paths was free. Two
measurements back that up on the Figure 3 sweep (the same workload as
``bench_sweep_service.py``):

* ``test_null_recorder_overhead_budget`` bounds the *disabled* cost:
  the measured per-evaluation guard cost, multiplied by the number of
  evaluations in a cold sweep, must stay under 2% of the sweep's wall
  time. This is asserted, not just reported.
* ``test_sweep_cold_with_counters`` times the *enabled* path under a
  :class:`CountersRecorder`, so the report shows what turning metrics
  on actually costs.
"""

from __future__ import annotations

import os
import timeit

import pytest

from repro.memsim import BandwidthModel
from repro.obs import NULL_RECORDER, CountersRecorder, default_recorder, using_recorder
from repro.sweep import EvaluationService, SweepRunner


def _cold_runner() -> SweepRunner:
    return SweepRunner(EvaluationService(memoize=False))


def _guard_seconds_per_evaluation() -> float:
    """Measured cost of the recorder guards one evaluation pays.

    Each evaluation routed through the service performs a
    ``default_recorder()`` lookup plus a handful of ``enabled`` checks
    (service, core, runner); eight iterations per timeit pass
    over-approximates the real count.
    """
    rec = NULL_RECORDER

    def guards() -> None:
        resolved = default_recorder()
        for _ in range(8):
            if resolved is not None and resolved.enabled:
                raise AssertionError("NULL_RECORDER must stay disabled")
        if rec.enabled:
            raise AssertionError("unreachable")

    iterations = 20_000
    return min(timeit.repeat(guards, number=iterations, repeat=5)) / iterations


def test_null_recorder_overhead_budget(fig3_grid):
    """Disabled-recorder guards must cost < 2% of a cold Figure 3 sweep."""
    runner = _cold_runner()
    sweep_seconds = min(
        timeit.repeat(lambda: runner.run(fig3_grid), number=1, repeat=3)
    )
    evaluations = len(list(fig3_grid))
    guard_seconds = _guard_seconds_per_evaluation() * evaluations
    overhead = guard_seconds / sweep_seconds
    if (os.cpu_count() or 1) < 4:
        # Same policy as bench_vector_kernels: wall-clock ratio gates
        # flake on shared small hosts, where this budget hovers right
        # at the 2% line (~0.5 us guards against a ~20 us evaluation).
        pytest.skip(
            f"overhead budget needs >= 4 CPU cores for a stable ratio "
            f"(have {os.cpu_count() or 1}); measured {overhead:.2%}"
        )
    assert overhead < 0.02, (
        f"NullRecorder guards cost {overhead:.2%} of the cold sweep "
        f"({guard_seconds * 1e6:.1f} us over {sweep_seconds * 1e3:.1f} ms)"
    )


def test_sweep_cold_null_recorder(benchmark, fig3_grid):
    """Cold sweep on the shipped default (NullRecorder) path."""
    totals = benchmark(lambda: _cold_runner().run(fig3_grid))
    assert len(totals) == len(list(fig3_grid))


def test_sweep_cold_with_counters(benchmark, fig3_grid):
    """Cold sweep with metrics enabled: the price of a CountersRecorder."""

    def observed():
        rec = CountersRecorder()
        with using_recorder(rec):
            _cold_runner().run(fig3_grid)
        return rec

    rec = benchmark(observed)
    assert rec.counter("sweep.points_count") == len(list(fig3_grid))


def test_model_facade_unaffected(benchmark, model: BandwidthModel):
    """BandwidthModel still answers point queries at full speed."""
    gbps = benchmark(lambda: model.sequential_read(36, 4096))
    assert gbps > 0.0
