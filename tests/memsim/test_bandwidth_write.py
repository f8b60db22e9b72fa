"""Sequential-write bandwidth tests (paper §4, Figures 7-10)."""

import pytest

from repro.memsim import (
    BandwidthModel,
    DirectoryState,
    Layout,
    MachineConfig,
    MediaKind,
    Op,
    PinningPolicy,
    StreamSpec,
)


@pytest.fixture
def model():
    return BandwidthModel()


class TestFig7AccessSize:
    def test_global_maximum_at_4k(self, model):
        sizes = [64, 256, 1024, 4096, 16384, 65536, 1 << 25]
        threads = [1, 2, 4, 6, 8, 18, 24, 36]
        best = max(
            ((model.sequential_write(t, s, layout=lay), s)
             for t in threads for s in sizes
             for lay in (Layout.GROUPED, Layout.INDIVIDUAL)),
        )
        assert best[1] == 4096
        assert best[0] == pytest.approx(13.2, rel=0.06)

    def test_grouped_64b_vs_individual_64b(self, model):
        # §4.1: 2.6 vs 9.6 GB/s with 64 B and 36 threads.
        grouped = model.sequential_write(36, 64, layout=Layout.GROUPED)
        individual = model.sequential_write(36, 64)
        assert individual > 3 * grouped
        assert individual == pytest.approx(9.6, rel=0.1)

    def test_256b_secondary_peak(self, model):
        # All thread counts above 18 achieve ~10 GB/s at 256 B.
        for threads in (18, 24, 36):
            bw = model.sequential_write(threads, 256)
            assert 8.0 < bw < 13.0

    def test_high_thread_counts_decay_beyond_256b(self, model):
        # §4.2: ">18 threads ... decreases significantly, stabilizing at
        # around 5-6 GB/s" for access sizes beyond the 256 B peak.
        plateau = model.sequential_write(36, 65536)
        assert 4.5 < plateau < 7.0
        assert plateau < model.sequential_write(36, 256)

    def test_counterintuitive_rule(self, model):
        # "The higher the thread count, the lower the access size must
        # be" for peak bandwidth.
        best_size_36 = max(
            (64, 256, 1024, 4096, 16384),
            key=lambda s: model.sequential_write(36, s),
        )
        best_size_4 = max(
            (64, 256, 1024, 4096, 16384),
            key=lambda s: model.sequential_write(4, s),
        )
        assert best_size_36 < best_size_4


class TestFig8Boomerang:
    def test_few_threads_hold_peak_at_any_size(self, model):
        # Bottom edge of the boomerang: 4-6 threads keep >10 GB/s out to
        # 32 MB accesses.
        for size in (4096, 65536, 1 << 25):
            assert model.sequential_write(4, size) > 10.0
            assert model.sequential_write(6, size) > 10.0

    def test_many_threads_hold_peakish_at_small_sizes(self, model):
        # Top-left edge: high thread counts tolerate small accesses.
        assert model.sequential_write(36, 256) > 8.0

    def test_scaling_both_axes_collapses(self, model):
        # Scaling threads AND size together is the failure mode.
        assert model.sequential_write(36, 65536) < 7.0

    def test_eight_threads_drop_beyond_4k(self, model):
        # Fig. 7a: the 8-thread configuration peaks at 4 KB then drops
        # to ~8 GB/s.
        at_4k = model.sequential_write(8, 4096)
        at_16k = model.sequential_write(8, 16384)
        assert at_4k > at_16k
        assert at_16k == pytest.approx(8.5, rel=0.15)

    def test_write_combining_ablation(self):
        # Without the combining buffer every store is a read-modify-write
        # and even the friendly configurations collapse.
        on = BandwidthModel()
        off = BandwidthModel(MachineConfig(write_combining_enabled=False))
        assert off.sequential_write(4, 4096) < 0.5 * on.sequential_write(4, 4096)


class TestFig7ThreadCount:
    def test_4_to_6_threads_saturate(self, model):
        # §4.2: "4 threads are sufficient to fully saturate the PMEM
        # bandwidth".
        b4 = model.sequential_write(4, 4096)
        b6 = model.sequential_write(6, 4096)
        assert b4 > 12.0
        assert b6 >= b4 * 0.95

    def test_more_threads_harm_large_writes(self, model):
        b6 = model.sequential_write(6, 16384)
        b18 = model.sequential_write(18, 16384)
        b36 = model.sequential_write(36, 16384)
        assert b6 > b18 >= b36

    def test_small_writes_tolerate_many_threads(self, model):
        # §4.2: strictly-sequential small writes are not harmed severely.
        b18 = model.sequential_write(18, 256)
        b36 = model.sequential_write(36, 256)
        assert b36 >= 0.8 * b18

    def test_single_thread_rate(self, model):
        # Per-thread write rate anchor: ~3.2 GB/s at 4 KB.
        assert model.sequential_write(1, 4096) == pytest.approx(3.16, rel=0.05)


class TestFig9WritePinning:
    def test_pinning_order(self, model):
        for threads in (4, 8, 18, 36):
            cores = model.sequential_write(threads, 4096)
            numa = model.sequential_write(
                threads, 4096, pinning=PinningPolicy.NUMA_REGION
            )
            none = model.sequential_write(threads, 4096, pinning=PinningPolicy.NONE)
            assert cores >= numa > none

    def test_unpinned_writes_2x_worse(self, model):
        # Fig. 9: ~7 vs ~13 GB/s peaks.
        pinned_peak = max(model.sequential_write(t, 4096) for t in (4, 6, 8))
        unpinned_peak = max(
            model.sequential_write(t, 4096, pinning=PinningPolicy.NONE)
            for t in (4, 6, 8)
        )
        assert pinned_peak / unpinned_peak == pytest.approx(2.0, rel=0.2)

    def test_unpinned_less_harmful_than_for_reads(self, model):
        # §4.3: "no pinning is 2x worse for writing ... 4x worse for
        # reading".
        read_ratio = model.sequential_read(18, 4096) / model.sequential_read(
            18, 4096, pinning=PinningPolicy.NONE
        )
        write_ratio = model.sequential_write(8, 4096) / model.sequential_write(
            8, 4096, pinning=PinningPolicy.NONE
        )
        assert read_ratio > write_ratio


class TestFig10FarWrites:
    def test_far_write_peak_around_7(self, model):
        peak = max(model.sequential_write(t, 4096, far=True) for t in (4, 6, 8, 18))
        assert peak == pytest.approx(7.0, rel=0.1)

    def test_far_needs_more_threads_than_near(self, model):
        # §4.4: 6-8 threads to peak far vs 4 near.
        near_curve = {t: model.sequential_write(t, 4096) for t in (2, 4, 6, 8, 18)}
        far_curve = {t: model.sequential_write(t, 4096, far=True) for t in (2, 4, 6, 8, 18)}
        near_best = min(t for t, v in near_curve.items() if v >= 0.99 * max(near_curve.values()))
        far_best = min(t for t, v in far_curve.items() if v >= 0.99 * max(far_curve.values()))
        assert far_best > near_best

    def test_far_write_at_most_half_of_near(self, model):
        # §4.5: far writes reach at most 50% of near bandwidth.
        near = max(model.sequential_write(t, 4096) for t in (4, 6, 8))
        far = max(model.sequential_write(t, 4096, far=True) for t in (4, 6, 8, 18))
        assert far <= 0.6 * near

    def test_no_warmup_for_writes(self, model):
        # §4.4: "Unlike reading, we do not observe any warm-up effect".
        spec = StreamSpec(op=Op.WRITE, threads=8, issuing_socket=0, target_socket=1)
        first = model.evaluate([spec], DirectoryState.cold())
        second = model.evaluate([spec], first.directory_after)
        assert first.total_gbps == pytest.approx(second.total_gbps)


class TestDramWrites:
    def test_dram_writes_scale_with_threads(self, model):
        # §4.2: DRAM keeps gaining with more threads.
        values = [
            model.sequential_write(t, 4096, media=MediaKind.DRAM)
            for t in (1, 4, 8, 18)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_dram_no_large_access_decay(self, model):
        b4k = model.sequential_write(18, 4096, media=MediaKind.DRAM)
        b1m = model.sequential_write(18, 1 << 20, media=MediaKind.DRAM)
        assert b1m >= 0.95 * b4k

    def test_pmem_writes_about_a_seventh_of_dram(self, model):
        # §2.1: "writing a seventh of the bandwidth of DRAM".
        pmem = model.sequential_write(6, 4096)
        dram = model.sequential_write(18, 4096, media=MediaKind.DRAM)
        assert 4.0 < dram / pmem < 8.0
