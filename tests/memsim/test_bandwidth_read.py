"""Sequential-read bandwidth tests (paper §3, Figures 3-5).

These tests encode the *shapes* of the paper's read figures: peak
locations, orderings, and ratio bands. Absolute values are checked only
against the calibration anchors the model was fitted to.
"""

import dataclasses

import pytest

from repro.memsim import (
    BandwidthModel,
    DaxMode,
    DirectoryState,
    Layout,
    MachineConfig,
    MediaKind,
    Op,
    PinningPolicy,
    StreamSpec,
)


def far_read(threads):
    return StreamSpec(op=Op.READ, threads=threads, issuing_socket=0, target_socket=1)


@pytest.fixture
def model():
    return BandwidthModel()


class TestFig3AccessSize:
    def test_grouped_peaks_at_4k(self, model):
        sizes = [64, 256, 512, 1024, 2048, 4096, 16384, 65536]
        curve = {
            s: model.sequential_read(36, s, layout=Layout.GROUPED) for s in sizes
        }
        assert max(curve, key=curve.get) == 4096

    def test_grouped_peak_near_40(self, model):
        peak = model.sequential_read(36, 4096, layout=Layout.GROUPED)
        assert peak == pytest.approx(40.0, rel=0.05)

    def test_grouped_64b_collapses(self, model):
        # Fig. 3a: grouped 64 B at 36 threads lands around 12 GB/s
        # because the window keeps barely two DIMMs busy.
        small = model.sequential_read(36, 64, layout=Layout.GROUPED)
        assert 8.0 < small < 15.0

    def test_prefetcher_dip_at_1k_2k(self, model):
        # The 1-2 KB dip of Fig. 3a.
        b512 = model.sequential_read(36, 512, layout=Layout.GROUPED)
        b1k = model.sequential_read(36, 1024, layout=Layout.GROUPED)
        b2k = model.sequential_read(36, 2048, layout=Layout.GROUPED)
        b4k = model.sequential_read(36, 4096, layout=Layout.GROUPED)
        assert b1k < b512
        assert b2k < b4k

    def test_disabling_prefetcher_removes_dip(self):
        model = BandwidthModel(MachineConfig(prefetcher_enabled=False))
        b1k = model.sequential_read(36, 1024, layout=Layout.GROUPED)
        b2k = model.sequential_read(36, 2048, layout=Layout.GROUPED)
        b4k = model.sequential_read(36, 4096, layout=Layout.GROUPED)
        assert b1k >= 0.9 * b4k
        assert b2k >= 0.9 * b4k

    def test_individual_access_flat_in_size(self, model):
        # Fig. 3b: individual access bandwidth is nearly size-independent
        # at high thread counts ("the maximum individual spans only 3 GB").
        values = [model.sequential_read(18, s) for s in (64, 256, 1024, 4096, 65536)]
        assert max(values) - min(values) < 4.0

    def test_individual_small_reads_stay_fast(self, model):
        # Sub-line sequential reads are served from the 256 B buffer: 30+
        # GB/s even at 64 B (§3.1).
        assert model.sequential_read(18, 64) > 30.0

    def test_bandwidth_constant_beyond_64k(self, model):
        b64k = model.sequential_read(36, 65536, layout=Layout.GROUPED)
        b1m = model.sequential_read(36, 1 << 20, layout=Layout.GROUPED)
        assert b64k == pytest.approx(b1m, rel=0.01)


class TestFig3ThreadCount:
    def test_peak_at_16_to_18_threads(self, model):
        curve = {t: model.sequential_read(t, 4096) for t in (1, 4, 8, 16, 18, 24, 36)}
        peak_threads = max(curve, key=curve.get)
        assert peak_threads in (16, 18, 36)
        assert curve[18] == pytest.approx(40.0, rel=0.05)

    def test_8_threads_within_15_percent_of_peak(self, model):
        # §3.2: "as few as 8 threads achieves nearly as much bandwidth
        # as 36 threads (~15% difference)".
        b8 = model.sequential_read(8, 4096)
        b36 = model.sequential_read(36, 4096)
        assert b8 >= 0.82 * b36

    def test_hyperthreads_do_not_improve_reads(self, model):
        # §3.2: "adding hyperthreads does not improve the bandwidth";
        # 24 threads even dip below the 18-thread peak (Fig. 4).
        b18 = model.sequential_read(18, 4096)
        b24 = model.sequential_read(24, 4096)
        assert b24 <= b18

    def test_monotone_up_to_core_count(self, model):
        values = [model.sequential_read(t, 4096) for t in (1, 2, 4, 8, 12, 16, 18)]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_disabled_prefetcher_restores_36_thread_peak(self):
        # §3.2: with the prefetcher disabled, 36 threads also reach ~40.
        model = BandwidthModel(MachineConfig(prefetcher_enabled=False))
        assert model.sequential_read(36, 4096) == pytest.approx(40.0, rel=0.05)


class TestFig4Pinning:
    def test_pinning_order(self, model):
        # Cores >= NUMA >> None, at every thread count.
        for threads in (4, 8, 18, 24, 36):
            cores = model.sequential_read(threads, 4096, pinning=PinningPolicy.CORES)
            numa = model.sequential_read(
                threads, 4096, pinning=PinningPolicy.NUMA_REGION
            )
            none = model.sequential_read(threads, 4096, pinning=PinningPolicy.NONE)
            assert cores >= numa >= none

    def test_unpinned_peak_near_9(self, model):
        peak = max(
            model.sequential_read(t, 4096, pinning=PinningPolicy.NONE)
            for t in (1, 4, 8, 18, 24, 36)
        )
        assert peak == pytest.approx(9.0, rel=0.15)

    def test_unpinned_is_4x_worse(self, model):
        # §4.3: "no pinning is 4x worse for reading".
        pinned = model.sequential_read(18, 4096)
        unpinned = model.sequential_read(18, 4096, pinning=PinningPolicy.NONE)
        assert pinned / unpinned > 3.5

    def test_numa_equals_cores_below_core_count(self, model):
        for threads in (1, 8, 18):
            cores = model.sequential_read(threads, 4096)
            numa = model.sequential_read(
                threads, 4096, pinning=PinningPolicy.NUMA_REGION
            )
            assert numa == pytest.approx(cores)


class TestFig5NumaEffects:
    def test_near_peak(self, model):
        assert model.sequential_read(18, 4096) == pytest.approx(40.0, rel=0.05)

    def test_cold_far_is_5x_worse(self, model):
        cold = model.sequential_read(18, 4096, far=True, warm=False)
        near = model.sequential_read(18, 4096)
        assert near / cold >= 4.5

    def test_cold_far_optimum_shifts_to_4_threads(self, model):
        curve = {}
        for t in (1, 4, 8, 18, 36):
            curve[t] = model.sequential_read(t, 4096, far=True, warm=False)
        assert max(curve, key=curve.get) == 4

    def test_warm_far_reaches_33(self, model):
        warm = model.sequential_read(18, 4096, far=True, warm=True)
        assert warm == pytest.approx(33.0, rel=0.05)

    def test_second_run_is_warm(self, model):
        # The first run's directory_after remembers the traversal: chaining
        # it into a re-evaluation of the same far stream jumps from ~8 to ~33 GB/s (Fig. 5 "2nd Far").
        first = model.evaluate([far_read(18)], DirectoryState.cold())
        second = model.evaluate([far_read(18)], first.directory_after)
        assert second.total_gbps > 3 * first.total_gbps

    def test_single_thread_priming_warms_the_pair(self, model):
        # §3.4: a single-threaded far read eliminates the multi-threaded
        # first-run penalty, because any traversal warms the pair.
        cold = model.evaluate([far_read(18)], DirectoryState.cold()).total_gbps
        priming = model.evaluate([far_read(1)], DirectoryState.cold())
        primed = model.evaluate([far_read(18)], priming.directory_after)
        assert primed.total_gbps > 3 * cold


class TestModelHandle:
    def test_fields_are_config_and_service(self):
        assert [f.name for f in dataclasses.fields(BandwidthModel)] == [
            "config", "service",
        ]

    def test_frozen(self, model):
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.config = MachineConfig()

    def test_repeated_cold_far_reads_agree(self, model):
        # The model keeps no directory state: a cold far read does not
        # warm the next one.
        first = model.sequential_read(18, 4096, far=True, warm=False)
        assert model.sequential_read(18, 4096, far=True, warm=False) == first


class TestDaxModes:
    def test_fsdax_is_5_to_10_percent_slower(self, model):
        devdax = model.sequential_read(18, 4096)
        fsdax = model.sequential_read(18, 4096, dax_mode=DaxMode.FSDAX)
        ratio = devdax / fsdax
        assert 1.04 < ratio < 1.12

    def test_prefaulted_fsdax_matches_devdax(self, model):
        # §2.3: identical performance once all pages were pre-faulted.
        devdax = model.sequential_read(18, 4096)
        fsdax = model.sequential_read(
            18, 4096, dax_mode=DaxMode.FSDAX, prefaulted=True
        )
        assert fsdax == pytest.approx(devdax)

    def test_dram_ignores_dax_mode(self, model):
        a = model.sequential_read(18, 4096, media=MediaKind.DRAM)
        b = model.sequential_read(
            18, 4096, media=MediaKind.DRAM, dax_mode=DaxMode.FSDAX
        )
        assert a == b


class TestDramContrast:
    def test_dram_read_peak_near_100(self, model):
        assert model.sequential_read(18, 4096, media=MediaKind.DRAM) == pytest.approx(
            100.0, rel=0.05
        )

    def test_dram_prefetch_dip_exists_too(self, model):
        # §3.1: the 1-2 KB anomaly "is not a PMEM-specific anomaly".
        b1k = model.sequential_read(36, 1024, media=MediaKind.DRAM, layout=Layout.GROUPED)
        b4k = model.sequential_read(36, 4096, media=MediaKind.DRAM, layout=Layout.GROUPED)
        assert b1k < 0.8 * b4k

    def test_pmem_reads_about_a_third_of_dram(self, model):
        pmem = model.sequential_read(18, 4096)
        dram = model.sequential_read(18, 4096, media=MediaKind.DRAM)
        assert 0.3 < pmem / dram < 0.5
