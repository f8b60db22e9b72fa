"""Tests for the mixed read/write discrete-event replay (§5.1).

The interference must *emerge* from the shared DIMM servers: write
fragments occupy a DIMM ~3x longer per byte, so reads queue behind them.
"""

import pytest

from repro.errors import WorkloadError
from repro.memsim import BandwidthModel
from repro.memsim.engine.simulator import (
    EngineConfig,
    MixedEngineConfig,
    simulate,
    simulate_mixed,
)
from repro.memsim.spec import Op
from repro.units import MIB


def _mixed(write_threads, read_threads, **kwargs):
    return simulate_mixed(
        MixedEngineConfig(
            read_threads=read_threads,
            write_threads=write_threads,
            bytes_per_side=kwargs.pop("bytes_per_side", 12 * MIB),
            **kwargs,
        )
    )


class TestValidation:
    def test_needs_threads_on_both_sides(self):
        with pytest.raises(WorkloadError):
            MixedEngineConfig(read_threads=0, write_threads=1)

    def test_volume_check(self):
        with pytest.raises(WorkloadError):
            MixedEngineConfig(
                read_threads=8, write_threads=8, bytes_per_side=4096
            )


class TestEmergentInterference:
    def test_writers_slow_readers(self):
        alone = simulate(
            EngineConfig(op=Op.READ, threads=18, access_size=4096, total_bytes=12 * MIB)
        ).gbps
        contended = _mixed(write_threads=6, read_threads=18).read_gbps
        assert contended < 0.8 * alone

    def test_single_reader_barely_dents_saturated_writers(self):
        alone = simulate(
            EngineConfig(op=Op.WRITE, threads=4, access_size=4096, total_bytes=12 * MIB)
        ).gbps
        contended = _mixed(write_threads=4, read_threads=1).write_gbps
        assert contended > 0.85 * alone

    def test_more_writers_hurt_reads_more(self):
        one = _mixed(write_threads=1, read_threads=18).read_gbps
        six = _mixed(write_threads=6, read_threads=18).read_gbps
        assert six < one

    def test_combined_below_read_max(self):
        result = _mixed(write_threads=6, read_threads=18)
        read_max = BandwidthModel().config.calibration.pmem.seq_read_max
        assert result.total_gbps <= read_max * 1.02

    def test_deterministic(self):
        a = _mixed(write_threads=4, read_threads=8)
        b = _mixed(write_threads=4, read_threads=8)
        assert a.seconds == b.seconds
        assert a.read_bytes == b.read_bytes


class TestAgreementWithAnalyticModel:
    @pytest.mark.parametrize("writers,readers", [(1, 30), (4, 8), (6, 18)])
    def test_directional_agreement(self, writers, readers):
        des = _mixed(write_threads=writers, read_threads=readers)
        analytic = BandwidthModel().mixed(
            write_threads=writers, read_threads=readers
        )
        # Coarse replay: agree within a 2.2x band on both sides and on
        # which side carries more bandwidth.
        assert des.read_gbps == pytest.approx(analytic.read_gbps, rel=1.2)
        assert des.write_gbps == pytest.approx(analytic.write_gbps, rel=1.2)
        assert (des.read_gbps > des.write_gbps) == (
            analytic.read_gbps > analytic.write_gbps
        )
