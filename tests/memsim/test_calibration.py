"""Tests for the calibration profile and its validation."""

import dataclasses

import pytest

from repro.errors import CalibrationError
from repro.memsim.calibration import (
    DeviceCalibration,
    DramCalibration,
    PmemCalibration,
    paper_calibration,
)


@pytest.fixture(scope="module")
def cal():
    return paper_calibration()


class TestPaperCalibration:
    def test_validates(self, cal):
        cal.validate()  # must not raise

    def test_pmem_read_write_asymmetry(self, cal):
        # §2.1: reading yields ~3x, writing ~7x less than DRAM — so PMEM
        # writes must be well below PMEM reads.
        assert cal.pmem.seq_write_max < cal.pmem.seq_read_max / 2

    def test_pmem_vs_dram_read_ratio(self, cal):
        # PMEM reads are roughly a third of DRAM's (§2.1).
        ratio = cal.dram.seq_read_max / cal.pmem.seq_read_max
        assert 2.0 < ratio < 3.5

    def test_upi_payload_capacity(self, cal):
        # ~25% of the link is metadata; payload capacity must sit between
        # the paper's quoted ~30 GB/s and the measured 33 GB/s far reads.
        assert 30.0 <= cal.upi.data_per_direction <= 34.0

    def test_far_read_ordering(self, cal):
        p = cal.pmem
        assert p.cold_far_read_max < p.warm_far_read_max < p.seq_read_max

    def test_ssd_is_slowest(self, cal):
        assert cal.ssd.seq_read_max < cal.pmem.seq_write_max

    def test_ssd_footnote_value(self, cal):
        # §6.2 footnote: Intel DC P4610, 3.20 GB/s sequential read.
        assert cal.ssd.seq_read_max == pytest.approx(3.2)


class TestValidationRejectsBadProfiles:
    def _with_pmem(self, cal, **changes):
        return dataclasses.replace(cal, pmem=dataclasses.replace(cal.pmem, **changes))

    def test_negative_bandwidth(self, cal):
        bad = self._with_pmem(cal, seq_read_max=-1.0)
        with pytest.raises(CalibrationError):
            bad.validate()

    def test_pmem_faster_than_dram(self, cal):
        bad = self._with_pmem(cal, seq_read_max=500.0)
        with pytest.raises(CalibrationError):
            bad.validate()

    def test_writes_faster_than_reads(self, cal):
        bad = self._with_pmem(cal, seq_write_max=100.0)
        with pytest.raises(CalibrationError):
            bad.validate()

    def test_cold_far_above_warm_far(self, cal):
        bad = self._with_pmem(cal, cold_far_read_max=35.0)
        with pytest.raises(CalibrationError):
            bad.validate()

    def test_warm_far_above_near(self, cal):
        bad = self._with_pmem(cal, warm_far_read_max=45.0)
        with pytest.raises(CalibrationError):
            bad.validate()

    def test_random_fraction_above_one(self, cal):
        bad = self._with_pmem(cal, random_read_peak_fraction=1.5)
        with pytest.raises(CalibrationError):
            bad.validate()

    def test_fast_ssd_rejected(self, cal):
        bad = dataclasses.replace(
            cal, ssd=dataclasses.replace(cal.ssd, seq_read_max=50.0)
        )
        with pytest.raises(CalibrationError):
            bad.validate()


class TestCustomProfiles:
    def test_alternate_generation_profile_validates(self):
        # A hypothetical faster PMEM generation still validates as long
        # as the orderings hold.
        cal = DeviceCalibration(
            pmem=PmemCalibration(seq_read_max=60.0, warm_far_read_max=50.0,
                                 seq_write_max=25.0, cold_far_read_max=12.0),
            dram=DramCalibration(seq_read_max=200.0),
        )
        cal.validate()

    def test_profiles_are_frozen(self, cal):
        with pytest.raises(dataclasses.FrozenInstanceError):
            cal.pmem.seq_read_max = 99.0
