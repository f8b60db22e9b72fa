"""Tests for the seven best practices of paper §7."""

import pytest

from repro.core import (
    BEST_PRACTICES,
    get_practice,
    practices_report,
    verify_practices,
)
from repro.memsim import BandwidthModel, MachineConfig


@pytest.fixture(scope="module")
def model():
    return BandwidthModel()


class TestRegistry:
    def test_seven_practices(self):
        assert len(BEST_PRACTICES) == 7
        assert [p.number for p in BEST_PRACTICES] == list(range(1, 8))

    def test_lookup(self):
        assert get_practice(5).number == 5

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_practice(8)

    def test_every_insight_backs_some_practice(self):
        # Practices 1-6 condense insights 1-12 (practice 7 is the dax
        # recommendation, checked directly).
        covered = {n for p in BEST_PRACTICES for n in p.insight_numbers}
        assert covered == set(range(1, 13))

    def test_practice_statements_match_paper(self):
        assert "4-6" in get_practice(2).statement or "4 – 6" in get_practice(2).statement
        assert "devdax" in get_practice(7).statement


class TestAllPracticesHold:
    @pytest.mark.parametrize("number", range(1, 8))
    def test_practice_holds(self, model, number):
        results = verify_practices(model)
        assert results[number], f"best practice #{number} violated by the model"

    def test_report_renders_all(self, model):
        report = practices_report(model)
        assert report.count("HOLDS") == 7
        assert "VIOLATED" not in report


class TestPracticesAreFalsifiable:
    def test_broken_model_violates_practices(self):
        # The practices framework must be able to *fail*: on a device
        # where reads and writes barely interfere, practice 5 ("avoid
        # mixed workloads") no longer follows.
        import dataclasses

        from repro.memsim.calibration import paper_calibration

        cal = paper_calibration()
        broken = dataclasses.replace(
            cal,
            mixed=dataclasses.replace(
                cal.mixed,
                read_interference_coeff=1e-6,
                write_interference_coeff=1e-6,
            ),
        )
        model = BandwidthModel(MachineConfig(calibration=broken))
        results = verify_practices(model)
        assert not results[5]
