"""Tests for the twelve machine-checkable insights."""

import pytest

from repro.core import ALL_INSIGHTS, get_insight, verify_all
from repro.memsim import BandwidthModel


@pytest.fixture(scope="module")
def model():
    return BandwidthModel()


class TestRegistry:
    def test_twelve_insights(self):
        assert len(ALL_INSIGHTS) == 12
        assert [i.number for i in ALL_INSIGHTS] == list(range(1, 13))

    def test_lookup(self):
        insight = get_insight(5)
        assert insight.number == 5
        assert "stripe" in insight.statement.lower()

    def test_unknown_number(self):
        with pytest.raises(KeyError):
            get_insight(13)

    def test_sections_match_paper(self):
        # Insights 1-5 come from §3, 6-10 from §4, 11-12 from §5.
        for insight in ALL_INSIGHTS:
            if insight.number <= 5:
                assert insight.section.startswith("3.")
            elif insight.number <= 10:
                assert insight.section.startswith("4.")
            else:
                assert insight.section.startswith("5.")


class TestAllInsightsHold:
    """The headline reproduction claim: every insight is derivable from
    the mechanistic model, none is hard-coded."""

    @pytest.mark.parametrize("number", range(1, 13))
    def test_insight_holds(self, model, number):
        assert get_insight(number).check(model), (
            f"insight #{number} no longer holds in the model: "
            f"{get_insight(number).statement}"
        )

    def test_verify_all_returns_full_map(self, model):
        results = verify_all(model)
        assert set(results) == set(range(1, 13))
        assert all(results.values())

    def test_verify_all_without_a_model(self):
        assert all(verify_all().values())
