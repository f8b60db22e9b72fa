"""End-to-end integration: the README story, executed.

One flow through every layer: model the hardware, derive the practices,
let the tuner and advisor configure a deployment, run the SSB, price it,
plan the hybrid, and check that all the conclusions cohere.
"""

import pytest

from repro import (
    BandwidthModel,
    MediaKind,
    PlacementAdvisor,
    WorkloadIntent,
    paper_server,
    verify_all,
    verify_practices,
)
from repro.core import AccessProfile, economics, tune
from repro.core.hybrid import HybridPlanner, ssb_structures
from repro.memsim import MachineConfig
from repro.memsim.spec import Op
from repro.ssb.runner import SsbRunner, average_slowdown
from repro.ssb.storage import HANDCRAFTED_DRAM, HANDCRAFTED_PMEM, HYBRID_PMEM_DRAM
from repro.units import GIB


@pytest.fixture(scope="module")
def model():
    return BandwidthModel(MachineConfig(paper_server()))


@pytest.fixture(scope="module")
def runner():
    return SsbRunner(measured_sf=0.02, seed=5)


class TestFullStory:
    def test_chapter1_hardware_characterisation(self, model):
        """§3-§5: the device asymmetries exist and the insights hold."""
        read = model.sequential_read(18, 4096)
        write = max(model.sequential_write(t, 4096) for t in (4, 6))
        assert 2.5 < read / write < 4.0  # reads ~3x writes
        assert all(verify_all(model).values())
        assert all(verify_practices(model).values())

    def test_chapter2_the_tuner_rediscovers_the_practices(self, model):
        """The optimal configurations are the recommended ones."""
        write_best = tune(Op.WRITE, model=model).best.spec
        assert write_best.threads in (4, 6)
        assert write_best.access_size == 4096

    def test_chapter3_the_advisor_configures_a_warehouse(self, model):
        recommendation = PlacementAdvisor(model).recommend(
            WorkloadIntent(profile=AccessProfile.JOIN_HEAVY)
        )
        assert recommendation.write_threads <= 8
        assert recommendation.stripe_across_sockets
        assert recommendation.expected_read_gbps > 35

    def test_chapter4_the_ssb_validates_the_design(self, runner):
        """§6: the aware engine keeps PMEM within ~2x of DRAM."""
        fb = runner.figure14b()
        slowdown = average_slowdown(fb["pmem"], fb["dram"])
        assert 1.3 < slowdown < 2.8
        fa = runner.figure14a()
        assert average_slowdown(fa["pmem"], fa["dram"]) > 1.7 * slowdown

    def test_chapter5_the_economics_close_the_argument(self, runner):
        """§7: at the measured slowdown, PMEM wins on price/performance."""
        fb = runner.figure14b()
        slowdown = average_slowdown(fb["pmem"], fb["dram"])
        verdict = economics.compare(capacity=12 * 128 * GIB, slowdown=slowdown)
        assert verdict.pmem_wins

    def test_chapter6_the_hybrid_future_work(self, runner):
        """§9: DRAM for the indexes closes most of the gap."""
        structures = ssb_structures(runner, target_sf=100.0)
        plan = HybridPlanner().plan(structures, dram_budget=48 * GIB)
        assert plan.media_of("lineorder (fact table)") is MediaKind.PMEM
        assert any(
            p.media is MediaKind.DRAM and "index" in p.structure.name
            for p in plan.placements
        )
        pmem = runner.run(HANDCRAFTED_PMEM, target_sf=100).average_seconds
        hybrid = runner.run(HYBRID_PMEM_DRAM, target_sf=100).average_seconds
        dram = runner.run(HANDCRAFTED_DRAM, target_sf=100).average_seconds
        assert hybrid - dram < 0.4 * (pmem - dram)

    def test_chapter7_everything_is_reproducible(self, runner):
        """Same inputs, same story, twice."""
        fb1 = runner.figure14b()
        fb2 = runner.figure14b()
        assert fb1["pmem"].seconds == fb2["pmem"].seconds
