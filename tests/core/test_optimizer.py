"""Tests for the configuration tuner."""

import pytest

from repro.core import TuningSpace, tune, tuned_matches_best_practices
from repro.errors import ConfigurationError
from repro.memsim import BandwidthModel, Layout, PinningPolicy
from repro.memsim.spec import Op, Pattern


@pytest.fixture(scope="module")
def model():
    return BandwidthModel()


class TestTuningSpace:
    def test_size(self):
        space = TuningSpace(
            access_sizes=(64, 4096),
            thread_counts=(1, 18),
            layouts=(Layout.INDIVIDUAL,),
            pinnings=(PinningPolicy.CORES,),
        )
        assert space.size == 4

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            TuningSpace(access_sizes=())


class TestTune:
    def test_read_optimum_saturates_device(self, model):
        result = tune(Op.READ, model=model)
        assert result.best_gbps == pytest.approx(40.0, rel=0.02)

    def test_write_optimum_matches_paper(self, model):
        # The tuner must rediscover the paper's "4-6 threads, 4 KB" rule.
        result = tune(Op.WRITE, model=model)
        assert result.best.spec.threads in (4, 6)
        assert result.best.spec.access_size == 4096
        assert result.best_gbps == pytest.approx(13.2, rel=0.05)

    def test_optima_obey_best_practices(self, model):
        assert tuned_matches_best_practices(tune(Op.READ, model=model))
        assert tuned_matches_best_practices(tune(Op.WRITE, model=model))

    def test_unpinned_never_optimal(self, model):
        space = TuningSpace(
            pinnings=(PinningPolicy.NONE, PinningPolicy.CORES),
        )
        result = tune(Op.READ, model=model, space=space)
        assert result.best.spec.pinning is PinningPolicy.CORES

    def test_candidates_enumerated(self, model):
        space = TuningSpace(
            access_sizes=(4096,),
            thread_counts=(4, 18),
            layouts=(Layout.INDIVIDUAL,),
            pinnings=(PinningPolicy.CORES,),
        )
        result = tune(Op.READ, model=model, space=space)
        assert len(result.candidates) == space.size

    def test_top_sorted_descending(self, model):
        result = tune(Op.WRITE, model=model)
        top = result.top(5)
        assert len(top) == 5
        assert all(a.gbps >= b.gbps for a, b in zip(top, top[1:]))

    def test_random_pattern_tuning(self, model):
        result = tune(
            Op.READ,
            model=model,
            space=TuningSpace(
                access_sizes=(64, 256, 4096),
                thread_counts=(4, 36),
                layouts=(Layout.INDIVIDUAL,),
                pinnings=(PinningPolicy.CORES,),
            ),
            pattern=Pattern.RANDOM,
        )
        # Insight 12: largest access wins for random workloads.
        assert result.best.spec.access_size == 4096

    def test_spec_overrides_fix_fields(self, model):
        result = tune(
            Op.READ,
            model=model,
            space=TuningSpace(
                access_sizes=(4096,),
                thread_counts=(18,),
                layouts=(Layout.INDIVIDUAL,),
                pinnings=(PinningPolicy.NUMA_REGION,),
            ),
            issuing_socket=0,
            target_socket=1,
        )
        # Far reads are UPI-bound: the optimum reflects the override.
        assert result.best_gbps == pytest.approx(33.0, rel=0.05)
