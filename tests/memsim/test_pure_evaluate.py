"""The pure core: evaluate() is a function of its three arguments."""

from repro.memsim import DirectoryState, Op, StreamSpec, evaluate, paper_config
from repro.memsim.bandwidth import BandwidthModel

FAR_READ = StreamSpec(
    op=Op.READ, threads=8, access_size=4096, issuing_socket=0, target_socket=1
)
FAR_WRITE = StreamSpec(
    op=Op.WRITE, threads=8, access_size=4096, issuing_socket=0, target_socket=1
)
NEAR_READ = StreamSpec(op=Op.READ, threads=18, access_size=4096)


class TestPurity:
    def test_repeated_calls_bit_identical(self):
        config = paper_config()
        for streams in ((NEAR_READ,), (FAR_READ,), (FAR_WRITE, NEAR_READ)):
            first = evaluate(config, streams, DirectoryState.cold())
            second = evaluate(config, streams, DirectoryState.cold())
            assert first.total_gbps == second.total_gbps
            assert [s.gbps for s in first.streams] == [s.gbps for s in second.streams]

    def test_inputs_not_mutated(self):
        config = paper_config()
        state = DirectoryState.cold()
        evaluate(config, (FAR_READ,), state)
        assert state == DirectoryState.cold()
        assert config == paper_config()

    def test_directory_argument_changes_result(self):
        config = paper_config()
        cold = evaluate(config, (FAR_READ,), DirectoryState.cold())
        warm = evaluate(config, (FAR_READ,), DirectoryState.warm(config.topology))
        assert cold.total_gbps < warm.total_gbps

    def test_default_directory_is_cold(self):
        config = paper_config()
        assert (
            evaluate(config, (FAR_READ,)).total_gbps
            == evaluate(config, (FAR_READ,), DirectoryState.cold()).total_gbps
        )


class TestDirectoryAfter:
    def test_far_read_warms_its_pair(self):
        config = paper_config()
        result = evaluate(config, (FAR_READ,), DirectoryState.cold())
        assert result.directory_after.warm_pairs == {(0, 1)}

    def test_far_write_also_warms(self):
        config = paper_config()
        result = evaluate(config, (FAR_WRITE,), DirectoryState.cold())
        assert result.directory_after.warm_pairs == {(0, 1)}

    def test_near_stream_leaves_state_unchanged(self):
        config = paper_config()
        result = evaluate(config, (NEAR_READ,), DirectoryState.cold())
        assert result.directory_after == DirectoryState.cold()

    def test_second_evaluation_from_after_state_runs_warm(self):
        config = paper_config()
        first = evaluate(config, (FAR_READ,), DirectoryState.cold())
        second = evaluate(config, (FAR_READ,), first.directory_after)
        assert second.total_gbps > first.total_gbps


class TestFacadeEquivalence:
    def test_facade_matches_pure_core(self):
        model = BandwidthModel()
        pure_cold = evaluate(model.config, (FAR_READ,), DirectoryState.cold())
        facade_cold = model.evaluate([FAR_READ])
        assert facade_cold.total_gbps == pure_cold.total_gbps
        # The model keeps no state: the warm run is chained explicitly.
        pure_warm = evaluate(model.config, (FAR_READ,), pure_cold.directory_after)
        facade_warm = model.evaluate([FAR_READ], facade_cold.directory_after)
        assert facade_warm.total_gbps == pure_warm.total_gbps
        assert model.evaluate([FAR_READ]).total_gbps == pure_cold.total_gbps

    def test_result_copy_isolates_counters(self):
        result = evaluate(paper_config(), (NEAR_READ,), DirectoryState.cold())
        clone = result.copy()
        clone.counters.note("mutated clone")
        assert "mutated clone" not in result.counters.notes
        assert clone.streams is result.streams
