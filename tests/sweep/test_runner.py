"""SweepRunner: backends, interleaved, and cached runs are bit-identical."""

import pytest

from repro.errors import BackendError, SimulationError, SweepError
from repro.memsim import DirectoryState, MachineConfig, Op, StreamSpec, paper_config
from repro.sweep import EvaluationService, SweepRunner
from repro.workloads.grids import SweepGrid, SweepPoint


def make_grid(name: str = "grid", threads=(1, 2, 4, 8, 18, 24, 36)) -> SweepGrid:
    points = []
    for t in threads:
        for op in (Op.READ, Op.WRITE):
            points.append(
                SweepPoint(
                    label=f"{op.value}-{t}",
                    params={"threads": t, "op": op.value},
                    streams=(StreamSpec(op=op, threads=t, access_size=4096),),
                )
            )
    for t in threads:
        points.append(
            SweepPoint(
                label=f"far-{t}",
                params={"threads": t, "op": "far"},
                streams=(
                    StreamSpec(
                        op=Op.READ, threads=t, access_size=4096,
                        issuing_socket=0, target_socket=1,
                    ),
                ),
            )
        )
    return SweepGrid(name=name, points=tuple(points))


class TestBackendChoice:
    def test_vector_is_the_default(self):
        assert SweepRunner().backend == "vector"

    def test_removed_backend_rejected_naming_valid_set(self):
        with pytest.raises(BackendError) as excinfo:
            SweepRunner(backend="thread")
        assert excinfo.value.valid == ("serial", "vector", "cluster")


class TestParallelism:
    def test_vector_bit_identical_to_serial(self):
        grid = make_grid()
        serial = SweepRunner(
            EvaluationService(memoize=False), backend="serial"
        ).run(grid)
        vector = SweepRunner(
            EvaluationService(memoize=False), backend="vector"
        ).run(grid)
        assert list(serial) == list(vector)  # same labels, same order
        for label in serial:
            assert serial[label].total_gbps == vector[label].total_gbps
            assert serial[label].counters == vector[label].counters
            assert serial[label].directory_after == vector[label].directory_after

    def test_runners_share_one_memo_cache(self):
        service = EvaluationService()
        grid = make_grid()
        SweepRunner(service, backend="serial").run(grid)
        SweepRunner(service, backend="vector").run(grid)
        assert service.stats.hits >= len(grid)

    def test_results_keyed_and_ordered_by_label(self):
        grid = make_grid(threads=(1, 4))
        results = SweepRunner(EvaluationService()).run(grid)
        assert list(results) == grid.labels()

    def test_totals_match_run(self):
        grid = make_grid(threads=(1, 4))
        runner = SweepRunner(EvaluationService())
        assert runner.totals(grid) == {
            label: result.total_gbps for label, result in runner.run(grid).items()
        }


class TestIsolation:
    def test_interleaved_sweeps_match_isolated(self):
        """Running two sweeps point-by-point interleaved must equal
        running each alone: no evaluation can leak state into the next."""
        config = paper_config()
        ablated = MachineConfig(prefetcher_enabled=False)
        warm = DirectoryState.warm(config.topology)
        grid = make_grid(threads=(1, 8, 36))

        alone = EvaluationService(memoize=False)
        expected_a = [
            alone.evaluate(config, p.streams, warm).total_gbps for p in grid
        ]
        expected_b = [
            alone.evaluate(ablated, p.streams, warm).total_gbps for p in grid
        ]

        mixed = EvaluationService()
        got_a, got_b = [], []
        for point in grid:  # interleave the two sweeps on one service
            got_a.append(mixed.evaluate(config, point.streams, warm).total_gbps)
            got_b.append(mixed.evaluate(ablated, point.streams, warm).total_gbps)
        assert got_a == expected_a
        assert got_b == expected_b

    def test_every_point_sees_the_same_directory(self):
        """Grid order must not matter: a far point early in the grid does
        not warm the directory for a far point later in the grid."""
        grid = make_grid(threads=(4,))
        reversed_grid = SweepGrid(name="rev", points=tuple(reversed(grid.points)))
        runner = SweepRunner(EvaluationService())
        forward = runner.totals(grid, directory=DirectoryState.cold())
        backward = runner.totals(reversed_grid, directory=DirectoryState.cold())
        assert forward == backward


def poisoned_grid() -> SweepGrid:
    """A grid whose middle point references a socket that does not exist.

    The spec constructs fine — the failure only surfaces inside
    ``evaluate``, which is exactly the case where a bare worker
    traceback would not say which point was at fault.
    """
    good = StreamSpec(op=Op.READ, threads=4, access_size=4096)
    bad = StreamSpec(op=Op.READ, threads=4, access_size=4096, target_socket=9)
    return SweepGrid(
        name="poisoned",
        points=(
            SweepPoint(label="ok-before", params={}, streams=(good,)),
            SweepPoint(label="bad-socket-9", params={}, streams=(bad,)),
            SweepPoint(label="ok-after", params={}, streams=(good.with_(threads=8),)),
        ),
    )


class TestPoisonedPoint:
    @pytest.mark.parametrize(
        "backend", ["serial", "cluster"], ids=["serial", "parallel"]
    )
    def test_error_names_grid_and_point(self, backend):
        runner = SweepRunner(EvaluationService(memoize=False), backend=backend)
        with pytest.raises(SweepError) as excinfo:
            runner.run(poisoned_grid())
        message = str(excinfo.value)
        assert "'poisoned'" in message
        assert "'bad-socket-9'" in message

    def test_original_exception_is_chained(self):
        runner = SweepRunner(EvaluationService(memoize=False), backend="serial")
        with pytest.raises(SweepError) as excinfo:
            runner.run(poisoned_grid())
        cause = excinfo.value.__cause__
        assert cause is not None
        assert "socket" in str(cause)

    def test_sweep_error_is_a_simulation_error(self):
        # Callers already catching SimulationError keep working.
        assert issubclass(SweepError, SimulationError)
