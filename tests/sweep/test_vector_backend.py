"""The vector sweep backend is bit-identical to serial, errors included.

``backend="vector"`` routes whole grids through the batched kernels, so
beyond result equality these tests pin the operational contract: cache
statistics and recorder counters account every point exactly as the
serial path does, a grid-primed memo cache services later per-point
calls, and failures name the grid and point label.
"""

import pytest

from repro.errors import GridPointError, SweepError
from repro.memsim import (
    DaxMode,
    DirectoryState,
    Op,
    Pattern,
    PinningPolicy,
    StreamSpec,
    paper_config,
)
from repro.obs import CountersRecorder
from repro.sweep import EvaluationService, SweepRunner
from repro.workloads.grids import SweepGrid, SweepPoint


def make_grid(name: str = "grid", threads=(1, 4, 8, 18, 36)) -> SweepGrid:
    """Eligible sequential points plus far-socket fallback points."""
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
        points.append(
            SweepPoint(
                label=f"far-{t}",
                params={"threads": t, "op": "far"},
                streams=(
                    StreamSpec(
                        op=Op.READ, threads=t, access_size=64,
                        issuing_socket=0, target_socket=1,
                    ),
                ),
            )
        )
    return SweepGrid(name=name, points=tuple(points))


def poisoned_grid() -> SweepGrid:
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


def assert_runs_identical(serial, vector):
    assert list(serial) == list(vector)
    for label in serial:
        assert serial[label].total_gbps == vector[label].total_gbps
        assert serial[label].counters == vector[label].counters
        assert serial[label].directory_after == vector[label].directory_after
        assert serial[label] == vector[label]


class TestBitIdentity:
    def test_vector_matches_serial(self):
        grid = make_grid()
        serial = SweepRunner(
            EvaluationService(memoize=False), backend="serial"
        ).run(grid)
        vector = SweepRunner(
            EvaluationService(memoize=False), backend="vector"
        ).run(grid)
        assert_runs_identical(serial, vector)

    def test_vector_matches_serial_with_warm_directory(self):
        config = paper_config()
        warm = DirectoryState.warm(config.topology)
        grid = make_grid()
        serial = SweepRunner(
            EvaluationService(memoize=False), backend="serial"
        ).run(grid, config=config, directory=warm)
        vector = SweepRunner(
            EvaluationService(memoize=False), backend="vector"
        ).run(grid, config=config, directory=warm)
        assert_runs_identical(serial, vector)


class TestCacheInterop:
    def test_stats_account_every_point(self):
        service = EvaluationService()
        grid = make_grid()
        SweepRunner(service, backend="vector").run(grid)
        assert service.stats.misses == len(grid)
        assert service.stats.hits == 0
        SweepRunner(service, backend="vector").run(grid)
        assert service.stats.misses == len(grid)
        assert service.stats.hits == len(grid)

    def test_grid_primed_memo_services_per_point_calls(self):
        service = EvaluationService()
        grid = make_grid()
        vector = SweepRunner(service, backend="vector").run(grid)
        hits_before = service.stats.hits
        for point in grid:
            result = service.evaluate(paper_config(), point.streams)
            assert result == vector[point.label]
        assert service.stats.hits == hits_before + len(grid)


class TestObservability:
    def test_counters_and_events_match_serial(self):
        grid = make_grid()
        serial_rec, vector_rec = CountersRecorder(), CountersRecorder()
        SweepRunner(
            EvaluationService(memoize=False),
            backend="serial",
            recorder=serial_rec,
        ).run(grid)
        SweepRunner(
            EvaluationService(memoize=False),
            backend="vector",
            recorder=vector_rec,
        ).run(grid)
        serial_snap, vector_snap = serial_rec.snapshot(), vector_rec.snapshot()
        assert serial_snap["counters"] == vector_snap["counters"]
        assert serial_snap["events"] == vector_snap["events"]
        # Wall time is nondeterministic; only the sample counts align.
        serial_hist = serial_snap["histograms"]["sweep.point.wall_seconds"]
        vector_hist = vector_snap["histograms"]["sweep.point.wall_seconds"]
        assert serial_hist["count"] == vector_hist["count"] == len(grid)


class TestFailures:
    def test_error_names_grid_and_point(self):
        runner = SweepRunner(EvaluationService(memoize=False), backend="vector")
        with pytest.raises(SweepError) as excinfo:
            runner.run(poisoned_grid())
        message = str(excinfo.value)
        assert "'poisoned'" in message
        assert "'bad-socket-9'" in message
        assert "socket" in message.lower()

    def test_service_reports_failing_index(self):
        service = EvaluationService(memoize=False)
        grid = poisoned_grid()
        with pytest.raises(GridPointError) as excinfo:
            service.evaluate_grid(
                paper_config(), [point.streams for point in grid]
            )
        assert excinfo.value.index == 1
        assert "socket" in str(excinfo.value.original)

    def test_grid_point_error_is_a_sweep_error(self):
        # Callers already catching SweepError (or ReproError) keep
        # working when batched evaluation surfaces the failure.
        assert issubclass(GridPointError, SweepError)


def family_grid(name: str = "families") -> SweepGrid:
    """One point per formerly-fallback family, all vector-eligible now."""
    base = StreamSpec(op=Op.READ, threads=8, access_size=4096)
    points = (
        SweepPoint(label="seq", params={}, streams=(base,)),
        SweepPoint(
            label="random",
            params={},
            streams=(base.with_(pattern=Pattern.RANDOM, access_size=256),),
        ),
        SweepPoint(
            label="remote",
            params={},
            streams=(base.with_(issuing_socket=0, target_socket=1),),
        ),
        SweepPoint(
            label="unpinned",
            params={},
            streams=(base.with_(pinning=PinningPolicy.NONE),),
        ),
        SweepPoint(
            label="fsdax",
            params={},
            streams=(base.with_(op=Op.WRITE, dax_mode=DaxMode.FSDAX),),
        ),
        SweepPoint(
            label="mixed",
            params={},
            streams=(base, base.with_(op=Op.WRITE, threads=4)),
        ),
    )
    return SweepGrid(name=name, points=points)


class TestFamilyCoverage:
    def test_every_family_matches_serial_with_counters(self):
        grid = family_grid()
        serial_rec, vector_rec = CountersRecorder(), CountersRecorder()
        serial = SweepRunner(
            EvaluationService(memoize=False), backend="serial", recorder=serial_rec
        ).run(grid)
        vector = SweepRunner(
            EvaluationService(memoize=False), backend="vector", recorder=vector_rec
        ).run(grid)
        assert_runs_identical(serial, vector)
        serial_snap, vector_snap = serial_rec.snapshot(), vector_rec.snapshot()
        assert serial_snap["counters"] == vector_snap["counters"]
        # Every family is priced in batch: no scalar fallback remains.
        assert "sweep.vector.fallback_count" not in vector_snap["counters"]

    def test_family_grid_primes_cache_for_per_point_calls(self):
        # Far/random/unpinned/fsdax entries computed by the batch must be
        # byte-interchangeable with per-point computes: a later scalar
        # call hits the memo the vector sweep populated.
        service = EvaluationService()
        grid = family_grid()
        vector = SweepRunner(service, backend="vector").run(grid)
        assert service.stats.misses == len(grid)
        for point in grid:
            assert service.evaluate(paper_config(), point.streams) == vector[point.label]
        assert service.stats.hits == len(grid)


class TestFallbackCounters:
    def test_poisoned_point_emits_fallback_reason(self):
        # The scalar residue is observable: the service counts the
        # fallback (with its reason) before the scalar evaluator raises.
        service = EvaluationService(memoize=False)
        recorder = CountersRecorder()
        with pytest.raises(GridPointError):
            service.evaluate_grid(
                paper_config(),
                [point.streams for point in poisoned_grid()],
                recorder=recorder,
            )
        counters = recorder.snapshot()["counters"]
        assert counters["sweep.vector.fallback_count"] == 1
        assert counters["sweep.vector.fallback.socket_count"] == 1
