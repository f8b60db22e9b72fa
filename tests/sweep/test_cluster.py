"""Cluster sweep backend: protocol, bit-identity, accounting, errors."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    BackendError,
    ConfigurationError,
    GridPointError,
    SweepError,
)
from repro.memsim import Op, StreamSpec
from repro.memsim.config import DirectoryState, paper_config
from repro.obs import NULL_RECORDER, CountersRecorder
from repro.sweep import BACKENDS, DiskCache, EvaluationService, SweepRunner
from repro.sweep.cluster import ClusterOptions, parse_endpoint
from repro.sweep.cluster import protocol
from repro.sweep.cluster.coordinator import Coordinator
from repro.workloads.grids import SweepGrid, SweepPoint
from repro.workloads.sequential import sequential_sweep

from tests.serve.conftest import run_async


def fig3_grid() -> SweepGrid:
    return sequential_sweep(Op.READ)


def _point(label: str, *, threads: int = 4, size: int = 4096,
           issuing: int = 0, target: int = 0) -> SweepPoint:
    spec = StreamSpec(
        op=Op.READ, threads=threads, access_size=size,
        issuing_socket=issuing, target_socket=target,
    )
    return SweepPoint(label=label, params={"threads": threads}, streams=(spec,))


def _assert_identical(serial, parallel) -> None:
    assert list(serial) == list(parallel)  # same labels, same order
    for label in serial:
        assert serial[label].streams == parallel[label].streams
        assert serial[label].counters == parallel[label].counters
        assert serial[label].directory_after == parallel[label].directory_after


class TestProtocol:
    def test_blob_round_trip(self):
        config = paper_config()
        assert protocol.decode_blob(protocol.encode_blob(config)) == config
        point = _point("x")
        assert protocol.decode_blob(protocol.encode_blob((point,))) == (point,)

    def test_frame_round_trip(self):
        async def scenario():
            reader = asyncio.StreamReader(limit=protocol.MAX_FRAME_BYTES)
            reader.feed_data(protocol.dump_line({"kind": "heartbeat"}))
            reader.feed_eof()
            first = await protocol.read_frame(reader)
            assert first == {"kind": "heartbeat"}
            assert await protocol.read_frame(reader) is None  # clean EOF

        run_async(scenario())

    def test_oversized_frame_is_a_sweep_error(self):
        async def scenario():
            reader = asyncio.StreamReader(limit=64)
            reader.feed_data(b"x" * 256)
            with pytest.raises(SweepError, match="exceeds"):
                await protocol.read_frame(reader)

        run_async(scenario())

    @pytest.mark.parametrize("line", [b"not json\n", b"[1, 2]\n", b"{}\n"])
    def test_malformed_frames_are_sweep_errors(self, line):
        async def scenario():
            reader = asyncio.StreamReader(limit=protocol.MAX_FRAME_BYTES)
            reader.feed_data(line)
            reader.feed_eof()
            with pytest.raises(SweepError):
                await protocol.read_frame(reader)

        run_async(scenario())


class TestSharding:
    def _coordinator(self, points, workers=2):
        return Coordinator(
            "shards", points,
            config=paper_config(), directory=DirectoryState.cold(),
            service=EvaluationService(), recorder=NULL_RECORDER,
            workers_hint=workers,
        )

    def test_shards_cover_every_index_exactly_once(self):
        points = [_point(f"p{i}", threads=i + 1) for i in range(23)]

        async def scenario():
            coordinator = self._coordinator(points, workers=3)
            indices = sorted(
                i for chunk in coordinator._pending for i in chunk
            )
            assert indices == list(range(23))
            assert all(chunk for chunk in coordinator._pending)

        run_async(scenario())

    def test_duplicate_content_points_co_locate(self):
        # Same streams, different labels: the request digest ignores the
        # label, so both land in the same content-hash shard.
        points = [_point(f"p{i}", threads=i + 1) for i in range(16)]
        points.append(_point("dup-a", threads=1))
        points.append(_point("dup-b", threads=1))

        async def scenario():
            coordinator = self._coordinator(points, workers=4)
            placed = {
                i: n
                for n, chunk in enumerate(coordinator._pending)
                for i in chunk
            }
            assert placed[0] == placed[16] == placed[17]

        run_async(scenario())


class TestBitIdentity:
    def test_cluster_bit_identical_to_serial_cold(self):
        grid = fig3_grid()
        serial = SweepRunner(
            EvaluationService(memoize=False), backend="serial"
        ).run(grid)
        service = EvaluationService(memoize=False)
        cluster = SweepRunner(service, backend="cluster").run(grid)
        _assert_identical(serial, cluster)
        # Worker cache statistics fold into the parent service even when
        # no recorder is observing.
        assert (service.stats.hits, service.stats.misses) == (0, len(grid))

    @given(
        threads=st.lists(
            st.sampled_from([1, 4, 8, 18, 36]), min_size=2, max_size=4, unique=True
        ),
        size=st.sampled_from([256, 4096, 65536]),
    )
    @settings(max_examples=3, deadline=None)
    def test_cluster_merge_deterministic_property(self, threads, size):
        points = tuple(
            _point(f"{t}T", threads=t, size=size, target=t % 2) for t in threads
        )
        grid = SweepGrid(name="prop", points=points)
        serial = SweepRunner(
            EvaluationService(memoize=False), backend="serial"
        ).run(grid)
        cluster = SweepRunner(
            EvaluationService(memoize=False), backend="cluster"
        ).run(grid)
        _assert_identical(serial, cluster)

    def test_cluster_columns_equal_serial_columns(self):
        grid = fig3_grid()
        s_labels, s_columns = SweepRunner(
            EvaluationService(memoize=False), backend="serial"
        ).run_columns(grid)
        c_labels, c_columns = SweepRunner(
            EvaluationService(memoize=False), backend="cluster"
        ).run_columns(grid)
        assert s_labels == c_labels
        assert s_columns.total_gbps() == c_columns.total_gbps()
        for row in range(len(s_labels)):
            assert s_columns.view(row).counters == c_columns.view(row).counters


class TestAccounting:
    def test_counter_and_stats_parity_with_serial(self):
        grid = fig3_grid()
        ser_rec, clu_rec = CountersRecorder(), CountersRecorder()
        ser_svc = EvaluationService(memoize=False)
        clu_svc = EvaluationService(memoize=False)
        SweepRunner(ser_svc, backend="serial", recorder=ser_rec).run(grid)
        SweepRunner(clu_svc, backend="cluster", recorder=clu_rec).run(grid)
        assert (ser_svc.stats.hits, ser_svc.stats.misses, ser_svc.stats.disk_hits) \
            == (clu_svc.stats.hits, clu_svc.stats.misses, clu_svc.stats.disk_hits)
        serial = ser_rec.snapshot()["counters"]
        cluster = clu_rec.snapshot()["counters"]
        # The sweep-layer tallies are integers and must match exactly;
        # cluster.* keys are extra (the cluster's own mechanics).
        for key in ("sweep.points_count", "sweep.cache.misses_count"):
            assert cluster[key] == serial[key]
        wall = clu_rec.snapshot()["histograms"]["sweep.point.wall_seconds"]
        assert wall["count"] == len(grid)
        assert cluster["cluster.workers_count"] == 2
        assert cluster["cluster.chunks.shipped_count"] >= 2
        # Every serial counter exists in the cluster snapshot too (the
        # memsim families merged over from the workers).
        assert set(serial) <= set(cluster)

    def test_shared_disk_cache_warm_run_hits_everywhere(self, tmp_path):
        grid = fig3_grid()
        serial = SweepRunner(
            EvaluationService(memoize=False), backend="serial"
        ).run(grid)
        cold_svc = EvaluationService(disk_cache=DiskCache(tmp_path))
        cold = SweepRunner(cold_svc, backend="cluster").run(grid)
        warm_rec = CountersRecorder()
        warm_svc = EvaluationService(disk_cache=DiskCache(tmp_path))
        warm = SweepRunner(
            warm_svc, backend="cluster", recorder=warm_rec
        ).run(grid)
        _assert_identical(serial, cold)
        _assert_identical(serial, warm)
        n = len(serial)
        # Every warm point is a shared-tier hit seeded into the worker
        # memo: the same hits=1 + disk_hits=1 pair a local warm disk
        # cache produces, carried across the wire.
        assert warm_svc.stats.disk_hits == n
        assert warm_svc.stats.hits == n
        counters = warm_rec.snapshot()["counters"]
        assert counters["sweep.cache.disk_hits_count"] == n
        assert counters["sweep.cache.hits_count"] == n
        assert counters["cluster.shared_cache.hits_count"] == n


class TestErrorPropagation:
    def test_poisoned_point_attribution_and_partial_prefix(self):
        points = tuple(
            [_point(f"p{i}", threads=i + 1) for i in range(6)]
            + [_point("bad", issuing=7)]
            + [_point(f"q{i}", threads=i + 11) for i in range(3)]
        )
        grid = SweepGrid(name="poisoned", points=points)
        with pytest.raises(GridPointError) as excinfo:
            SweepRunner(
                EvaluationService(memoize=False), backend="cluster"
            ).run_columns(grid)
        exc = excinfo.value
        assert exc.label == "bad"
        assert exc.grid == "poisoned"
        assert points[exc.index].label == "bad"
        assert "no such socket: 7" in str(exc)
        # The partial is the contiguous completed grid prefix: its rows
        # are bit-identical to serial's.
        assert len(exc.partial) <= exc.index
        if len(exc.partial):
            serial = SweepRunner(
                EvaluationService(memoize=False), backend="serial"
            ).run(SweepGrid(name="prefix", points=points[: len(exc.partial)]))
            for row, label in enumerate(list(serial)):
                assert exc.partial.view(row).counters == serial[label].counters

    def test_unpicklable_point_fails_fast_with_chained_error(self):
        poisoned = SweepPoint(
            label="unpicklable",
            params={"fn": lambda: None},
            streams=_point("x").streams,
        )
        grid = SweepGrid(name="ship-fail", points=(_point("ok"), poisoned))
        with pytest.raises(SweepError, match="'ship-fail'.*cluster worker") as excinfo:
            SweepRunner(EvaluationService(), backend="cluster").run(grid)
        assert excinfo.value.__cause__ is not None


class TestBackendValidation:
    def test_unknown_backend_raises_typed_error_naming_valid_set(self):
        with pytest.raises(BackendError) as excinfo:
            SweepRunner(EvaluationService(), backend="greenlet")
        exc = excinfo.value
        assert isinstance(exc, SweepError)
        assert isinstance(exc, ConfigurationError)
        assert exc.backend == "greenlet"
        assert exc.valid == BACKENDS
        for name in BACKENDS:
            assert repr(name) in str(exc)
        assert "cluster" in str(exc)


class TestOptions:
    def test_defaults_validate(self):
        options = ClusterOptions()
        assert options.workers == 2
        assert options.shared_cache is True

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            ClusterOptions(workers=0)
        # ...unless remote endpoints are supplied instead.
        ClusterOptions(workers=0, connect=(("h", 1),))

    def test_bad_points_per_item_rejected(self):
        with pytest.raises(ConfigurationError, match="points_per_item"):
            ClusterOptions(points_per_item=0)

    def test_parse_endpoint(self):
        assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)
        with pytest.raises(ConfigurationError, match="HOST:PORT"):
            parse_endpoint("no-port")
        with pytest.raises(ConfigurationError, match="integer"):
            parse_endpoint("host:http")

    def test_empty_grid_short_circuits(self):
        from repro.sweep.cluster import run_grid_columns

        labels, columns = run_grid_columns(
            SweepGrid(name="empty", points=(_point("unused"),)), [],
            config=paper_config(), directory=DirectoryState.cold(),
            service=EvaluationService(), recorder=NULL_RECORDER,
        )
        assert labels == []
        assert len(columns) == 0
