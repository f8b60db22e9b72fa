"""Property-based tests of multi-stream evaluation invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim import (
    BandwidthModel,
    DirectoryState,
    MediaKind,
    Op,
    PinningPolicy,
    StreamSpec,
)

_MODEL = BandwidthModel()
_WARM = DirectoryState.warm(_MODEL.config.topology)

ops = st.sampled_from([Op.READ, Op.WRITE])
medias = st.sampled_from([MediaKind.PMEM, MediaKind.DRAM])
threads = st.integers(min_value=1, max_value=36)
sockets = st.integers(min_value=0, max_value=1)
sizes = st.sampled_from([64, 256, 4096, 65536])


def _spec(op, media, thread_count, issuing, target, size):
    return StreamSpec(
        op=op,
        threads=thread_count,
        access_size=size,
        media=media,
        issuing_socket=issuing,
        target_socket=target,
        pinning=PinningPolicy.NUMA_REGION,
    )


class TestMultiStreamInvariants:
    @given(
        op1=ops, op2=ops, media=medias,
        t1=threads, t2=threads,
        i1=sockets, i2=sockets, g1=sockets, g2=sockets,
        size=sizes,
    )
    @settings(max_examples=60, deadline=None)
    def test_contention_never_helps(self, op1, op2, media, t1, t2, i1, i2, g1, g2, size):
        """No stream gains bandwidth from another stream's presence."""
        a = _spec(op1, media, t1, i1, g1, size)
        b = _spec(op2, media, t2, i2, g2, size)
        together = _MODEL.evaluate([a, b], _WARM)
        alone_a = _MODEL.evaluate([a], _WARM).total_gbps
        alone_b = _MODEL.evaluate([b], _WARM).total_gbps
        assert together.streams[0].gbps <= alone_a * 1.001
        assert together.streams[1].gbps <= alone_b * 1.001
        assert together.total_gbps <= (alone_a + alone_b) * 1.001

    @given(op=ops, media=medias, t=threads, size=sizes)
    @settings(max_examples=40, deadline=None)
    def test_evaluation_is_deterministic(self, op, media, t, size):
        spec = _spec(op, media, t, 0, 0, size)
        first = _MODEL.evaluate([spec], _WARM).total_gbps
        second = _MODEL.evaluate([spec], _WARM).total_gbps
        assert first == second

    @given(op=ops, t=threads, size=sizes)
    @settings(max_examples=40, deadline=None)
    def test_counters_track_volume(self, op, t, size):
        spec = _spec(op, MediaKind.PMEM, t, 0, 0, size)
        result = _MODEL.evaluate([spec], _WARM)
        counters = result.counters
        if op is Op.READ:
            assert counters.app_bytes_read == spec.total_bytes
            assert counters.media_bytes_read >= counters.app_bytes_read * 0.999
        else:
            assert counters.app_bytes_written == spec.total_bytes
            assert counters.media_bytes_written >= counters.app_bytes_written * 0.999

    @given(t=threads, size=sizes)
    @settings(max_examples=30, deadline=None)
    def test_far_streams_account_upi(self, t, size):
        far = _spec(Op.READ, MediaKind.PMEM, t, 0, 1, size)
        result = _MODEL.evaluate([far], _WARM)
        assert result.counters.upi_bytes == far.total_bytes
        assert result.counters.upi_utilization > 0

    @given(t=threads, size=sizes)
    @settings(max_examples=30, deadline=None)
    def test_near_streams_do_not_touch_upi(self, t, size):
        near = _spec(Op.READ, MediaKind.PMEM, t, 0, 0, size)
        result = _MODEL.evaluate([near], _WARM)
        assert result.counters.upi_bytes == 0
        assert result.counters.upi_utilization == 0
