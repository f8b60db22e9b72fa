"""Tests for stream specifications."""

import pytest

from repro.errors import WorkloadError
from repro.memsim import Layout, MediaKind, Op, StreamSpec
from repro.memsim.scheduler import PinningPolicy


class TestValidation:
    def test_zero_threads_rejected(self):
        with pytest.raises(WorkloadError):
            StreamSpec(op=Op.READ, threads=0)

    def test_sub_cacheline_access_rejected(self):
        with pytest.raises(WorkloadError):
            StreamSpec(op=Op.READ, threads=1, access_size=32)

    def test_ssd_media_rejected(self):
        with pytest.raises(WorkloadError):
            StreamSpec(op=Op.READ, threads=1, media=MediaKind.SSD)

    def test_negative_socket_rejected(self):
        with pytest.raises(WorkloadError):
            StreamSpec(op=Op.READ, threads=1, issuing_socket=-1)

    def test_zero_region_rejected(self):
        with pytest.raises(WorkloadError):
            StreamSpec(op=Op.READ, threads=1, region_bytes=0)


class TestProperties:
    def test_far_detection(self):
        near = StreamSpec(op=Op.READ, threads=1)
        far = StreamSpec(op=Op.READ, threads=1, target_socket=1)
        assert not near.far
        assert far.far

    def test_is_read(self):
        assert StreamSpec(op=Op.READ, threads=1).is_read
        assert not StreamSpec(op=Op.WRITE, threads=1).is_read

    def test_with_replaces_fields(self):
        spec = StreamSpec(op=Op.READ, threads=4)
        other = spec.with_(threads=8, layout=Layout.GROUPED)
        assert other.threads == 8
        assert other.layout is Layout.GROUPED
        assert spec.threads == 4  # original untouched

    def test_defaults_match_paper_conventions(self):
        spec = StreamSpec(op=Op.READ, threads=1)
        assert spec.access_size == 4096
        assert spec.layout is Layout.INDIVIDUAL
        assert spec.pinning is PinningPolicy.CORES
        assert spec.media is MediaKind.PMEM
