"""Robustness: the model works on non-paper topologies too.

The library claims to model a *family* of servers, not one machine;
these tests exercise single-socket and denser configurations.
"""

import pytest

from repro.errors import TopologyError
from repro.memsim import (
    BandwidthModel,
    DirectoryState,
    MachineConfig,
    MediaKind,
    Op,
    StreamSpec,
    build_topology,
)
from repro.memsim.scheduler import PinningPolicy
from repro.units import GIB


@pytest.fixture(scope="module")
def single_socket():
    return BandwidthModel(MachineConfig(build_topology(sockets=1)))


@pytest.fixture(scope="module")
def big_socket():
    # A hypothetical 28-core part with the same memory complement.
    return BandwidthModel(MachineConfig(build_topology(physical_cores_per_socket=28)))


class TestSingleSocket:
    def test_near_access_works(self, single_socket):
        assert single_socket.sequential_read(18, 4096) == pytest.approx(40.0, rel=0.05)
        assert single_socket.sequential_write(4, 4096) == pytest.approx(12.6, rel=0.05)

    def test_far_access_rejected(self, single_socket):
        with pytest.raises(TopologyError):
            single_socket.evaluate(
                [
                    StreamSpec(
                        op=Op.READ, threads=18,
                        issuing_socket=0, target_socket=1,
                    )
                ]
            )

    def test_mixed_works(self, single_socket):
        outcome = single_socket.mixed(write_threads=4, read_threads=18)
        assert outcome.read_gbps > 0
        assert outcome.write_gbps > 0

    def test_warm_directory_is_noop(self, single_socket):
        warm = DirectoryState.warm(single_socket.config.topology)
        assert warm == DirectoryState.cold()


class TestBiggerSocket:
    def test_more_cores_saturate_earlier_relative(self, big_socket):
        # The device cap is unchanged; extra cores only add issue width.
        assert big_socket.sequential_read(28, 4096) == pytest.approx(40.0, rel=0.05)

    def test_hyperthread_penalty_tracks_core_count(self, big_socket):
        # 42 threads on 28 cores is the imbalanced case now.
        b28 = big_socket.sequential_read(28, 4096)
        b42 = big_socket.sequential_read(42, 4096)
        assert b42 <= b28

    def test_pinning_behaviour_preserved(self, big_socket):
        pinned = big_socket.sequential_read(28, 4096)
        unpinned = big_socket.sequential_read(
            28, 4096, pinning=PinningPolicy.NONE
        )
        assert pinned > 3 * unpinned


class TestCustomCapacity:
    def test_larger_dimms_change_capacity_not_bandwidth(self):
        big = BandwidthModel(MachineConfig(build_topology(pmem_dimm_capacity=512 * GIB)))
        small = BandwidthModel(MachineConfig(build_topology(pmem_dimm_capacity=128 * GIB)))
        big_pmem = big.config.topology.capacity(MediaKind.PMEM)
        assert big_pmem == 4 * small.config.topology.capacity(MediaKind.PMEM)
        assert big.sequential_read(18, 4096) == small.sequential_read(18, 4096)
