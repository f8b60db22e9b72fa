"""MachineConfig and DirectoryState: the pure core's value types."""

import dataclasses

import pytest

from repro.errors import CalibrationError
from repro.memsim import DirectoryState, MachineConfig, paper_config
from repro.memsim.calibration import paper_calibration
from repro.memsim.topology import build_topology, paper_server


class TestMachineConfig:
    def test_equal_configs_hash_equal(self):
        a, b = MachineConfig(), MachineConfig()
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_usable_as_dict_key(self):
        cache = {MachineConfig(): 1.0}
        assert cache[MachineConfig()] == 1.0

    def test_toggles_distinguish_configs(self):
        assert MachineConfig() != MachineConfig(prefetcher_enabled=False)
        assert MachineConfig() != MachineConfig(write_combining_enabled=False)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            MachineConfig().prefetcher_enabled = False

    def test_validates_calibration_on_construction(self):
        cal = paper_calibration()
        bad = dataclasses.replace(
            cal, pmem=dataclasses.replace(cal.pmem, seq_read_max=-1.0)
        )
        with pytest.raises(CalibrationError):
            MachineConfig(calibration=bad)

    def test_paper_config_is_shared(self):
        assert paper_config() is paper_config()
        assert paper_config() == MachineConfig()


class TestDirectoryState:
    def test_cold_is_empty_and_shared(self):
        assert DirectoryState.cold().warm_pairs == frozenset()
        assert DirectoryState.cold() is DirectoryState.cold()

    def test_warm_covers_all_distinct_pairs(self):
        warm = DirectoryState.warm(paper_server())
        assert warm.warm_pairs == {(0, 1), (1, 0)}
        assert (
            DirectoryState.warm(build_topology(sockets=1)).warm_pairs == frozenset()
        )

    def test_same_socket_always_warm(self):
        cold = DirectoryState.cold()
        assert cold.is_warm(0, 0)
        assert not cold.is_warm(0, 1)

    def test_touch_returns_new_value(self):
        cold = DirectoryState.cold()
        touched = cold.touch(0, 1)
        assert touched is not cold
        assert touched.is_warm(0, 1)
        assert not cold.is_warm(0, 1)  # original untouched

    def test_warmth_is_directional(self):
        touched = DirectoryState.cold().touch(0, 1)
        assert touched.is_warm(0, 1)
        assert not touched.is_warm(1, 0)

    def test_touch_is_idempotent(self):
        touched = DirectoryState.cold().touch(0, 1)
        assert touched.touch(0, 1) is touched
        assert DirectoryState.cold().touch(0, 0) is DirectoryState.cold()

    def test_invalidate_drops_home(self):
        warm = DirectoryState.warm(paper_server())
        assert warm.invalidate(1).warm_pairs == {(1, 0)}

    def test_restrict_intersects(self):
        warm = DirectoryState.warm(paper_server())
        assert warm.restrict(frozenset({(0, 1)})).warm_pairs == {(0, 1)}
        assert warm.restrict(frozenset()).warm_pairs == frozenset()

    def test_hashable_value_semantics(self):
        assert DirectoryState.cold().touch(0, 1) == DirectoryState(
            frozenset({(0, 1)})
        )
        assert len({DirectoryState.cold(), DirectoryState(frozenset())}) == 1
