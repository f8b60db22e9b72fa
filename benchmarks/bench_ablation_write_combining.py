"""Ablation: Optane's write-combining buffer on vs. off.

A what-if the real hardware cannot run: without combining, every 64 B
store is a 256 B read-modify-write and even the paper-recommended
configurations collapse. Quantifies how much of PMEM's usable write
bandwidth the buffer is responsible for.
"""

from repro.memsim import BandwidthModel, MachineConfig


def _study():
    on = BandwidthModel(MachineConfig(write_combining_enabled=True))
    off = BandwidthModel(MachineConfig(write_combining_enabled=False))
    return {
        "best_config_on": on.sequential_write(4, 4096),
        "best_config_off": off.sequential_write(4, 4096),
        "log_append_on": on.sequential_write(36, 256),
        "log_append_off": off.sequential_write(36, 256),
    }


def test_write_combining_ablation(benchmark):
    values = benchmark(_study)
    benchmark.extra_info.update({k: round(v, 2) for k, v in values.items()})
    assert values["best_config_off"] < 0.5 * values["best_config_on"]
    assert values["log_append_off"] < 0.5 * values["log_append_on"]
