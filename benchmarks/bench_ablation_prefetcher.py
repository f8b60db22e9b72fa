"""Ablation: L2 hardware prefetcher on vs. off (§3.1-§3.2).

The paper tested this on real hardware: disabling the prefetcher removes
the 1-2 KB grouped-read dip, hurts low thread counts, and lets 36
hyperthreaded readers reach the 40 GB/s peak. The same switch exists on
the model.
"""

from repro.memsim import BandwidthModel, Layout, MachineConfig


def _study():
    on = BandwidthModel(MachineConfig(prefetcher_enabled=True))
    off = BandwidthModel(MachineConfig(prefetcher_enabled=False))
    return {
        "dip_1k_on": on.sequential_read(36, 1024, layout=Layout.GROUPED),
        "dip_1k_off": off.sequential_read(36, 1024, layout=Layout.GROUPED),
        "low_threads_on": on.sequential_read(4, 4096),
        "low_threads_off": off.sequential_read(4, 4096),
        "ht_36_on": on.sequential_read(36, 4096),
        "ht_36_off": off.sequential_read(36, 4096),
    }


def test_prefetcher_ablation(benchmark):
    values = benchmark(_study)
    benchmark.extra_info.update({k: round(v, 2) for k, v in values.items()})
    # Disabling removes the dip...
    assert values["dip_1k_off"] > values["dip_1k_on"]
    # ...hurts low thread counts...
    assert values["low_threads_off"] < values["low_threads_on"]
    # ...and restores the 36-thread peak (§3.2).
    assert values["ht_36_off"] >= values["ht_36_on"]
