#!/usr/bin/env python3
"""Quickstart: explore the modeled PMEM server in five minutes.

Walks through the paper's central findings interactively: the read/write
asymmetry, the write boomerang, NUMA cliffs, and the seven best
practices — all computed live from the mechanistic model.

Run:  python examples/quickstart.py
"""

from repro import BandwidthModel, Layout, MediaKind, Op, PinningPolicy, StreamSpec, paper_server
from repro.core import practices_report
from repro.memsim import DirectoryState, MachineConfig


def main() -> None:
    topology = paper_server()
    print(topology.describe())
    print()

    model = BandwidthModel(MachineConfig(topology))

    print("1. Reads behave like slower DRAM (§3) ------------------------")
    for threads in (1, 4, 8, 18, 36):
        pmem = model.sequential_read(threads, 4096)
        dram = model.sequential_read(threads, 4096, media=MediaKind.DRAM)
        print(f"   {threads:>2} threads: PMEM {pmem:5.1f} GB/s   DRAM {dram:6.1f} GB/s")
    print()

    print("2. Writes do not: the boomerang (§4) -------------------------")
    print("   threads \\ access size:   256B    4KB   64KB    1MB")
    for threads in (4, 6, 8, 18, 36):
        row = [
            model.sequential_write(threads, size)
            for size in (256, 4096, 65536, 1 << 20)
        ]
        cells = "  ".join(f"{value:5.1f}" for value in row)
        print(f"   {threads:>2} threads            {cells}")
    print("   -> 4-6 threads hold the peak everywhere; scaling both axes")
    print("      collapses bandwidth (best practice 2).")
    print()

    print("3. NUMA is a cliff, not a slope (§3.4) -----------------------")
    near = model.sequential_read(18, 4096)
    far = StreamSpec(op=Op.READ, threads=18, issuing_socket=0, target_socket=1)
    first = model.evaluate([far], DirectoryState.cold())
    cold = first.total_gbps
    warm = model.evaluate([far], first.directory_after).total_gbps  # 2nd run
    unpinned = model.sequential_read(18, 4096, pinning=PinningPolicy.NONE)
    print(f"   near PMEM            : {near:5.1f} GB/s")
    print(f"   far PMEM, first run  : {cold:5.1f} GB/s  (directory cold)")
    print(f"   far PMEM, second run : {warm:5.1f} GB/s  (directory warm)")
    print(f"   unpinned threads     : {unpinned:5.1f} GB/s  (scheduler churn)")
    print()

    print("4. Grouped sub-line reads share Optane lines (§3.1) ----------")
    for size in (64, 256, 4096):
        grouped = model.sequential_read(36, size, layout=Layout.GROUPED)
        individual = model.sequential_read(36, size)
        print(
            f"   {size:>5} B: grouped {grouped:5.1f} GB/s   "
            f"individual {individual:5.1f} GB/s"
        )
    print()

    print("5. The seven best practices, derived (§7) --------------------")
    print(practices_report(model))


if __name__ == "__main__":
    main()
